"""Oracle-feedback simulation for semi-automated entity linking.

Measures each system's accuracy on the commonly recognised mentions that
exist in the gold standard, then replaces the links of a selected mention
budget with the gold answer and measures again. Selection strategies:
consensus-HARD (topped up with MEDIUM), classifier-predicted HARD, uniform
random, and most-candidates-first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .consensus import Label, read_annotation_fields
from .consensus import read_annotations  # noqa: F401  a tracer target of bench/spans.py
from .rand import derive_seed

#: (doc_id, offset, surface) identifies an evaluated mention.
MentionKey = tuple[str, int, str]


class Strategy(Enum):
    DIFFICULT = "difficult"
    PRED_DIFFICULT = "pred_difficult"
    RANDOM = "random"
    CANDIDATES = "candidates"


class GoldStandard:
    """Mapping from mention key to the correct entity id."""

    def __init__(self, entries: Mapping[MentionKey, str]):
        self._entries = dict(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: MentionKey) -> bool:
        return key in self._entries

    def entity(self, key: MentionKey) -> str:
        return self._entries[key]

    def keys(self):
        return self._entries.keys()

    @classmethod
    def read(cls, path: str | Path, redirect_map: Mapping[str, str] | None = None,
             normalize: bool = True) -> "GoldStandard":
        """Read gold annotations (same tab-separated layout as system dumps);
        conflicting duplicate keys are rejected."""
        entries: dict[MentionKey, str] = {}
        for doc_id, surface, offset, entity in read_annotation_fields(path, redirect_map,
                                                                      normalize):
            key = (doc_id, offset, surface)
            if entries.setdefault(key, entity) != entity:
                raise ValueError(f"conflicting gold entries for mention {key}")
        return cls(entries)


def accuracy(choices: Mapping[MentionKey, str], gold: GoldStandard) -> float:
    """Fraction of correctly linked mentions among the evaluated ones."""
    if not choices:
        raise ValueError("cannot compute accuracy over an empty mention set")
    correct = 0
    for key, entity in choices.items():
        if key not in gold:
            raise KeyError(f"mention {key} is missing from the gold standard")
        correct += entity == gold.entity(key)
    return correct / len(choices)


def _draw(rng: np.random.Generator, items: np.ndarray, size: int) -> np.ndarray:
    if size >= len(items):
        return items
    return items[rng.choice(len(items), size=size, replace=False)]


def _selector(
    strategy: Strategy,
    pool: Sequence[MentionKey],
    labels: Mapping[MentionKey, Label] | None,
    cand_counts: Mapping[MentionKey, int] | None,
) -> Callable[[int, int], np.ndarray]:
    """The selection rule of ``strategy`` over ``pool``, with the pool indexed
    once: returns ``select(n, seed)``, the picked pool indices.

    Each call makes its own generator from ``seed`` and draws from it exactly
    as the rule in ``select_mentions`` describes, so one selector serves any
    number of budgets and repetitions.
    """
    if strategy in (Strategy.DIFFICULT, Strategy.PRED_DIFFICULT):
        if labels is None:
            raise ValueError(f"{strategy.value} selection needs labels")
        hard = np.array([i for i, k in enumerate(pool) if labels.get(k) is Label.HARD],
                        dtype=np.intp)
        medium = np.array([i for i, k in enumerate(pool) if labels.get(k) is Label.MEDIUM],
                          dtype=np.intp)

        def pick(n: int, rng: np.random.Generator) -> np.ndarray:
            selected = _draw(rng, hard, min(n, len(hard)))
            if len(selected) < n:
                topup = _draw(rng, medium, min(n - len(selected), len(medium)))
                selected = np.concatenate((selected, topup))
            return selected
    elif strategy is Strategy.RANDOM:
        everything = np.arange(len(pool), dtype=np.intp)

        def pick(n: int, rng: np.random.Generator) -> np.ndarray:
            return _draw(rng, everything, min(n, len(pool)))
    elif strategy is Strategy.CANDIDATES:
        if cand_counts is None:
            raise ValueError("candidates selection needs candidate counts")
        negated_counts = -np.array([cand_counts.get(k, 0) for k in pool])

        def pick(n: int, rng: np.random.Generator) -> np.ndarray:
            tie = rng.permutation(len(pool))
            return np.lexsort((tie, negated_counts))[:n]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return lambda n, seed: pick(n, np.random.default_rng(seed))


def select_mentions(
    strategy: Strategy,
    n: int,
    pool: Sequence[MentionKey],
    labels: Mapping[MentionKey, Label] | None = None,
    cand_counts: Mapping[MentionKey, int] | None = None,
    seed: int = 0,
) -> set[MentionKey]:
    """Pick min(n, available) mentions for manual judgement.

    DIFFICULT and PRED_DIFFICULT sample uniformly from the HARD-labelled
    pool (consensus or predicted labels, whichever the caller passes) and
    top up a shortfall uniformly from MEDIUM. RANDOM samples the whole
    pool; CANDIDATES takes the highest candidate counts with seeded random
    tie-breaking.
    """
    if n < 0:
        raise ValueError("selection budget must be >= 0")
    pool = list(pool)
    return {pool[i] for i in _selector(strategy, pool, labels, cand_counts)(n, seed)}


def apply_feedback(
    choices: Mapping[MentionKey, str],
    selected: Iterable[MentionKey],
    gold: GoldStandard,
) -> dict[MentionKey, str]:
    """Replace the selected mentions' links with the gold entity; everything
    else is untouched. Feedback can therefore never introduce an error."""
    corrected = dict(choices)
    for key in selected:
        if key not in corrected:
            raise KeyError(f"selected mention {key} is not among the evaluated mentions")
        if key not in gold:
            raise KeyError(f"selected mention {key} is missing from the gold standard")
        corrected[key] = gold.entity(key)
    return corrected


def budget_from_fraction(n_evaluated: int, fraction: float) -> int:
    """Mention budget for a fraction of the evaluated set, rounded half-up."""
    return int(math.floor(n_evaluated * fraction + 0.5))


@dataclass(frozen=True)
class StrategyOutcome:
    mean_after: float
    std_after: float
    per_repetition: tuple[float, ...]


@dataclass(frozen=True)
class SimulationResult:
    systems: tuple[str, ...]
    strategies: tuple[Strategy, ...]
    budgets: tuple[int, ...]
    n_evaluated: int
    before: Mapping[str, float]
    after: Mapping[tuple[str, str, int], StrategyOutcome]
    repetitions: int
    seed: int

    def outcome(self, system: str, strategy: Strategy, budget: int) -> StrategyOutcome:
        return self.after[(system, strategy.value, budget)]


def run_simulation(
    system_choices: Mapping[str, Mapping[MentionKey, str]],
    gold: GoldStandard,
    labels: Mapping[MentionKey, Label] | None,
    budgets: Sequence[int],
    predictions: Mapping[MentionKey, Label] | None = None,
    cand_counts: Mapping[MentionKey, int] | None = None,
    strategies: Sequence[Strategy] | None = None,
    repetitions: int = 10,
    seed: int = 0,
) -> SimulationResult:
    """Before/after accuracy per system, strategy and budget.

    The evaluated set is the intersection of every system's mentions with
    the gold standard. Each (strategy, budget, repetition) selection uses an
    independent seed derived from the master seed, the strategy name, the
    budget index and the repetition index, so repetitions can run in any
    order (or in parallel) with identical results.

    The evaluated set is indexed once: each system becomes one boolean
    vector marking its wrong links, and each strategy indexes its HARD and
    MEDIUM pools or candidate counts once. Oracle feedback corrects exactly
    the wrong links it selects, so a repetition's accuracy is
    ``(n - wrong.sum() + wrong[selected].sum()) / n``, the same integer
    ratio that ``accuracy(apply_feedback(...))`` gives, and a repetition
    costs one seeded draw plus a sum over the selected mentions.
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    if any(budget < 0 for budget in budgets):
        raise ValueError("selection budget must be >= 0")
    systems = tuple(system_choices)
    if not systems:
        raise ValueError("no systems to simulate")
    common = set.intersection(*(set(choices) for choices in system_choices.values()))
    pool = sorted(k for k in common if k in gold)
    if not pool:
        raise ValueError("no commonly recognised mention exists in the gold standard")
    if strategies is None:
        strategies = [Strategy.DIFFICULT, Strategy.RANDOM]
        if predictions is not None:
            strategies.insert(1, Strategy.PRED_DIFFICULT)
        if cand_counts is not None:
            strategies.append(Strategy.CANDIDATES)
    strategies = tuple(strategies)

    n = len(pool)
    wrong = {
        system: np.array([system_choices[system][k] != gold.entity(k) for k in pool], dtype=bool)
        for system in systems
    }
    n_wrong = {system: int(wrong[system].sum()) for system in systems}
    before = {system: (n - n_wrong[system]) / n for system in systems}

    after: dict[tuple[str, str, int], StrategyOutcome] = {}
    for strategy in strategies:
        strategy_labels = predictions if strategy is Strategy.PRED_DIFFICULT else labels
        select = _selector(strategy, pool, strategy_labels, cand_counts)
        for budget_index, budget in enumerate(budgets):
            per_system: dict[str, list[float]] = {system: [] for system in systems}
            for rep in range(repetitions):
                selected = select(budget, derive_seed(seed, strategy.value, budget_index, rep))
                for system in systems:
                    fixed = int(wrong[system][selected].sum())
                    per_system[system].append((n - n_wrong[system] + fixed) / n)
            for system in systems:
                values = np.array(per_system[system])
                after[(system, strategy.value, budget)] = StrategyOutcome(
                    mean_after=float(values.mean()),
                    std_after=float(values.std()),
                    per_repetition=tuple(float(v) for v in values),
                )
    return SimulationResult(
        systems=systems,
        strategies=strategies,
        budgets=tuple(budgets),
        n_evaluated=len(pool),
        before=before,
        after=after,
        repetitions=repetitions,
        seed=seed,
    )


def write_simulation_report(result: SimulationResult, path: str | Path) -> None:
    """Tab-separated report: one row per (system, strategy, budget) with
    before, mean/stddev after, repetition count and master seed."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("system\tstrategy\tbudget\tbefore\tafter_mean\tafter_stddev\trepetitions\tseed\n")
        fh.write(f"# evaluated_mentions\t{result.n_evaluated}\n")
        for system in result.systems:
            for strategy in result.strategies:
                for budget in result.budgets:
                    outcome = result.outcome(system, strategy, budget)
                    fh.write(
                        f"{system}\t{strategy.value}\t{budget}\t{result.before[system]:.6f}"
                        f"\t{outcome.mean_after:.6f}\t{outcome.std_after:.6f}"
                        f"\t{result.repetitions}\t{result.seed}\n"
                    )
