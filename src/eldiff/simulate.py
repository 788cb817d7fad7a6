"""Oracle-feedback simulation for semi-automated entity linking.

Measures each system's accuracy on the commonly recognised mentions that
exist in the gold standard, then replaces the links of a selected mention
budget with the gold answer and measures again. Selection strategies:
consensus-HARD (topped up with MEDIUM), classifier-predicted HARD, uniform
random, and most-candidates-first.

``run_simulation`` works on a ``SimulationPool``: one wrong-link vector per
system, the label and predicted class codes and the candidate counts, one
entry per evaluated mention in (doc_id, offset, surface) order. The files
are read into int code columns against one ``consensus.MentionCodes``:
``consensus.read_labels``, ``read_gold`` and ``read_predictions`` build no
record per line, and ``SimulationPool.from_columns`` joins them by key code.
``select_mentions``, ``apply_feedback`` and ``accuracy`` state one
selection and its feedback over dicts keyed by ``(doc_id, offset, surface)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .consensus import CLASS_INDEX, Label, LabelledRows, MentionCodes, parse_class
from .consensus import read_annotations, read_tsv, write_tsv
from .errors import MalformedRecordError
from .rand import derive_seed

#: (doc_id, offset, surface) identifies an evaluated mention.
MentionKey = tuple[str, int, str]

_HARD, _MEDIUM = CLASS_INDEX[Label.HARD], CLASS_INDEX[Label.MEDIUM]


class Strategy(Enum):
    DIFFICULT = "difficult"
    PRED_DIFFICULT = "pred_difficult"
    RANDOM = "random"
    CANDIDATES = "candidates"


@dataclass(frozen=True, eq=False)
class KeyedRows:
    """Lines of one file as int columns: each line's key code
    (``MentionCodes.key``) and value code, in line order."""

    keys: np.ndarray
    values: np.ndarray


def read_gold(path: str | Path, codes: MentionCodes,
              redirect_map: Mapping[str, str] | None = None) -> KeyedRows:
    """Read a gold standard (``consensus.read_annotations``) as one row per
    mention key: its key code and its entity's code in ``codes.entities``,
    in the order of each key's first line. A key given again with another
    entity raises MalformedRecordError naming that line; a bad line
    anywhere in the file is reported first."""
    lines = read_annotations(path, codes, redirect_map)
    _, first, inverse = np.unique(lines.keys, return_index=True, return_inverse=True)
    clashes = np.flatnonzero(lines.entities != lines.entities[first][inverse])
    if len(clashes):
        row = int(clashes[0])
        raise MalformedRecordError(lines.line_number(row), "conflicting gold entries for "
                                   f"mention {codes.mentions([lines.keys[row]])[0]}")
    rows = np.sort(first, kind="stable")
    return KeyedRows(lines.keys[rows], lines.entities[rows])


def read_predictions(path: str | Path, codes: MentionCodes) -> KeyedRows:
    """Read a predictions file (``doc_id offset surface label``, then any
    fields) as each line's key code and predicted class index, in line
    order. The first bad line raises MalformedRecordError with its number."""
    keys, labels = [], []
    for lineno, (doc_id, offset, surface, label, *_) in read_tsv(path, 4, at_least=True):
        keys.append(codes.key(doc_id, offset, surface, lineno))
        labels.append(parse_class(label, lineno))
    return KeyedRows(np.array(keys, dtype=np.intp), np.array(labels, dtype=np.int8))


def accuracy(choices: Mapping[MentionKey, str], gold: Mapping[MentionKey, str]) -> float:
    """Fraction of correctly linked mentions among the evaluated ones."""
    if not choices:
        raise ValueError("cannot compute accuracy over an empty mention set")
    correct = 0
    for key, entity in choices.items():
        if key not in gold:
            raise KeyError(f"mention {key} is missing from the gold standard")
        correct += entity == gold[key]
    return correct / len(choices)


def _draw(rng: np.random.Generator, items: np.ndarray, size: int) -> np.ndarray:
    if size >= len(items):
        return items
    return items[rng.choice(len(items), size=size, replace=False)]


def _selector(
    strategy: Strategy,
    size: int,
    labels: np.ndarray | None,
    cand_counts: np.ndarray | None,
) -> Callable[[int, int], np.ndarray]:
    """The selection rule of ``strategy`` over a pool of ``size`` mentions,
    indexed once from its class codes or candidate counts: returns
    ``select(n, seed)``, the picked pool indices.

    Each call makes its own generator from ``seed`` and draws from it exactly
    as the rule in ``select_mentions`` describes, so one selector serves any
    number of budgets and repetitions.
    """
    if strategy in (Strategy.DIFFICULT, Strategy.PRED_DIFFICULT):
        if labels is None:
            raise ValueError(f"{strategy.value} selection needs labels")
        hard = np.flatnonzero(labels == _HARD)
        medium = np.flatnonzero(labels == _MEDIUM)

        def pick(n: int, rng: np.random.Generator) -> np.ndarray:
            selected = _draw(rng, hard, min(n, len(hard)))
            if len(selected) < n:
                topup = _draw(rng, medium, min(n - len(selected), len(medium)))
                selected = np.concatenate((selected, topup))
            return selected
    elif strategy is Strategy.RANDOM:
        everything = np.arange(size, dtype=np.intp)

        def pick(n: int, rng: np.random.Generator) -> np.ndarray:
            return _draw(rng, everything, min(n, size))
    elif strategy is Strategy.CANDIDATES:
        if cand_counts is None:
            raise ValueError("candidates selection needs candidate counts")
        # Highest count first, ties in the order of a seeded permutation: the
        # lexsort key (-count, tie) as the one int rank * size + tie, whose n
        # smallest argpartition finds without sorting. Ranks (0 for the
        # largest count) keep the int small whatever the counts are.
        _, rank = np.unique(-cand_counts, return_inverse=True)
        base = rank.astype(np.int64) * size
        everything = np.arange(size, dtype=np.intp)

        def pick(n: int, rng: np.random.Generator) -> np.ndarray:
            tie = rng.permutation(size)
            if n >= size:
                return everything
            if n == 0:
                return everything[:0]
            return np.argpartition(base + tie, n - 1)[:n]
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
    classes = None if labels is None else np.array(
        [CLASS_INDEX.get(labels.get(k), -1) for k in pool], dtype=np.int8)
    counts = None if cand_counts is None else np.array([cand_counts.get(k, 0) for k in pool],
                                                       dtype=np.int64)
    select = _selector(strategy, len(pool), classes, counts)
    return {pool[i] for i in select(n, seed)}


def apply_feedback(
    choices: Mapping[MentionKey, str],
    selected: Iterable[MentionKey],
    gold: Mapping[MentionKey, str],
) -> dict[MentionKey, str]:
    """Replace the selected mentions' links with the gold entity; everything
    else is untouched. Feedback can therefore never introduce an error."""
    corrected = dict(choices)
    for key in selected:
        if key not in corrected:
            raise KeyError(f"selected mention {key} is not among the evaluated mentions")
        if key not in gold:
            raise KeyError(f"selected mention {key} is missing from the gold standard")
        corrected[key] = gold[key]
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


@dataclass(frozen=True, eq=False)
class SimulationPool:
    """The evaluated mentions as arrays, one entry per mention in
    (doc_id, offset, surface) order.

    ``wrong[s]`` marks the wrong links of ``systems[s]``. ``labels`` and
    ``predicted`` hold class indices (``CLASS_ORDER``), -1 for a mention
    without one. ``predicted`` and ``cand_counts`` are None when not given,
    and the strategies that need them do not run.
    """

    systems: tuple[str, ...]
    wrong: np.ndarray
    labels: np.ndarray | None
    predicted: np.ndarray | None = None
    cand_counts: np.ndarray | None = None

    def __len__(self) -> int:
        return self.wrong.shape[1]

    @classmethod
    def from_columns(
        cls,
        codes: MentionCodes,
        systems: Sequence[str],
        labelled: LabelledRows,
        gold: KeyedRows,
        predictions: KeyedRows | None = None,
        cand_counts: Mapping[str, int] | None = None,
    ) -> SimulationPool:
        """The pool of the labelled mentions that the gold standard holds,
        joined by key code; it may be empty. A key's last labels line and
        last predictions line win. A system name given twice, or an entity
        tuple without one entity per system, raises ValueError. A mention
        without a prediction gets -1, and a surface missing from
        ``cand_counts`` counts 0."""
        if len(set(systems)) != len(systems):
            raise ValueError(f"system names must be distinct, got {list(systems)}")
        if any(len(entities) != len(systems) for entities in labelled.entities):
            raise ValueError(f"every entity tuple needs one entity per system ({len(systems)})")
        n_keys = len(codes.keys)
        label_rows = _last_rows(labelled.keys, n_keys)
        gold_rows = _last_rows(gold.keys, n_keys)
        order = codes.order()
        pool = order[(label_rows[order] >= 0) & (gold_rows[order] >= 0)]
        rows = label_rows[pool]
        entities = np.array(labelled.entities, dtype=np.intp).reshape(-1, len(systems))
        chosen = entities[labelled.tuples[rows]]
        wrong = np.ascontiguousarray((chosen != gold.values[gold_rows[pool], None]).T)
        predicted = None
        if predictions is not None:
            prediction_rows = _last_rows(predictions.keys, n_keys)[pool]
            predicted = np.full(len(pool), -1, dtype=np.int8)
            found = prediction_rows >= 0
            predicted[found] = predictions.values[prediction_rows[found]]
        counts = None if cand_counts is None else codes.surface_counts(cand_counts)[pool]
        return cls(tuple(systems), wrong, labelled.labels[rows], predicted, counts)


def _last_rows(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """For each of ``n_keys`` key codes, the index of its last row in
    ``keys``, or -1 if it has none."""
    rows = np.full(n_keys, -1, dtype=np.intp)
    distinct, index = np.unique(keys[::-1], return_index=True)
    rows[distinct] = len(keys) - 1 - index
    return rows


def run_simulation(
    pool: SimulationPool,
    budgets: Sequence[int],
    repetitions: int = 10,
    seed: int = 0,
) -> SimulationResult:
    """Before/after accuracy per system, strategy and budget.

    The strategies are DIFFICULT, PRED_DIFFICULT if the pool has predicted
    classes, RANDOM, and CANDIDATES if it has candidate counts, in that
    order. Each (strategy, budget, repetition) selection uses an independent
    seed derived from the master seed, the strategy name, the budget index
    and the repetition index, so repetitions can run in any order (or in
    parallel) with identical results.

    Each strategy indexes its HARD and MEDIUM pools or candidate counts
    once. Oracle feedback corrects exactly the wrong links it selects, so a
    repetition's accuracy is ``(n - wrong.sum() + wrong[selected].sum()) / n``,
    the same integer ratio that ``accuracy(apply_feedback(...))`` gives, and
    a repetition costs one seeded draw plus one sum over the selected
    mentions for all systems.
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    if any(budget < 0 for budget in budgets):
        raise ValueError("selection budget must be >= 0")
    n = len(pool)
    if not n:
        raise ValueError("the simulation pool is empty")
    strategies = [Strategy.DIFFICULT, Strategy.RANDOM]
    if pool.predicted is not None:
        strategies.insert(1, Strategy.PRED_DIFFICULT)
    if pool.cand_counts is not None:
        strategies.append(Strategy.CANDIDATES)
    strategies = tuple(strategies)

    systems = pool.systems
    n_wrong = pool.wrong.sum(axis=1).tolist()
    before = {system: (n - w) / n for system, w in zip(systems, n_wrong)}

    after: dict[tuple[str, str, int], StrategyOutcome] = {}
    for strategy in strategies:
        labels = pool.predicted if strategy is Strategy.PRED_DIFFICULT else pool.labels
        select = _selector(strategy, n, labels, pool.cand_counts)
        for budget_index, budget in enumerate(budgets):
            per_system: list[list[float]] = [[] for _ in systems]
            for rep in range(repetitions):
                selected = select(budget, derive_seed(seed, strategy.value, budget_index, rep))
                fixed = pool.wrong[:, selected].sum(axis=1).tolist()
                for values, w, f in zip(per_system, n_wrong, fixed):
                    values.append((n - w + f) / n)
            for system, values in zip(systems, per_system):
                values = np.array(values)
                after[(system, strategy.value, budget)] = StrategyOutcome(
                    mean_after=float(values.mean()),
                    std_after=float(values.std()),
                    per_repetition=tuple(float(v) for v in values),
                )
    return SimulationResult(
        systems=systems,
        strategies=strategies,
        budgets=tuple(budgets),
        n_evaluated=n,
        before=before,
        after=after,
        repetitions=repetitions,
        seed=seed,
    )


def write_simulation_report(result: SimulationResult, path: str | Path) -> None:
    """Tab-separated report: one row per (system, strategy, budget) with
    before, mean/stddev after, repetition count and master seed."""
    def rows():
        yield ("system", "strategy", "budget", "before", "after_mean", "after_stddev",
               "repetitions", "seed")
        yield ("# evaluated_mentions", str(result.n_evaluated))
        for system in result.systems:
            for strategy in result.strategies:
                for budget in result.budgets:
                    outcome = result.outcome(system, strategy, budget)
                    yield (system, strategy.value, str(budget), f"{result.before[system]:.6f}",
                           f"{outcome.mean_after:.6f}", f"{outcome.std_after:.6f}",
                           str(result.repetitions), str(result.seed))

    write_tsv(rows(), path)
