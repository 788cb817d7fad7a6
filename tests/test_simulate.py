"""Oracle-feedback simulation: selection, correction and accuracy arithmetic,
and the code-column join against the dict path it replaced."""

import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eldiff import simulate
from eldiff.consensus import Label, LabelledRows, MentionCodes
from eldiff.errors import MalformedRecordError
from eldiff.cli import main
from eldiff.simulate import (
    KeyedRows,
    SimulationPool,
    Strategy,
    accuracy,
    apply_feedback,
    budget_from_fraction,
    run_simulation,
    select_mentions,
)
from eldiff.rand import derive_seed
from simulate_oracle import gold_entries, lexsort_pick, oracle_simulate, pool_from_mappings


def key(i):
    return ("d1", i, f"m{i}")


def make_world(n=40, wrong=10, seed=0):
    """One system with `wrong` incorrect links; HARD labels on the wrong ones."""
    rng = np.random.default_rng(seed)
    keys = [key(i) for i in range(n)]
    gold = {k: "G" for k in keys}
    wrong_set = set(rng.choice(n, size=wrong, replace=False).tolist())
    choices = {k: ("W" if i in wrong_set else "G") for i, k in enumerate(keys)}
    labels = {k: (Label.HARD if i in wrong_set else Label.EASY) for i, k in enumerate(keys)}
    return keys, gold, choices, labels


class TestAccuracy:
    def test_eight_of_ten(self):
        gold = {key(i): "G" for i in range(10)}
        choices = {key(i): ("G" if i < 8 else "W") for i in range(10)}
        assert accuracy(choices, gold) == 0.8

    def test_all_correct(self):
        gold = {key(i): "G" for i in range(5)}
        assert accuracy({key(i): "G" for i in range(5)}, gold) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy({}, {})

    def test_missing_gold_entry_named(self):
        gold = {key(0): "G"}
        with pytest.raises(KeyError, match="m1"):
            accuracy({key(0): "G", key(1): "G"}, gold)


class TestSelectMentions:
    def test_enough_hard_available(self):
        labels = {key(i): Label.HARD for i in range(30)}
        labels.update({key(i): Label.MEDIUM for i in range(30, 60)})
        pool = sorted(labels)
        selected = select_mentions(Strategy.DIFFICULT, 20, pool, labels=labels, seed=1)
        assert len(selected) == 20
        assert all(labels[k] is Label.HARD for k in selected)

    def test_fill_up_with_medium(self):
        labels = {key(i): Label.HARD for i in range(10)}
        labels.update({key(i): Label.MEDIUM for i in range(10, 40)})
        pool = sorted(labels)
        selected = select_mentions(Strategy.DIFFICULT, 25, pool, labels=labels, seed=1)
        assert len(selected) == 25
        hard = [k for k in selected if labels[k] is Label.HARD]
        medium = [k for k in selected if labels[k] is Label.MEDIUM]
        assert len(hard) == 10 and len(medium) == 15

    def test_selection_capped_at_pool(self):
        labels = {key(i): Label.HARD for i in range(3)}
        labels.update({key(i): Label.MEDIUM for i in range(3, 5)})
        selected = select_mentions(Strategy.DIFFICULT, 99, sorted(labels), labels=labels, seed=0)
        assert len(selected) == 5

    def test_candidates_strategy(self):
        pool = [key(i) for i in range(4)]
        cand = {key(0): 9, key(1): 7, key(2): 7, key(3): 1}
        for seed in range(10):
            selected = select_mentions(Strategy.CANDIDATES, 2, pool, cand_counts=cand, seed=seed)
            assert key(0) in selected
            assert len(selected & {key(1), key(2)}) == 1

    def test_random_uniform_over_pool(self):
        pool = [key(i) for i in range(50)]
        selected = select_mentions(Strategy.RANDOM, 10, pool, seed=3)
        assert len(selected) == 10 and selected <= set(pool)

    def test_deterministic_per_seed(self):
        pool = [key(i) for i in range(50)]
        a = select_mentions(Strategy.RANDOM, 10, pool, seed=5)
        b = select_mentions(Strategy.RANDOM, 10, pool, seed=5)
        assert a == b

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            select_mentions(Strategy.RANDOM, -1, [key(0)], seed=0)


class TestApplyFeedback:
    def test_empty_selection_unchanged(self):
        keys, gold, choices, _ = make_world()
        assert apply_feedback(choices, set(), gold) == choices

    def test_select_everything_gives_perfect_accuracy(self):
        keys, gold, choices, _ = make_world()
        corrected = apply_feedback(choices, set(keys), gold)
        assert accuracy(corrected, gold) == 1.0

    def test_accuracy_gain_is_wrong_selected_over_total(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            keys, gold, choices, _ = make_world(n=30, wrong=8, seed=trial)
            selected = set(k for k in keys if rng.random() < 0.4)
            before = accuracy(choices, gold)
            corrected = apply_feedback(choices, selected, gold)
            after = accuracy(corrected, gold)
            wrong_selected = sum(1 for k in selected if choices[k] != gold[k])
            assert after - before == pytest.approx(wrong_selected / len(keys), abs=1e-12)

    def test_unknown_selection_rejected(self):
        keys, gold, choices, _ = make_world()
        with pytest.raises(KeyError):
            apply_feedback(choices, {("dX", 0, "nope")}, gold)


class TestBudgets:
    def test_reference_budget_counts(self):
        # 5/10/15 percent of 2,471 evaluated mentions
        assert budget_from_fraction(2471, 0.05) == 124
        assert budget_from_fraction(2471, 0.10) == 247
        assert budget_from_fraction(2471, 0.15) == 371


class TestRunSimulation:
    def _setup(self, seed=0):
        keys, gold, choices, labels = make_world(n=40, wrong=10, seed=seed)
        systems = {"sysA": choices, "sysB": {k: "G" for k in keys}}
        return systems, gold, labels

    def test_oracle_monotonicity(self):
        systems, gold, labels = self._setup()
        result = run_simulation(pool_from_mappings(systems, gold, labels),
                                budgets=[5, 10, 20], repetitions=5, seed=1)
        for system in result.systems:
            for strategy in result.strategies:
                for budget in result.budgets:
                    outcome = result.outcome(system, strategy, budget)
                    assert outcome.mean_after >= result.before[system]
                    assert all(v >= result.before[system] for v in outcome.per_repetition)

    def test_determinism(self):
        systems, gold, labels = self._setup()
        pool = pool_from_mappings(systems, gold, labels)
        a = run_simulation(pool, budgets=[5, 10], repetitions=4, seed=7)
        b = run_simulation(pool, budgets=[5, 10], repetitions=4, seed=7)
        assert a == b

    def test_difficult_beats_random_when_hard_marks_errors(self):
        systems, gold, labels = self._setup()
        result = run_simulation(pool_from_mappings(systems, gold, labels),
                                budgets=[4, 8], repetitions=10, seed=3)
        for budget in result.budgets:
            difficult = result.outcome("sysA", Strategy.DIFFICULT, budget).mean_after
            random = result.outcome("sysA", Strategy.RANDOM, budget).mean_after
            assert difficult >= random

    def test_mentions_outside_gold_excluded(self):
        keys, gold, choices, labels = make_world(n=10, wrong=2)
        extra = ("d1", 999, "extra")
        choices[extra] = "X"
        labels[extra] = Label.HARD
        systems = {"sysA": choices}
        result = run_simulation(pool_from_mappings(systems, gold, labels),
                                budgets=[2], repetitions=2, seed=0)
        assert result.n_evaluated == 10

    def test_pred_difficult_uses_predictions(self):
        keys, gold, choices, labels = make_world(n=30, wrong=6)
        predictions = {k: Label.MEDIUM for k in keys}
        systems = {"sysA": choices}
        result = run_simulation(
            pool_from_mappings(systems, gold, labels, predictions=predictions),
            budgets=[6], repetitions=3, seed=2,
        )
        assert Strategy.PRED_DIFFICULT in result.strategies

    def test_no_common_gold_mentions_rejected(self):
        gold = {("other", 0, "x"): "G"}
        pool = pool_from_mappings({"s": {key(0): "G"}}, gold, {key(0): Label.EASY})
        assert len(pool) == 0
        with pytest.raises(ValueError, match="the simulation pool is empty"):
            run_simulation(pool, budgets=[1])

    def test_repeated_system_name_refused(self):
        # each system's wrong links would land under one name
        empty = np.empty(0, dtype=np.intp)
        labelled = LabelledRows(empty, np.empty(0, dtype=np.int8), empty, [])
        message = r"^system names must be distinct, got \['a', 'b', 'a'\]$"
        with pytest.raises(ValueError, match=message):
            SimulationPool.from_columns(MentionCodes(), ["a", "b", "a"], labelled,
                                        KeyedRows(empty, empty))


class TestBudgetMonotonicity:
    def test_random_mean_improvement_nondecreasing_in_budget(self):
        # statistical check over 120 seeds with one-standard-error slack
        keys, gold, choices, _ = make_world(n=50, wrong=15, seed=4)
        before = accuracy(choices, gold)
        budgets = (5, 15, 30)
        gains = {n: [] for n in budgets}
        for seed in range(120):
            for n in budgets:
                selected = select_mentions(Strategy.RANDOM, n, sorted(keys), seed=seed)
                after = accuracy(apply_feedback(choices, selected, gold), gold)
                gains[n].append(after - before)
        for small, large in zip(budgets, budgets[1:]):
            mean_small = np.mean(gains[small])
            mean_large = np.mean(gains[large])
            stderr = np.std(gains[large]) / np.sqrt(len(gains[large]))
            assert mean_large >= mean_small - stderr


def _reference_select(strategy, n, pool, labels=None, cand_counts=None, seed=0):
    """Selection over Python lists, one pass over the pool per call: the
    reference for the draws the indexed selection must reproduce."""
    rng = np.random.default_rng(seed)
    pool = list(pool)

    def draw(items, size):
        if size >= len(items):
            return list(items)
        return [items[i] for i in rng.choice(len(items), size=size, replace=False)]

    if strategy in (Strategy.DIFFICULT, Strategy.PRED_DIFFICULT):
        hard = [k for k in pool if labels.get(k) is Label.HARD]
        medium = [k for k in pool if labels.get(k) is Label.MEDIUM]
        selected = draw(hard, min(n, len(hard)))
        if len(selected) < n:
            selected += draw(medium, min(n - len(selected), len(medium)))
        return set(selected)
    if strategy is Strategy.RANDOM:
        return set(draw(pool, min(n, len(pool))))
    tie = rng.permutation(len(pool))
    ranked = sorted(range(len(pool)), key=lambda i: (-cand_counts.get(pool[i], 0), tie[i]))
    return {pool[i] for i in ranked[:n]}


def _reference_run(system_choices, gold, labels, budgets, predictions, cand_counts,
                   strategies, repetitions, seed):
    """run_simulation as a loop over select_mentions, apply_feedback and
    accuracy, copying every system's links for every repetition."""
    common = set.intersection(*(set(c) for c in system_choices.values()))
    pool = sorted(k for k in common if k in gold)
    evaluated = {s: {k: c[k] for k in pool} for s, c in system_choices.items()}
    before = {s: accuracy(evaluated[s], gold) for s in system_choices}
    after = {}
    for strategy in strategies:
        strategy_labels = predictions if strategy is Strategy.PRED_DIFFICULT else labels
        for budget_index, budget in enumerate(budgets):
            per_system = {s: [] for s in system_choices}
            for rep in range(repetitions):
                selected = select_mentions(
                    strategy, budget, pool, labels=strategy_labels, cand_counts=cand_counts,
                    seed=derive_seed(seed, strategy.value, budget_index, rep),
                )
                for s in system_choices:
                    per_system[s].append(accuracy(apply_feedback(evaluated[s], selected, gold), gold))
            for s, values in per_system.items():
                after[(s, strategy.value, budget)] = (
                    float(np.mean(values)), float(np.std(values)), tuple(values))
    return len(pool), before, after


def _equivalence_world(seed):
    """Three systems over 60 gold mentions plus 5 outside gold; few HARD
    labels (so larger budgets top up from MEDIUM), candidate counts with
    many ties, and predictions missing for a fifth of the pool."""
    rng = np.random.default_rng(seed)
    keys = [key(i) for i in range(60)]
    gold = {k: "G" for k in keys}
    outside = [("d2", i, f"x{i}") for i in range(5)]
    systems = {
        name: {k: ("G" if rng.random() < p else "W") for k in keys + outside}
        for name, p in (("sysA", 0.5), ("sysB", 0.8), ("sysC", 0.95))
    }
    classes = (Label.HARD, Label.MEDIUM, Label.EASY)
    labels = {k: classes[i] for k, i in zip(keys + outside, rng.choice(3, 65, p=[0.1, 0.3, 0.6]))}
    predictions = {k: classes[int(rng.integers(3))] for k in keys if rng.random() < 0.8}
    cand_counts = {k: int(rng.integers(0, 4)) for k in keys if rng.random() < 0.9}
    return systems, gold, labels, predictions, cand_counts


class TestIndexedSimulationEquivalence:
    """The indexed selection and the count-based accuracy reproduce the
    list-based selection and the copy-and-rescan loop exactly."""

    STRATEGIES = (Strategy.DIFFICULT, Strategy.PRED_DIFFICULT, Strategy.RANDOM,
                  Strategy.CANDIDATES)

    def test_select_mentions_matches_list_reference(self):
        systems, gold, labels, predictions, cand_counts = _equivalence_world(0)
        pool = sorted(gold.keys())
        for strategy in self.STRATEGIES:
            strategy_labels = predictions if strategy is Strategy.PRED_DIFFICULT else labels
            for n in (0, 1, 3, 6, 20, 59, 60, 61, 200):
                for seed in range(15):
                    args = (strategy, n, pool, strategy_labels, cand_counts, seed)
                    assert select_mentions(*args) == _reference_select(*args), (strategy, n, seed)

    @pytest.mark.parametrize("world_seed", [0, 1, 2])
    def test_run_simulation_matches_reference_loop(self, world_seed):
        systems, gold, labels, predictions, cand_counts = _equivalence_world(world_seed)
        budgets = [0, 2, 7, 15, 30, 60, 100]
        pool = pool_from_mappings(systems, gold, labels, predictions, cand_counts)
        result = run_simulation(pool, budgets, repetitions=6, seed=world_seed)
        n, before, after = _reference_run(systems, gold, labels, budgets, predictions,
                                          cand_counts, self.STRATEGIES, 6, world_seed)
        assert result.n_evaluated == n == 60
        assert result.before == before
        assert {key: (o.mean_after, o.std_after, o.per_repetition)
                for key, o in result.after.items()} == after

    def test_default_strategies_match_reference_loop(self):
        systems, gold, labels, predictions, cand_counts = _equivalence_world(5)
        pool = pool_from_mappings(systems, gold, labels, predictions, cand_counts)
        result = run_simulation(pool, [4, 12], repetitions=3, seed=11)
        assert result.strategies == self.STRATEGIES
        _, before, after = _reference_run(systems, gold, labels, [4, 12], predictions,
                                          cand_counts, self.STRATEGIES, 3, 11)
        assert result.before == before
        assert {key: (o.mean_after, o.std_after, o.per_repetition)
                for key, o in result.after.items()} == after


class TestReadGold:
    def test_read(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("d1\t10\tParis\tparis\nd1\t20\tBonn\tBonn\n", encoding="utf-8")
        assert gold_entries(path) == {("d1", 10, "Paris"): "Paris", ("d1", 20, "Bonn"): "Bonn"}

    def test_conflicting_duplicate_names_its_line(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("\nd1\t10\tParis\tA\n\nd1\t10\tParis\ta\nd1\t10\tParis\tB\n",
                        encoding="utf-8")
        with pytest.raises(MalformedRecordError) as exc:
            gold_entries(path)
        assert exc.value.line_number == 5
        assert str(exc.value) == \
            "line 5: conflicting gold entries for mention ('d1', 10, 'Paris')"


# --- the CANDIDATES pick ----------------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(counts=st.lists(st.sampled_from([0, 1, 2, 3, 10 ** 15]), min_size=1, max_size=30),
       seed=st.integers(0, 2 ** 32))
def test_argpartition_pick_selects_the_lexsort_set(counts, seed):
    counts = np.array(counts, dtype=np.int64)
    size = len(counts)
    select = simulate._selector(Strategy.CANDIDATES, size, None, counts)
    for n in (0, 1, size - 1, size, size + 1):
        expected = lexsort_pick(-counts, n, np.random.default_rng(seed))
        picked = select(n, seed)
        assert len(picked) == min(n, size)
        assert sorted(picked.tolist()) == sorted(expected.tolist())


# --- the code-column join against the dict path -------------------------------------
# Small field pools make duplicate keys, agreeing and conflicting gold lines,
# keys outside gold and missing predictions common. Doc ids and surfaces
# differ only in case, are all digits or hold astral code points.

JOIN_DOCS = ["d1", "D1", "1984", "0", "\U0001F600"]
JOIN_OFFSETS = ["0", "7", "12", "100000000000000000000"]
JOIN_SURFACES = ["Paris", "paris", "12", "\U00010348 x", ""]
JOIN_ENTITIES = ["E1", "e1", "E2", "Gone", "Ent minister"]
JOIN_LABELS = ["HARD", "MEDIUM", "EASY"]
join_keys = st.tuples(st.sampled_from(JOIN_DOCS), st.sampled_from(JOIN_OFFSETS),
                      st.sampled_from(JOIN_SURFACES)).map("\t".join)
#: Lines each reader refuses, drawn rarely: bad offsets, labels, entity
#: counts and ids, and short lines.
ODD_LABELS = ["d1\t07\tParis\tHARD\tE1,E2,E1", "d1\t7\tParis\thard\tE1,E2,E1",
              "d1\t7\tParis\tHARD\tE1,E2", "d1\t7\tParis\tHARD\tE1", "d1\t7\tParis"]
ODD_GOLD = ["d1\t07\tParis\tE1", "d1\t7\tParis\t ", "d1\t7\tParis"]
ODD_PREDICTIONS = ["d1\t7 \tParis\tHARD", "d1\t7\tParis\tHard\t1", "d1\t7"]


def rarely(draw, lines, odd):
    """The lines with, now and then, one odd line put among them."""
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(odd)))
    return lines


def file_text(draw, lines):
    """The lines as a file, with blank lines drawn in between."""
    return "".join("\n" * draw(st.integers(0, 1)) + line + "\n" for line in lines)


@st.composite
def simulate_inputs(draw):
    keys = draw(st.lists(join_keys, min_size=1, max_size=12))
    keys += draw(st.lists(st.sampled_from(keys), max_size=4))  # repeated keys
    labels = [f"{key}\t{draw(st.sampled_from(JOIN_LABELS))}\t"
              + ",".join(draw(st.lists(st.sampled_from(JOIN_ENTITIES), min_size=3, max_size=3)))
              for key in keys]
    gold_keys = [key for key in keys if draw(st.integers(0, 4))]
    gold_keys += draw(st.lists(join_keys, max_size=4))
    entity = {key: draw(st.sampled_from(JOIN_ENTITIES)) for key in gold_keys}
    gold = [f"{key}\t{entity[key]}" for key in gold_keys]
    if gold_keys and draw(st.integers(0, 4)) == 0:  # a conflicting duplicate
        key = draw(st.sampled_from(gold_keys))
        other = draw(st.sampled_from(JOIN_ENTITIES))
        gold.insert(draw(st.integers(0, len(gold))), f"{key}\t{other}")
    files = {"labels": file_text(draw, rarely(draw, labels, ODD_LABELS)),
             "gold": file_text(draw, rarely(draw, gold, ODD_GOLD))}
    options = {}
    if draw(st.booleans()):
        predicted = [k for k in keys if draw(st.integers(0, 3))]
        predicted += draw(st.lists(join_keys, max_size=3))
        files["predictions"] = file_text(draw, rarely(draw, [
            f"{k}\t{draw(st.sampled_from(JOIN_LABELS))}" + "\t0.5" * draw(st.integers(0, 3))
            for k in predicted], ODD_PREDICTIONS))
    if draw(st.booleans()):
        counts = draw(st.dictionaries(st.sampled_from(JOIN_SURFACES[:4]), st.integers(1, 3)))
        files["candidates"] = file_text(draw, [f"{s}\t{c}" for s, c in counts.items()])
    if draw(st.booleans()):
        files["redirects"] = draw(st.sampled_from(["Gone\tE2\n", "E1\tRenamed\nGone\te1\n"]))
    if draw(st.integers(0, 3)) == 0:
        options["systems"] = draw(st.sampled_from(["a,b,c", "a,b"]))
    options["fractions"] = draw(st.sampled_from([[0.5, 1, 0], [0.1], [3, 0.9]]))
    options["seed"] = draw(st.integers(0, 1000))
    return files, options


class _Errors(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(inputs=simulate_inputs())
def test_column_join_matches_the_dict_path(inputs):
    files, options = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {}
        for name, text in files.items():
            paths[name] = tmp / f"{name}.tsv"
            paths[name].write_text(text, encoding="utf-8")
        argv = ["simulate", "--labels", paths["labels"], "--gold", paths["gold"],
                "--budgets", ",".join(map(str, options["fractions"])), "--repetitions", 2,
                "--seed", options["seed"], "--out", tmp / "columns"]
        for name in ("predictions", "candidates", "redirects"):
            if name in paths:
                argv += [f"--{name}", paths[name]]
        if "systems" in options:
            argv += ["--systems", options["systems"]]
        try:
            oracle_simulate(tmp / "dicts", paths["labels"], paths["gold"], options["fractions"],
                            candidates=paths.get("candidates"),
                            predictions=paths.get("predictions"),
                            systems=options.get("systems"), redirects=paths.get("redirects"),
                            repetitions=2, seed=options["seed"])
            refusal = None
        except Exception as exc:
            refusal = str(exc)
        errors = _Errors()
        logger = logging.getLogger("eldiff")
        logger.addHandler(errors)
        try:
            status = main([str(a) for a in argv])
        finally:
            logger.removeHandler(errors)
        if refusal is not None:
            assert (status, errors.messages) == (2, [refusal])
            assert not (tmp / "columns").exists()
            return
        assert (status, errors.messages) == (0, [])
        for name in ("simulation.tsv", "simulation_panels.tsv"):
            assert (tmp / "columns" / name).read_bytes() == (tmp / "dicts" / name).read_bytes()
