"""Stratified folds, undersampling, stratified sampling, cross-validation."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eldiff.learn import models, validation
from eldiff.learn.dataset import Dataset
from eldiff.learn.metrics import evaluate
from eldiff.learn.models import train
from eldiff.learn.validation import (
    cross_validate,
    stratified_kfold,
    stratified_sample,
    undersample,
)
from eldiff.rand import derive_seed


def labels_with_counts(hard, medium, easy, seed=0):
    y = np.array([0] * hard + [1] * medium + [2] * easy)
    return np.random.default_rng(seed).permutation(y)


def make_dataset(x, y, categories=None):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    return Dataset(tuple(f"f{i}" for i in range(x.shape[1])), x, y, categories or {})


class TestStratifiedKfold:
    def test_exact_divisibility(self):
        y = labels_with_counts(10, 20, 70)
        for _, test in stratified_kfold(y, 10, seed=1):
            counts = np.bincount(y[test], minlength=3)
            assert counts.tolist() == [1, 2, 7]

    def test_partition_disjoint_and_exhaustive(self):
        y = labels_with_counts(13, 27, 60)
        splits = stratified_kfold(y, 7, seed=3)
        seen = np.concatenate([test for _, test in splits])
        assert sorted(seen.tolist()) == list(range(100))
        for train_idx, test_idx in splits:
            assert not set(train_idx) & set(test_idx)
            assert len(train_idx) + len(test_idx) == 100

    def test_proportions_within_one_instance(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            k = int(rng.integers(2, 8))
            counts = [int(rng.integers(k, 40)) for _ in range(3)]
            y = labels_with_counts(*counts, seed=trial)
            for _, test in stratified_kfold(y, k, seed=trial):
                fold_counts = np.bincount(y[test], minlength=3)
                for c in range(3):
                    assert abs(fold_counts[c] - counts[c] / k) < 1.0

    def test_deterministic(self):
        y = labels_with_counts(10, 10, 10)
        a = stratified_kfold(y, 5, seed=9)
        b = stratified_kfold(y, 5, seed=9)
        for (ta, sa), (tb, sb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(sa, sb)

    def test_class_smaller_than_k_rejected(self):
        y = labels_with_counts(9, 50, 50)
        with pytest.raises(ValueError, match="HARD"):
            stratified_kfold(y, 10, seed=0)


class TestUndersample:
    def test_reduces_to_minority_count(self):
        y = labels_with_counts(10, 50, 100)
        train_idx = np.arange(160)
        balanced = undersample(train_idx, y, seed=2)
        counts = np.bincount(y[balanced], minlength=3)
        assert counts.tolist() == [10, 10, 10]

    def test_already_balanced_is_identity(self):
        y = labels_with_counts(20, 20, 20)
        train_idx = np.arange(60)
        balanced = undersample(train_idx, y, seed=2)
        np.testing.assert_array_equal(balanced, train_idx)

    def test_never_touches_test_indices(self):
        y = labels_with_counts(12, 40, 80)
        splits = stratified_kfold(y, 4, seed=7)
        for fold, (train_idx, test_idx) in enumerate(splits):
            balanced = undersample(train_idx, y, seed=fold)
            assert set(balanced) <= set(train_idx)
            assert not set(balanced) & set(test_idx)
            # test fold keeps the global distribution
            fold_counts = np.bincount(y[test_idx], minlength=3)
            assert fold_counts.tolist() == [3, 10, 20]

    def test_subset_without_replacement(self):
        y = labels_with_counts(5, 9, 30)
        balanced = undersample(np.arange(44), y, seed=1)
        assert len(set(balanced.tolist())) == len(balanced) == 15


class TestStratifiedSample:
    def _dataset(self, hard, medium, easy, seed=0):
        y = labels_with_counts(hard, medium, easy, seed)
        x = np.arange(len(y), dtype=np.float64)[:, None]
        return make_dataset(x, y)

    def test_full_fraction_is_whole_dataset(self):
        ds = self._dataset(5, 10, 15)
        assert stratified_sample(ds, 1.0, seed=0) is ds

    def test_class_sizes_rounded_half_up(self):
        ds = self._dataset(1000, 100, 10)
        sample = stratified_sample(ds, 0.1, seed=4)
        counts = np.bincount(sample.y, minlength=3)
        assert counts.tolist() == [100, 10, 1]

    def test_ratios_preserved_within_rounding(self):
        ds = self._dataset(70, 21, 9)
        sample = stratified_sample(ds, 0.25, seed=4)
        counts = np.bincount(sample.y, minlength=3)
        assert counts.tolist() == [int(np.floor(70 * 0.25 + 0.5)),
                                   int(np.floor(21 * 0.25 + 0.5)),
                                   int(np.floor(9 * 0.25 + 0.5))]

    def test_fraction_out_of_range_rejected(self):
        ds = self._dataset(5, 5, 5)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                stratified_sample(ds, bad, seed=0)

    def test_deterministic(self):
        ds = self._dataset(40, 40, 40)
        a = stratified_sample(ds, 0.5, seed=8)
        b = stratified_sample(ds, 0.5, seed=8)
        np.testing.assert_array_equal(a.x, b.x)


class TestCrossValidate:
    def _separable(self, n_per_class=30, seed=0):
        rng = np.random.default_rng(seed)
        centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        x = np.vstack([rng.normal(c, 0.4, size=(n_per_class, 2)) for c in centers])
        y = np.repeat([0, 1, 2], n_per_class)
        return make_dataset(x, y)

    def test_pooled_report_covers_everything(self):
        ds = self._separable()
        result = cross_validate(ds, "decision_tree", k=5, seed=1)
        assert result.report.confusion.sum() == len(ds)
        assert len(result.fold_reports) == 5

    def test_separable_data_scores_high(self):
        ds = self._separable()
        result = cross_validate(ds, "decision_tree", k=5, seed=1)
        assert result.report.macro_f1 > 0.9

    def test_balanced_mode_equalizes_training_only(self):
        ds = self._separable()
        result = cross_validate(ds, "gaussian_nb", k=3, balanced=True, seed=2)
        assert result.balanced
        assert result.report.confusion.sum() == len(ds)

    def test_deterministic(self):
        ds = self._separable()
        a = cross_validate(ds, "random_forest", k=3, seed=5, n_trees=5)
        b = cross_validate(ds, "random_forest", k=3, seed=5, n_trees=5)
        np.testing.assert_array_equal(a.report.confusion, b.report.confusion)
        assert a.fold_macro_f1 == b.fold_macro_f1


# --- fold growth ------------------------------------------------------------------
# Cross-validation grows the trees of all folds together. The oracle is the
# loop it replaced: one ``train`` per fold on that fold's training subset.


def oracle_cross_validate(dataset, variant, k, balanced, seed, **hyper):
    """Each fold's model and test-fold report, fitted one fold at a time."""
    fitted, reports = [], []
    for f, (train_idx, test_idx) in enumerate(
            stratified_kfold(dataset.y, k, derive_seed(seed, "folds"))):
        if balanced:
            train_idx = undersample(train_idx, dataset.y, derive_seed(seed, "balance", f))
        model = train(dataset.subset(train_idx), variant, seed=derive_seed(seed, "fit", f),
                      **hyper)
        fitted.append(model)
        reports.append(evaluate(model.predict_codes(dataset.x[test_idx]), dataset.y[test_idx]))
    return fitted, reports


def recorded(run):
    """``run()``'s result, the fold models ``train_folds`` returned during it,
    and every generator made during it, by seed, in its final state."""
    made, folded = {}, []
    real_rng, real_folds = np.random.default_rng, validation.train_folds

    def rng(seed):
        made[seed] = real_rng(seed)
        return made[seed]

    def folds(*args, **kwargs):
        folded.extend(real_folds(*args, **kwargs))
        return folded

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", rng)
        mp.setattr(validation, "train_folds", folds)
        result = run()
    return result, folded, {s: g.bit_generator.state for s, g in made.items()}


def report_fields(report):
    # repr, so that two undefined (NaN) scores compare equal
    return report.confusion.tobytes(), repr([getattr(report, f.name) for f in fields(report)
                                             if f.name != "confusion"])


def trees_of(model):
    return model.trees if hasattr(model, "trees") else [model.tree]


def tree_bytes(tree):
    return [getattr(tree, f.name).tobytes() for f in fields(tree)]


def check_folds(dataset, variant, k, balanced, seed, **hyper):
    """cross_validate equals the oracle fold by fold: every tree array, every
    generator's final state and every report. Returns the fold models."""
    result, fitted, states = recorded(lambda: cross_validate(
        dataset, variant, k=k, balanced=balanced, seed=seed, **hyper))
    (oracle, oracle_reports), _, oracle_states = recorded(lambda: oracle_cross_validate(
        dataset, variant, k, balanced, seed, **hyper))
    assert len(fitted) == len(oracle) == k
    for model, expected in zip(fitted, oracle):
        assert type(model) is type(expected)
        assert ([tree_bytes(t) for t in trees_of(model)]
                == [tree_bytes(t) for t in trees_of(expected)])
    assert states == oracle_states
    assert ([report_fields(r) for r in result.fold_reports]
            == [report_fields(r) for r in oracle_reports])
    return fitted


def coarse_dataset(rng, n=150):
    """A categorical column, a coarse column whose values tie across most
    cuts, and a block of duplicate rows."""
    x = np.column_stack([np.round(rng.normal(size=n), 1), rng.integers(0, 4, size=n),
                         rng.normal(size=n)]).astype(np.float64)
    x[n // 2:n // 2 + 12] = x[n // 2]
    y = np.where(x[:, 0] + 0.4 * x[:, 1] + rng.normal(size=n) > 0.8, 2,
                 rng.integers(0, 2, size=n))
    return make_dataset(x, y, {"f1": tuple("abcd")})


class TestFoldGrowth:
    @pytest.mark.parametrize("balanced", [False, True])
    @pytest.mark.parametrize("variant, hyper", [("decision_tree", {}),
                                                ("random_forest", {"n_trees": 6}),
                                                ("random_forest", {"n_trees": 4,
                                                                   "max_features": 2}),
                                                ("random_forest", {"n_trees": 3,
                                                                   "bootstrap": False})])
    def test_folds_equal_fitting_each_alone(self, variant, hyper, balanced):
        dataset = coarse_dataset(np.random.default_rng(3))
        check_folds(dataset, variant, 5, balanced, 11, **hyper)

    @pytest.mark.parametrize("variant", ["decision_tree", "random_forest"])
    def test_midpoints_that_round_up(self, variant):
        # the cut between a and b has the midpoint b: a drawn tree recounts
        # the side it sends left, and a decision tree's node becomes a leaf
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        rng = np.random.default_rng(8)
        x = np.column_stack([rng.integers(0, 2, size=48), np.tile(np.repeat([a, b, 3.0], 8), 2)])
        y = np.tile(np.repeat([0, 1, 2], 8), 2)
        hyper = {"n_trees": 10, "max_features": 1} if variant == "random_forest" else {}
        fitted = check_folds(make_dataset(x, y), variant, 4, False, 8, **hyper)
        assert any(np.any(t.threshold[t.feature == 1] == b)
                   for model in fitted for t in trees_of(model))

    def test_folds_over_the_budget_grow_in_several_groups(self, monkeypatch):
        dataset = coarse_dataset(np.random.default_rng(4))
        groups = []
        real = models._grow_trees

        def grow(x, y, cat_sizes, weights, *args):
            groups.append(weights.shape[0])
            return real(x, y, cat_sizes, weights, *args)

        monkeypatch.setattr(models, "_grow_trees", grow)
        # a fold of 5 trees over 150 rows of 3 features, each tree on at most
        # 125 distinct rows: two folds fit in this budget, three do not
        monkeypatch.setattr(models, "_GROWTH_ELEMENTS", 2 * 5 * (3 * 125 + 150))
        check_folds(dataset, "random_forest", 6, False, 2, n_trees=5)
        assert groups == [10, 10, 10] + [5] * 6  # then the oracle's fits
        groups.clear()
        # a fold over the budget grows alone
        monkeypatch.setattr(models, "_GROWTH_ELEMENTS", 1)
        check_folds(dataset, "decision_tree", 3, True, 2)
        assert groups == [1] * 6

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_small_tables(self, data):
        k = data.draw(st.integers(2, 4), label="k")
        sizes = [data.draw(st.integers(0, 10), label=f"class {c}") for c in range(3)]
        sizes = [0 if s < k else s for s in sizes]
        if sum(1 for s in sizes if s) < 2:
            sizes[:2] = [k, k + 1]
        n_rows = sum(sizes)
        n_features = data.draw(st.integers(1, 3), label="features")
        coded = [j for j in range(n_features) if data.draw(st.booleans(), label=f"{j} coded")]
        columns = [
            data.draw(st.lists(st.integers(0, 2) if j in coded else
                               st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                               min_size=n_rows, max_size=n_rows), label=f"column {j}")
            for j in range(n_features)
        ]
        x = np.array(columns, dtype=np.float64).T
        y = np.random.default_rng(n_rows).permutation(np.repeat([0, 1, 2], sizes))
        dataset = make_dataset(x, y, {f"f{j}": ("a", "b", "c") for j in coded})
        forest = data.draw(st.booleans(), label="forest")
        hyper = ({"n_trees": data.draw(st.integers(1, 3), label="trees"),
                  "max_features": data.draw(st.integers(1, n_features), label="max_features")}
                 if forest else {})
        check_folds(dataset, "random_forest" if forest else "decision_tree", k,
                    data.draw(st.booleans(), label="balanced"),
                    data.draw(st.integers(0, 2 ** 32 - 1), label="seed"), **hyper)


class TestFoldRefusals:
    def refusal(self, run):
        with pytest.raises(ValueError) as caught:
            run()
        return str(caught.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("variant", ["decision_tree", "random_forest"])
    @pytest.mark.parametrize("balanced", [False, True])
    def test_non_finite_training_value(self, variant, bad, balanced):
        dataset = coarse_dataset(np.random.default_rng(5))
        # one EASY row, which undersampling keeps in some folds only
        dataset.x[np.flatnonzero(dataset.y == 2)[3], 2] = bad
        hyper = {"n_trees": 3} if variant == "random_forest" else {}
        message = self.refusal(lambda: cross_validate(dataset, variant, k=4, balanced=balanced,
                                                      seed=1, **hyper))
        assert message == self.refusal(lambda: oracle_cross_validate(dataset, variant, 4,
                                                                     balanced, 1, **hyper))
        assert message.startswith("dataset contains " + ("NaN" if bad != bad else "infinite"))

    @pytest.mark.parametrize("variant, hyper", [("decision_tree", {"n_trees": 3}),
                                                ("random_forest", {"depth": 3}),
                                                ("random_forest", {"n_trees": 0})])
    def test_bad_hyperparameters(self, variant, hyper):
        dataset = coarse_dataset(np.random.default_rng(6))
        message = self.refusal(lambda: cross_validate(dataset, variant, k=3, **hyper))
        assert message == self.refusal(lambda: oracle_cross_validate(dataset, variant, 3, False,
                                                                     0, **hyper))
        assert message.count("n_trees" if "n_trees" in hyper else "depth") == 1

    def test_fold_rows_must_be_sorted(self):
        dataset = coarse_dataset(np.random.default_rng(7))
        rows = np.arange(100)[::-1]
        with pytest.raises(ValueError, match="sorted"):
            list(models.train_folds(dataset, "decision_tree", [rows], [0]))
