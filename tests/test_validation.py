"""Stratified folds, undersampling, stratified sampling, cross-validation."""

import logging
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eldiff.learn import models, validation
from eldiff.learn.dataset import Dataset
from eldiff.learn.metrics import evaluate
from eldiff.learn.models import GaussianNBModel, LogisticRegressionModel, train
from eldiff.learn.validation import (
    cross_validate,
    stratified_kfold,
    stratified_sample,
    undersample,
)
from eldiff.rand import derive_seed
from test_models import oracle_lr_fit


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
# Cross-validation grows the trees of all folds together and fits their
# logistic regressions in one descent. The oracle is the loop it replaced: one
# ``train`` per fold on that fold's training subset.


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


def fitted_bytes(model):
    """The bytes of every array a model fitted."""
    if isinstance(model, LogisticRegressionModel):
        arrays = [model.weights, model.bias, model.mu, model.sigma]
    elif isinstance(model, GaussianNBModel):
        arrays = [model.priors, model.means, model.variances,
                  *model.cat_probs.values(), *model.cat_unseen.values()]
    else:
        return [tree_bytes(t) for t in trees_of(model)]
    return [a.tobytes() for a in arrays]


def check_folds(dataset, variant, k, balanced, seed, **hyper):
    """cross_validate equals the oracle fold by fold: every fitted array,
    every generator's final state and every report. Returns the fold
    models."""
    result, fitted, states = recorded(lambda: cross_validate(
        dataset, variant, k=k, balanced=balanced, seed=seed, **hyper))
    (oracle, oracle_reports), _, oracle_states = recorded(lambda: oracle_cross_validate(
        dataset, variant, k, balanced, seed, **hyper))
    assert len(fitted) == len(oracle) == k
    for model, expected in zip(fitted, oracle):
        assert type(model) is type(expected)
        assert fitted_bytes(model) == fitted_bytes(expected)
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
                                                                   "bootstrap": False}),
                                                ("gaussian_nb", {}),
                                                ("logistic_regression", {}),
                                                ("logistic_regression", {"learning_rate": 50.0,
                                                                         "max_iter": 60})])
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
        variant = data.draw(st.sampled_from(["gaussian_nb", "logistic_regression",
                                             "decision_tree", "random_forest"]), label="variant")
        hyper = {}
        if variant == "random_forest":
            hyper = {"n_trees": data.draw(st.integers(1, 3), label="trees"),
                     "max_features": data.draw(st.integers(1, n_features), label="max_features")}
        elif variant == "logistic_regression":
            hyper = {"max_iter": data.draw(st.integers(0, 40), label="max_iter"),
                     "learning_rate": data.draw(st.sampled_from([0.5, 50.0]), label="rate")}
        check_folds(dataset, variant, k, data.draw(st.booleans(), label="balanced"),
                    data.draw(st.integers(0, 2 ** 32 - 1), label="seed"), **hyper)


def descents(monkeypatch):
    """The number of fits in each descent made from now on."""
    groups = []
    real = models._descend

    def descend(fits, problems):
        groups.append(len(fits))
        return real(fits, problems)

    monkeypatch.setattr(models, "_descend", descend)
    return groups


class TestFoldDescent:
    def test_fits_that_stop_differently_descend_together(self, monkeypatch):
        dataset = coarse_dataset(np.random.default_rng(9))
        rng = np.random.default_rng(10)
        settings = [{"tol": 10.0},            # stops before its first step
                    {"learning_rate": 50.0},  # rejected steps halve the rate
                    {"max_iter": 5},          # hits the cap
                    {"learning_rate": 1e-16},  # the rate is under 1e-15 from the start
                    {"max_iter": 300},
                    {"l2": 0.5, "max_iter": 40}]
        fits = [(LogisticRegressionModel(dataset.columns, dataset.categories, **hyper),
                 np.sort(rng.choice(len(dataset), size=90 + 10 * i, replace=False)))
                for i, hyper in enumerate(settings)]
        groups = descents(monkeypatch)
        fitted = list(models._descents(dataset, fits))
        assert groups == [len(settings)]
        stops = []
        for model, (_, rows), hyper in zip(fitted, fits, settings):
            oracle, iterations, rate = oracle_lr_fit(
                LogisticRegressionModel(dataset.columns, dataset.categories, **hyper),
                dataset.subset(rows))
            assert fitted_bytes(model) == fitted_bytes(oracle)
            stops.append((iterations, rate))
        assert stops[0] == (0, 0.5)
        assert stops[1][1] < 50.0
        assert stops[2][0] == 5
        assert stops[3] == (0, 1e-16)
        assert 5 < stops[4][0] <= 300 and stops[4][0] != stops[1][0]

    def test_folds_over_the_budget_descend_in_several_groups(self, monkeypatch):
        dataset = coarse_dataset(np.random.default_rng(4))
        sizes = [train_idx.size for train_idx, _ in
                 stratified_kfold(dataset.y, 6, derive_seed(2, "folds"))]
        assert 3 * min(sizes) > 2 * max(sizes)
        groups = descents(monkeypatch)
        # any two folds fit in this budget, and no three
        monkeypatch.setattr(models, "_DESCENT_ROWS", 2 * max(sizes))
        check_folds(dataset, "logistic_regression", 6, False, 2, max_iter=50)
        assert groups == [2, 2, 2] + [1] * 6  # then the oracle's fits
        groups.clear()
        # a fold over the budget descends alone
        monkeypatch.setattr(models, "_DESCENT_ROWS", 1)
        check_folds(dataset, "logistic_regression", 3, True, 2, max_iter=50)
        assert groups == [1] * 6


class TestFoldWarnings:
    def messages(self, caplog, run):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="eldiff"):
            run()
        return [r.getMessage() for r in caplog.records]

    def both(self, caplog, k, **hyper):
        """The warnings of cross_validate and of the oracle's fold-by-fold fits."""
        dataset = coarse_dataset(np.random.default_rng(12))
        return (self.messages(caplog, lambda: cross_validate(
                    dataset, "logistic_regression", k=k, seed=3, **hyper)),
                self.messages(caplog, lambda: oracle_cross_validate(
                    dataset, "logistic_regression", k, False, 3, **hyper)))

    @pytest.mark.parametrize("hyper, stop", [
        ({"max_iter": 5}, "max_iter after 5 iterations"),
        ({"learning_rate": 1e-16}, "step-size underflow after 0 iterations"),
    ])
    def test_every_capped_fold_warns_in_fold_order(self, caplog, hyper, stop):
        messages, expected = self.both(caplog, 4, **hyper)
        assert messages == expected
        assert len(messages) == 4
        for message in messages:
            assert message.startswith(f"logistic regression stopped at {stop} without reaching "
                                      "tol 1e-06 (gradient norm ")
        # one norm per fold, so the order shows
        assert len(set(messages)) == 4

    def test_only_capped_folds_warn(self, caplog):
        _, capped = self.both(caplog, 5, max_iter=30)
        norms = sorted(float(re.search(r"gradient norm (\S+)\)", m).group(1)) for m in capped)
        assert norms[0] < norms[-1]
        # a tol between the folds' gradient norms after 30 iterations
        messages, expected = self.both(caplog, 5, max_iter=30, tol=(norms[0] * norms[-1]) ** 0.5)
        assert messages == expected
        assert 0 < len(messages) < 5


class TestFoldRefusals:
    def refusal(self, run):
        with pytest.raises(ValueError) as caught:
            run()
        return str(caught.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("variant", ["gaussian_nb", "logistic_regression", "decision_tree",
                                         "random_forest"])
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
                                                ("random_forest", {"n_trees": 0}),
                                                ("gaussian_nb", {"max_iter": 3}),
                                                ("logistic_regression", {"n_trees": 3})])
    def test_bad_hyperparameters(self, variant, hyper):
        dataset = coarse_dataset(np.random.default_rng(6))
        message = self.refusal(lambda: cross_validate(dataset, variant, k=3, **hyper))
        assert message == self.refusal(lambda: oracle_cross_validate(dataset, variant, 3, False,
                                                                     0, **hyper))
        assert message.count(next(iter(hyper))) == 1

    def test_fold_rows_must_be_sorted(self):
        dataset = coarse_dataset(np.random.default_rng(7))
        rows = np.arange(100)[::-1]
        with pytest.raises(ValueError, match="sorted"):
            list(models.train_folds(dataset, "decision_tree", [rows], [0]))
