"""MDI feature importance and Pearson correlation."""

import numpy as np
import pytest

from eldiff.learn.analysis import mdi, pearson_matrix
from eldiff.learn.dataset import Dataset
from eldiff.learn.models import RandomForestModel, _Tree, train


def make_dataset(x, y, categories=None, columns=None):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    columns = tuple(columns) if columns else tuple(f"f{i}" for i in range(x.shape[1]))
    return Dataset(columns, x, y, categories or {})


def threshold_labels(signal):
    # deterministic 3-class threshold function of the signal feature
    return np.where(signal < -0.4, 0, np.where(signal < 0.5, 1, 2))


class TestMdi:
    def test_signal_feature_ranks_first(self):
        rng = np.random.default_rng(0)
        signal = rng.normal(size=300)
        noise = rng.normal(size=(300, 2))
        x = np.column_stack([signal, noise])
        y = threshold_labels(signal)
        forest = train(make_dataset(x, y, columns=("signal", "n1", "n2")),
                       "random_forest", seed=1, n_trees=20)
        result = mdi(forest)
        assert result.ranking()[0][0] == "signal"
        assert result.normalized[0] == 1.0

    def test_single_node_trees_have_zero_importance(self):
        forest = RandomForestModel(("f0", "f1"), {}, n_trees=3)
        forest.trees = [
            _Tree(feature=np.array([-1]), threshold=np.array([0.0]), category=np.array([-1]),
                  left=np.array([-1]), right=np.array([-1]),
                  counts=np.array([[2.0, 1.0, 1.0]]), gain=np.array([0.0]))
            for _ in range(3)
        ]
        result = mdi(forest)
        np.testing.assert_array_equal(result.scores, [0.0, 0.0])
        np.testing.assert_array_equal(result.normalized, [0.0, 0.0])

    def test_scores_nonnegative_and_unused_features_zero(self):
        rng = np.random.default_rng(4)
        signal = rng.normal(size=200)
        constant = np.zeros(200)
        x = np.column_stack([signal, constant])
        y = threshold_labels(signal)
        forest = train(make_dataset(x, y, columns=("signal", "constant")),
                       "random_forest", seed=2, n_trees=10)
        result = mdi(forest)
        assert np.all(result.scores >= 0)
        assert result.scores[1] == 0.0  # constant feature is never split on

    def test_duplicated_feature_splits_importance(self):
        # importance of a duplicated feature splits between the twins: their
        # sum stays within 20% of the importance the feature earns alone
        rng = np.random.default_rng(7)
        signal = rng.normal(size=400)
        noise = rng.normal(size=400)
        y = threshold_labels(signal)

        alone = train(make_dataset(np.column_stack([signal, noise]), y,
                                   columns=("signal", "noise")),
                      "random_forest", seed=3, n_trees=30)
        alone_score = mdi(alone).scores[0]

        twins = train(make_dataset(np.column_stack([signal, signal, noise]), y,
                                   columns=("signal_a", "signal_b", "noise")),
                      "random_forest", seed=3, n_trees=30)
        twin_scores = mdi(twins).scores
        combined = twin_scores[0] + twin_scores[1]
        assert combined == pytest.approx(alone_score, rel=0.2)

    def test_unfitted_forest_rejected(self):
        forest = RandomForestModel(("f0",), {})
        with pytest.raises(ValueError):
            mdi(forest)


class TestPearson:
    def test_affine_dependence_is_exactly_one(self):
        x = np.arange(10, dtype=np.float64)
        ds = make_dataset(np.column_stack([x, 2 * x + 3]), np.zeros(10, dtype=int))
        result = pearson_matrix(ds)
        assert abs(result.value("f0", "f1") - 1.0) < 1e-12
        assert result.matrix[0, 0] == 1.0 and result.matrix[1, 1] == 1.0

    def test_negation_is_minus_one(self):
        x = np.arange(8, dtype=np.float64)
        ds = make_dataset(np.column_stack([x, -x]), np.zeros(8, dtype=int))
        result = pearson_matrix(ds)
        assert abs(result.value("f0", "f1") + 1.0) < 1e-12

    def test_hand_computed_half(self):
        # x=(1,2,3), y=(1,3,2): cov=1/3, sd_x=sd_y=sqrt(2/3), r=0.5
        ds = make_dataset(np.array([[1.0, 1.0], [2.0, 3.0], [3.0, 2.0]]),
                          np.zeros(3, dtype=int))
        result = pearson_matrix(ds)
        assert abs(result.value("f0", "f1") - 0.5) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        ds = make_dataset(rng.normal(size=(30, 4)), np.zeros(30, dtype=int))
        result = pearson_matrix(ds)
        np.testing.assert_allclose(result.matrix, result.matrix.T, atol=0)

    def test_zero_variance_column_flagged(self):
        ds = make_dataset(np.column_stack([np.arange(5.0), np.full(5, 7.0)]),
                          np.zeros(5, dtype=int))
        result = pearson_matrix(ds)
        assert result.degenerate == ("f1",)
        assert np.isnan(result.value("f0", "f1"))

    def test_nominal_feature_excluded_by_default(self):
        x = np.column_stack([np.arange(6.0), np.zeros(6), np.arange(6.0) ** 2])
        ds = make_dataset(x, np.zeros(6, dtype=int),
                          categories={"f1": ("A", "B")})
        result = pearson_matrix(ds)
        assert result.columns == ("f0", "f2")

    def test_requesting_nominal_feature_rejected(self):
        ds = make_dataset(np.zeros((5, 2)), np.zeros(5, dtype=int),
                          categories={"f1": ("A",)})
        with pytest.raises(ValueError):
            pearson_matrix(ds, columns=("f0", "f1"))

    def test_fewer_than_two_rows_rejected(self):
        ds = make_dataset(np.zeros((1, 2)), np.zeros(1, dtype=int))
        with pytest.raises(ValueError):
            pearson_matrix(ds)
