"""Classifier correctness against independent oracles."""

import io
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eldiff.cli import main
from eldiff.consensus import CLASS_ORDER, Label
from eldiff.errors import CorruptModelError, UnsupportedVersionError
from eldiff.features import FeatureSchema, FeatureTable
from eldiff.learn.dataset import N_CLASSES, Dataset, dataset_from_table
from eldiff.learn.models import (
    LogisticRegressionModel,
    RandomForestModel,
    _Tree,
    _softmax,
    load_model,
    save_model,
    softmax_loss_and_grads,
    train,
)


def make_dataset(x, y, categories=None, columns=None):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    columns = tuple(columns) if columns else tuple(f"f{i}" for i in range(x.shape[1]))
    return Dataset(columns, x, y, categories or {})


def leaf_tree(counts):
    """A single-leaf tree with the given class counts."""
    return _Tree(feature=np.array([-1]), threshold=np.array([0.0]), category=np.array([-1]),
                 left=np.array([-1]), right=np.array([-1]),
                 counts=np.array([counts], dtype=np.float64), gain=np.array([0.0]))


# --- independent oracles -----------------------------------------------------


def oracle_entropy(labels) -> float:
    labels = np.asarray(labels)
    n = labels.shape[0]
    acc = 0.0
    for c in range(3):
        count = int(np.sum(labels == c))
        if count:
            p = count / n
            acc += p * math.log2(p)
    return -acc


def oracle_best_split(x, y):
    """Exhaustive enumeration of every (feature, midpoint) split."""
    n, n_features = x.shape
    parent = oracle_entropy(y)
    best = None
    for f in range(n_features):
        values = sorted(set(x[:, f]))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2
            left = y[x[:, f] <= threshold]
            right = y[x[:, f] > threshold]
            gain = parent - (len(left) / n) * oracle_entropy(left) - (len(right) / n) * oracle_entropy(right)
            if best is None or gain > best[0]:
                best = (gain, f, threshold)
    return best


def oracle_softmax_loss_and_grads(weights, bias, x, y_onehot, l2):
    """The training step as it was written with numpy's row reductions."""
    logits = x @ weights.T + bias
    logits = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(logits).sum(axis=1, keepdims=True))
    log_p = logits - log_norm
    n = x.shape[0]
    loss = -(y_onehot * log_p).sum() / n + 0.5 * l2 * (weights ** 2).sum()
    residual = (np.exp(log_p) - y_onehot) / n
    grad_w = residual.T @ x + l2 * weights
    grad_b = residual.sum(axis=0)
    return loss, grad_w, grad_b


def oracle_lr_fit(self, dataset):
    """LogisticRegressionModel.fit as it was written, without its closing
    warning, on the oracle step."""
    x, y = dataset.x, dataset.y
    cat_sizes = dataset.cat_sizes()
    self.cont_idx = [j for j in range(x.shape[1]) if j not in cat_sizes]
    self.cat_layout = sorted(cat_sizes.items())
    cont = x[:, self.cont_idx]
    self.mu = cont.mean(axis=0) if self.cont_idx else np.zeros(0)
    sigma = cont.std(axis=0) if self.cont_idx else np.zeros(0)
    self.sigma = np.where(sigma > 0, sigma, 1.0)
    design = self._design(x)
    y_onehot = np.zeros((len(y), N_CLASSES))
    y_onehot[np.arange(len(y)), y] = 1.0
    self.weights = np.zeros((N_CLASSES, design.shape[1]))
    self.bias = np.zeros(N_CLASSES)
    lr = self.learning_rate
    loss, grad_w, grad_b = oracle_softmax_loss_and_grads(self.weights, self.bias, design, y_onehot, self.l2)
    iterations = 0
    while iterations < self.max_iter:
        grad_norm = math.sqrt((grad_w ** 2).sum() + (grad_b ** 2).sum())
        if grad_norm < self.tol or lr < 1e-15:
            break
        iterations += 1
        new_w = self.weights - lr * grad_w
        new_b = self.bias - lr * grad_b
        new_loss, new_gw, new_gb = oracle_softmax_loss_and_grads(new_w, new_b, design, y_onehot, self.l2)
        if new_loss > loss:
            lr *= 0.5
            continue
        self.weights, self.bias = new_w, new_b
        loss, grad_w, grad_b = new_loss, new_gw, new_gb
    return self, iterations, lr


def oracle_softmax(scores):
    """Row-wise softmax with numpy's row reductions, as both predictors had it."""
    scores = scores - scores.max(axis=1, keepdims=True)
    p = np.exp(scores)
    return p / p.sum(axis=1, keepdims=True)


# --- Gaussian naive Bayes ----------------------------------------------------


class TestGaussianNB:
    def test_posterior_matches_closed_form(self):
        # 4 rows, 1 feature, classes HARD and EASY; hand-computable Gaussians
        x = [[1.0], [2.0], [5.0], [7.0]]
        y = [0, 0, 2, 2]
        model = train(make_dataset(x, y), "gaussian_nb")
        query = 2.5

        # hand computation: priors 1/2; HARD mean 1.5 var 0.25; EASY mean 6 var 1
        def pdf(v, mean, var):
            return math.exp(-((v - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)

        hard = 0.5 * pdf(query, 1.5, 0.25)
        easy = 0.5 * pdf(query, 6.0, 1.0)
        expected = np.array([hard / (hard + easy), 0.0, easy / (hard + easy)])
        probs = model.predict_proba(np.array([[query]]))[0]
        np.testing.assert_allclose(probs, expected, atol=1e-9)

    def test_categorical_smoothing_by_hand(self):
        # one categorical feature with 2 categories; add-one smoothing
        x = [[0.0], [1.0], [0.0]]
        y = [0, 0, 2]
        ds = make_dataset(x, y, categories={"f0": ("A", "B")})
        model = train(ds, "gaussian_nb")
        # P(H)=2/3, P(E)=1/3; P(A|H)=(1+1)/(2+2)=1/2; P(A|E)=(1+1)/(1+2)=2/3
        hard = (2 / 3) * (1 / 2)
        easy = (1 / 3) * (2 / 3)
        expected = np.array([hard, 0.0, easy]) / (hard + easy)
        probs = model.predict_proba(np.array([[0.0]]))[0]
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_unseen_category_gets_smoothed_mass(self):
        ds = make_dataset([[0.0], [1.0], [0.0]], [0, 0, 2], categories={"f0": ("A", "B")})
        model = train(ds, "gaussian_nb")
        probs = model.predict_proba(np.array([[-1.0]]))[0]
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs >= 0)

    def test_zero_variance_floored(self):
        ds = make_dataset([[3.0], [3.0], [4.0], [4.0]], [0, 0, 2, 2])
        model = train(ds, "gaussian_nb")
        assert np.all(model.variances > 0)


# --- logistic regression -----------------------------------------------------


class TestLogisticRegression:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(20):
            n, d = int(rng.integers(4, 10)), int(rng.integers(2, 5))
            x = rng.normal(size=(n, d))
            y = rng.integers(0, 3, size=n)
            y_onehot = np.zeros((n, 3))
            y_onehot[np.arange(n), y] = 1.0
            weights = rng.normal(size=(3, d))
            bias = rng.normal(size=3)
            _, grad_w, grad_b = softmax_loss_and_grads(weights, bias, x, y_onehot, 1e-8)
            for index in np.ndindex(weights.shape):
                bump = np.zeros_like(weights)
                bump[index] = h
                hi = softmax_loss_and_grads(weights + bump, bias, x, y_onehot, 1e-8)[0]
                lo = softmax_loss_and_grads(weights - bump, bias, x, y_onehot, 1e-8)[0]
                numeric = (hi - lo) / (2 * h)
                assert abs(numeric - grad_w[index]) <= 1e-5 * max(1.0, abs(numeric))
            for i in range(3):
                bump = np.zeros(3)
                bump[i] = h
                hi = softmax_loss_and_grads(weights, bias + bump, x, y_onehot, 1e-8)[0]
                lo = softmax_loss_and_grads(weights, bias - bump, x, y_onehot, 1e-8)[0]
                numeric = (hi - lo) / (2 * h)
                assert abs(numeric - grad_b[i]) <= 1e-5 * max(1.0, abs(numeric))

    def test_separable_blobs_learned(self):
        rng = np.random.default_rng(3)
        centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        x = np.vstack([rng.normal(c, 0.3, size=(30, 2)) for c in centers])
        y = np.repeat([0, 1, 2], 30)
        model = train(make_dataset(x, y), "logistic_regression")
        accuracy = float(np.mean(model.predict_codes(x) == y))
        assert accuracy >= 0.95

    def test_one_hot_for_categorical(self):
        x = [[0.0], [1.0], [0.0], [1.0]]
        y = [0, 2, 0, 2]
        ds = make_dataset(x, y, categories={"f0": ("A", "B")})
        model = train(ds, "logistic_regression")
        assert model.predict_codes(np.array([[0.0], [1.0]])).tolist() == [0, 2]

    def test_non_convergence_warned(self, caplog):
        rng = np.random.default_rng(4)
        ds = make_dataset(rng.normal(size=(40, 3)), rng.integers(0, 3, size=40))
        with caplog.at_level(logging.WARNING, logger="eldiff"):
            capped = train(ds, "logistic_regression", max_iter=5)
            train(ds, "logistic_regression", learning_rate=1e-16)
            train(ds, "logistic_regression", tol=10.0)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        assert messages[0].startswith("logistic regression stopped at max_iter after 5 iterations "
                                      "without reaching tol 1e-06 (gradient norm ")
        assert messages[1].startswith("logistic regression stopped at step-size underflow after 0 "
                                      "iterations")
        # the warning changes nothing that is fitted
        again = train(ds, "logistic_regression", max_iter=5)
        assert again.weights.tobytes() == capped.weights.tobytes()


def _bytes(*arrays_):
    return [np.asarray(a).tobytes() for a in arrays_]


# Small integers make ties for the row maximum common; the bias offsets put
# logits near +-700, where a class's exp underflows to 0.
_values = st.one_of(st.integers(-3, 3).map(float),
                    st.floats(-5, 5, allow_nan=False, allow_infinity=False))


@st.composite
def softmax_steps(draw):
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    x = draw(arrays(np.float64, (n, d), elements=_values))
    weights = draw(arrays(np.float64, (3, d), elements=_values))
    bias = draw(arrays(np.float64, 3, elements=_values))
    bias += np.array(draw(st.lists(st.sampled_from([0.0, 700.0, -700.0]), min_size=3, max_size=3)))
    classes = draw(st.sampled_from([(0, 1, 2), (0, 2), (1, 2), (1,)]))
    y = np.array(draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n)))
    y_onehot = np.zeros((n, 3))
    y_onehot[np.arange(n), y] = 1.0
    return weights, bias, x, y_onehot, draw(st.sampled_from([0.0, 1e-8, 0.5]))


class TestLogisticRegressionBits:
    """The column-wise step and softmax against the row-reduction oracles,
    byte for byte."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(step=softmax_steps())
    def test_step_equals_oracle(self, step):
        assert (_bytes(*softmax_loss_and_grads(*step))
                == _bytes(*oracle_softmax_loss_and_grads(*step)))

    @pytest.mark.parametrize("bias, l2", [
        ([0.0, 0.0, 0.0], 0.0),            # every row a three-way tie
        ([700.0, -700.0, 700.0], 0.0),     # near +-700, tied at the top
        ([-700.0, -700.0, 0.5], 1e-8),
    ])
    def test_single_row_equals_oracle(self, bias, l2):
        step = (np.zeros((3, 2)), np.array(bias), np.array([[1.5, -2.0]]),
                np.array([[0.0, 1.0, 0.0]]), l2)
        assert (_bytes(*softmax_loss_and_grads(*step))
                == _bytes(*oracle_softmax_loss_and_grads(*step)))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(scores=st.integers(1, 12).flatmap(lambda n: arrays(
        np.float64, (n, 3), elements=st.one_of(_values, st.just(-np.inf), st.just(700.0)))))
    def test_softmax_equals_oracle(self, scores):
        # naive Bayes gives a class of prior 0 a log score of -inf, never a whole row
        scores[:, 1] = np.where(np.isinf(scores).all(axis=1), 0.0, scores[:, 1])
        expected = oracle_softmax(scores)
        assert _softmax(scores.copy()).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("hyperparams, unseen", [
        ({}, False),                       # the default: runs to max_iter
        ({"tol": 1e-2}, False),            # stops on tol
        ({"learning_rate": 50.0}, False),  # rejected steps halve the rate
        ({}, True),                        # a category that training never saw
    ])
    def test_fit_and_predict_equal_oracle(self, hyperparams, unseen):
        rng = np.random.default_rng(29)
        n = 60
        cats = rng.integers(0, 3 if unseen else 4, size=n).astype(np.float64)
        x = np.column_stack([rng.normal(size=(n, 3)), cats])
        y = rng.integers(0, 3, size=n)
        ds = make_dataset(x, y, categories={"f3": ("A", "B", "C", "D")})
        model = LogisticRegressionModel(ds.columns, ds.categories, **hyperparams).fit(ds)
        oracle, iterations, lr = oracle_lr_fit(
            LogisticRegressionModel(ds.columns, ds.categories, **hyperparams), ds)
        if "tol" in hyperparams:
            assert iterations < oracle.max_iter
        if "learning_rate" in hyperparams:
            assert lr < hyperparams["learning_rate"]
        assert _bytes(model.weights, model.bias) == _bytes(oracle.weights, oracle.bias)
        queries = x.copy()
        if unseen:
            queries[:5, 3] = [3.0, 3.0, -1.0, -1.0, 3.0]
        expected = oracle_softmax(oracle._design(queries) @ oracle.weights.T + oracle.bias)
        assert model.predict_proba(queries).tobytes() == expected.tobytes()


# --- decision tree -----------------------------------------------------------


class TestDecisionTree:
    def test_xor_learned_exactly(self):
        base_x = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        base_y = [2, 0, 0, 2]
        x = np.array(base_x * 10)
        y = np.array(base_y * 10)
        model = train(make_dataset(x, y), "decision_tree")
        assert np.array_equal(model.predict_codes(x), y)

    def test_first_split_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(8, 65))
            n_features = int(rng.integers(2, 5))
            x = rng.integers(0, 2, size=(n, n_features)).astype(np.float64)
            y = rng.integers(0, 3, size=n)
            if len(set(y.tolist())) < 2:
                continue
            model = train(make_dataset(x, y), "decision_tree")
            expected = oracle_best_split(x, y)
            if expected is None:
                assert model.tree.feature[0] == -1
                continue
            assert model.tree.feature[0] == expected[1]
            assert model.tree.threshold[0] == expected[2]

    def test_categorical_single_category_split(self):
        x = [[0.0], [1.0], [2.0], [1.0]]
        y = [0, 2, 0, 2]
        ds = make_dataset(x, y, categories={"f0": ("A", "B", "C")})
        model = train(ds, "decision_tree")
        assert model.tree.category[0] == 1
        # unseen category routes to the not-equal branch
        probs = model.predict_proba(np.array([[-1.0]]))[0]
        assert probs[0] == 1.0

    def test_pure_leaf_probability_one(self):
        model = train(make_dataset([[0.0], [0.0], [1.0], [1.0]], [0, 0, 2, 2]), "decision_tree")
        np.testing.assert_array_equal(model.predict_proba(np.array([[0.0]]))[0], [1.0, 0.0, 0.0])

    def test_constant_feature_yields_leaf(self):
        model = train(make_dataset([[5.0], [5.0], [5.0]], [0, 2, 2]), "decision_tree")
        assert model.tree.feature[0] == -1


# --- random forest -----------------------------------------------------------


class TestRandomForest:
    def test_single_tree_no_bootstrap_equals_decision_tree(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(60, 4))
        y = rng.integers(0, 3, size=60)
        ds = make_dataset(x, y)
        tree = train(ds, "decision_tree")
        forest = train(ds, "random_forest", n_trees=1, max_features=4, bootstrap=False)
        query = rng.normal(size=(20, 4))
        np.testing.assert_array_equal(tree.predict_proba(query), forest.predict_proba(query))

    def test_forest_averaging_and_tie_break(self):
        model = RandomForestModel(("f0",), {}, n_trees=2)
        model.trees = [leaf_tree([1.0, 0.0, 0.0]), leaf_tree([0.0, 1.0, 0.0])]
        x = np.array([[0.0]])
        np.testing.assert_allclose(model.predict_proba(x), [[0.5, 0.5, 0.0]])
        assert [CLASS_ORDER[c] for c in model.predict_codes(x)] == [Label.HARD]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, size=40)
        ds = make_dataset(x, y)
        a = train(ds, "random_forest", seed=9, n_trees=8)
        b = train(ds, "random_forest", seed=9, n_trees=8)
        query = rng.normal(size=(10, 3))
        np.testing.assert_array_equal(a.predict_proba(query), b.predict_proba(query))

    @pytest.mark.parametrize("hyper", [{"n_trees": 0}, {"n_trees": -3}, {"n_trees": 2.0},
                                       {"n_trees": True}, {"max_features": 0},
                                       {"max_features": 1.5}])
    def test_hyperparameters_below_one_or_not_integers_rejected(self, hyper):
        ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 2, 2])
        with pytest.raises(ValueError, match=next(iter(hyper))):
            train(ds, "random_forest", seed=1, **hyper)


@pytest.fixture
def forest_file(tmp_path):
    """A saved two-tree forest and its JSON payload."""
    rng = np.random.default_rng(12)
    ds = make_dataset(rng.normal(size=(40, 3)), rng.integers(0, 3, size=40))
    path = tmp_path / "model.json"
    save_model(train(ds, "random_forest", seed=3, n_trees=2), path)
    return path, json.loads(path.read_text(encoding="utf-8"))


class TestForestFile:
    @pytest.mark.parametrize("fields", [
        {"n_trees": 7}, {"trees": []}, {"trees": [], "n_trees": 0}, {"n_trees": 2.0},
        {"n_trees": True}, {"max_features": 0}, {"max_features": 2.5}, {"max_features": "2"},
        {"trees": {}},
    ])
    def test_bad_forest_fields_refused(self, forest_file, fields):
        path, payload = forest_file
        payload["random_forest"].update(fields)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CorruptModelError):
            load_model(path)

    @pytest.mark.parametrize("max_features", [None, 1, 3])
    def test_good_forest_fields_load(self, forest_file, max_features):
        path, payload = forest_file
        payload["random_forest"]["max_features"] = max_features
        path.write_text(json.dumps(payload), encoding="utf-8")
        model = load_model(path)
        assert (model.n_trees, len(model.trees), model.max_features) == (2, 2, max_features)


@pytest.fixture(scope="module")
def linear_files(tmp_path_factory):
    """A feature table on disk, and a naive Bayes and a logistic regression
    model trained on it without the temporal columns, so that ``d_topic``
    (two topics) is column 8: the paths of the table and of each model."""
    rng = np.random.default_rng(5)
    n = 60
    labels = [CLASS_ORDER[c] for c in rng.integers(0, 3, size=n)]
    m_len = rng.integers(3, 20, size=n).tolist()
    table = FeatureTable({
        "m_len": m_len, "m_words": [1] * n, "m_freq": rng.integers(1, 9, size=n).tolist(),
        "m_df": [2] * n, "m_cand": rng.integers(1, 5, size=n).tolist(),
        "m_pos": rng.uniform(0.0, 0.9, size=n).tolist(), "m_sent": m_len, "d_words": [40] * n,
        "d_topic": [("POLITICS", "SPORTS")[i % 2] for i in range(n)], "d_ents": [3] * n,
        "t_age": [1] * n, "t_df": [1] * n, "t_j_min": [None] * n, "t_j_max": [None] * n,
        "t_j_avg": [None] * n,
    }, labels)
    out = tmp_path_factory.mktemp("linear")
    table.write_csv(out / "features.csv")
    dataset = dataset_from_table(table, FeatureSchema.without_temporal())
    assert dataset.cat_sizes() == {8: 2}
    files = {"features": out / "features.csv"}
    for variant in ("gaussian_nb", "logistic_regression"):
        files[variant] = out / f"{variant}.json"
        save_model(train(dataset, variant), files[variant])
    return files


def _cat_probs(edit):
    return lambda body: body["cat_probs"].update(edit(body["cat_probs"].pop("8")))


LINEAR_EDITS = {
    "nb_rows_cut_to_one_entry": ("gaussian_nb", _cat_probs(lambda p: {"8": [r[:1] for r in p]})),
    "nb_rows_cut_to_no_entry": ("gaussian_nb", _cat_probs(lambda p: {"8": [[] for _ in p]})),
    "nb_keyed_by_column_99": ("gaussian_nb", _cat_probs(lambda p: {"99": p})),
    "lr_cat_layout_8_1": ("logistic_regression", lambda b: b.update(cat_layout=[[8, 1]])),
    "nb_nan_mean": ("gaussian_nb", lambda b: b["means"][0].__setitem__(0, math.nan)),
    "nb_zero_variance": ("gaussian_nb", lambda b: b["variances"][1].__setitem__(2, 0.0)),
    "nb_negative_probability": ("gaussian_nb", lambda b: b["cat_unseen"]["8"].__setitem__(0, -1)),
    "nb_cont_idx": ("gaussian_nb", lambda b: b["cont_idx"].pop()),
    "nb_cat_probs_a_list": ("gaussian_nb", lambda b: b.update(cat_probs=[])),
    "lr_weights_one_short": ("logistic_regression", lambda b: b["weights"][2].pop()),
    "lr_infinite_bias": ("logistic_regression", lambda b: b["bias"].__setitem__(1, math.inf)),
    "lr_zero_sigma": ("logistic_regression", lambda b: b["sigma"].__setitem__(0, 0.0)),
}


class TestLinearModelFiles:
    """The naive Bayes and logistic regression bodies must fit the layout
    that the file's own columns and categories give."""

    def corrupt(self, linear_files, tmp_path, edit):
        variant, change = LINEAR_EDITS[edit]
        payload = json.loads(linear_files[variant].read_text(encoding="utf-8"))
        change(payload[variant])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    @pytest.mark.parametrize("variant", ["gaussian_nb", "logistic_regression"])
    def test_saved_files_predict(self, linear_files, tmp_path, variant):
        assert main(["predict", "--model", str(linear_files[variant]), "--features",
                     str(linear_files["features"]), "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "predictions.tsv").read_text(encoding="utf-8").splitlines()) == 60

    @pytest.mark.parametrize("edit", sorted(LINEAR_EDITS))
    def test_corrupt_body_refused(self, linear_files, tmp_path, edit):
        with pytest.raises(CorruptModelError):
            load_model(self.corrupt(linear_files, tmp_path, edit))

    @pytest.mark.parametrize("edit", sorted(LINEAR_EDITS))
    def test_cli_predict_on_corrupt_body_exits_error(self, linear_files, tmp_path, caplog, edit):
        path = self.corrupt(linear_files, tmp_path, edit)
        with caplog.at_level(logging.ERROR, logger="eldiff"):
            assert main(["predict", "--model", str(path), "--features",
                         str(linear_files["features"]), "--out", str(tmp_path / "out")]) == 2
        assert len(caplog.records) == 1 and "model" in caplog.records[0].getMessage()
        assert not (tmp_path / "out" / "predictions.tsv").exists()


# --- shared contracts --------------------------------------------------------


VARIANT_NAMES = ("gaussian_nb", "logistic_regression", "decision_tree", "random_forest")


class TestSharedContracts:
    @pytest.fixture
    def dataset(self):
        rng = np.random.default_rng(11)
        x = np.hstack([rng.normal(size=(45, 2)), rng.integers(0, 3, size=(45, 1)).astype(float)])
        y = np.repeat([0, 1, 2], 15)
        return make_dataset(x, y, categories={"f2": ("A", "B", "C")})

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_probability_vectors_valid(self, dataset, variant):
        kwargs = {"n_trees": 5} if variant == "random_forest" else {}
        model = train(dataset, variant, seed=1, **kwargs)
        probs = model.predict_proba(dataset.x)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_save_load_roundtrip(self, dataset, variant, tmp_path):
        kwargs = {"n_trees": 5} if variant == "random_forest" else {}
        model = train(dataset, variant, seed=1, **kwargs)
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        rng = np.random.default_rng(2)
        query = np.hstack([rng.normal(size=(100, 2)),
                           rng.integers(0, 3, size=(100, 1)).astype(float)])
        np.testing.assert_allclose(model.predict_proba(query), again.predict_proba(query),
                                   atol=1e-12)
        assert np.array_equal(model.predict_codes(query), again.predict_codes(query))

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_file_equals_pure_python_encoder(self, dataset, variant, tmp_path):
        kwargs = {"n_trees": 5} if variant == "random_forest" else {}
        path = tmp_path / "model.json"
        save_model(train(dataset, variant, seed=1, **kwargs), path)
        text = path.read_text(encoding="utf-8")
        # json.dump is the writer the file used to come from
        old = io.StringIO()
        json.dump(json.loads(text), old)
        assert text == old.getvalue() + "\n"

    def test_truncated_file_is_corrupt(self, dataset, tmp_path):
        model = train(dataset, "gaussian_nb")
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_unknown_version_rejected(self, dataset, tmp_path):
        model = train(dataset, "gaussian_nb")
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(UnsupportedVersionError):
            load_model(path)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train(make_dataset([[1.0], [2.0]], [0, 0]), "gaussian_nb")

    def test_nan_features_rejected(self):
        with pytest.raises(ValueError,
                           match="dataset contains NaN features; impute before training"):
            train(make_dataset([[1.0], [np.nan]], [0, 2]), "gaussian_nb")

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    @pytest.mark.parametrize("inf", [np.inf, -np.inf])
    def test_infinite_features_rejected(self, variant, inf):
        # a midpoint next to inf is inf, so tree growth on this table never ended
        ds = make_dataset([[0.0], [1.0], [inf], [inf]], [0, 0, 1, 2])
        with pytest.raises(ValueError, match="infinite features"):
            train(ds, variant, n_trees=2) if variant == "random_forest" else train(ds, variant)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_unknown_hyperparameters_rejected(self, dataset, variant):
        with pytest.raises(ValueError, match=f"{variant} takes no hyperparameter threads, zeta"):
            train(dataset, variant, seed=1, zeta=0.5, threads=4)

    def test_accepted_hyperparameters_reach_the_model(self, dataset):
        assert train(dataset, "random_forest", seed=1, n_trees=3).n_trees == 3
        assert train(dataset, "logistic_regression", max_iter=7).max_iter == 7

    def test_predict_tie_breaks_hard_first(self):
        model = RandomForestModel(("f0",), {}, n_trees=1)
        model.trees = [leaf_tree([2.0, 2.0, 1.0])]
        x = np.array([[0.0]])
        np.testing.assert_allclose(model.predict_proba(x), [[0.4, 0.4, 0.2]])
        assert [CLASS_ORDER[c] for c in model.predict_codes(x)] == [Label.HARD]

    def test_schema_mismatch_rejected(self, dataset):
        model = train(dataset, "gaussian_nb")
        with pytest.raises(ValueError):
            model.predict_proba(np.zeros((2, 5)))
