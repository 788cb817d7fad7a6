"""The four difficulty classifiers, built from first principles.

Every model predicts a probability vector over (HARD, MEDIUM, EASY) that
sums to 1; argmax ties resolve to the earlier class in that order. Trees
split on information gain (entropy, base 2) with midpoint thresholds for
continuous features and single-category-vs-rest splits for categorical
ones; the forest draws a bootstrap sample and floor(log2(F))+1 candidate
features per split, with one RNG stream per tree derived from the seed.
"""

from __future__ import annotations

import inspect
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..consensus import CLASS_ORDER, Label
from ..errors import CorruptModelError, UnsupportedVersionError
from ..features import FeatureTable
from ..rand import derive_seed
from .dataset import Dataset, N_CLASSES, encode_table

VARIANTS = ("gaussian_nb", "logistic_regression", "decision_tree", "random_forest")

log = logging.getLogger(__name__)

_MODEL_FORMAT = "eldiff-classifier"
_MODEL_VERSION = 2
_VARIANCE_FLOOR = 1e-9


def _entropy(counts) -> np.ndarray:
    """Shannon entropy in bits of class-count vectors along the last axis."""
    counts = np.asarray(counts, dtype=np.float64)
    totals = counts.sum(axis=-1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    p = counts / safe
    logs = np.zeros_like(p)
    np.log2(p, out=logs, where=p > 0)
    return -(p * logs).sum(axis=-1)


class _Model:
    """Shared encode/predict plumbing; subclasses implement predict_proba."""

    variant: str = ""

    def __init__(self, columns: Sequence[str], categories: Mapping[str, tuple[str, ...]]):
        self.columns = tuple(columns)
        self.categories = {k: tuple(v) for k, v in categories.items()}

    def encode(self, table: FeatureTable) -> np.ndarray:
        return encode_table(table, self.columns, self.categories)

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != len(self.columns):
            raise ValueError(
                f"row has {x.shape[1]} features but the model expects {len(self.columns)}"
            )
        if np.isnan(x).any():
            raise ValueError("NaN feature value; impute missing values before predicting")
        return x

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict_codes(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=1)

    def predict_table(self, table: FeatureTable) -> tuple[list[Label], np.ndarray]:
        """Each row's label and the (rows x classes) probability matrix."""
        probs = self.predict_proba(self.encode(table))
        return [CLASS_ORDER[c] for c in np.argmax(probs, axis=1).tolist()], probs


def predict(model: _Model, row) -> tuple[Label, np.ndarray]:
    """Label and class-probability vector for one encoded row; ties go to
    the earlier class in (HARD, MEDIUM, EASY)."""
    probs = model.predict_proba(model._check(np.asarray(row, dtype=np.float64)))[0]
    return CLASS_ORDER[int(np.argmax(probs))], probs


# ---------------------------------------------------------------------------
# Softmax over the three classes

# numpy reduces along a length-3 row axis several times slower than it
# adds or compares whole columns, so the softmax below works column by
# column, in forms that give the same bits as the row reductions.


def _subtract_row_max(scores: np.ndarray) -> np.ndarray:
    """Subtract each row's maximum from the n x 3 ``scores`` in place, so
    the largest entry of every row is 0. The maximum is exact, so two
    column-wise ``np.maximum`` calls equal ``scores.max(axis=1)``."""
    row_max = np.maximum(scores[:, 0], scores[:, 1])
    np.maximum(row_max, scores[:, 2], out=row_max)
    scores -= row_max[:, None]
    return scores


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Row sums of the n x 3 ``a`` as ``(c0 + c1) + c2``: numpy's
    ``a.sum(axis=1)`` adds three columns left to right, so the bits match
    (the right-associated ``c0 + (c1 + c2)`` does not)."""
    total = a[:, 0] + a[:, 1]
    total += a[:, 2]
    return total


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the n x 3 ``scores``, computed in their buffer."""
    p = np.exp(_subtract_row_max(scores), out=scores)
    p /= _row_sum(p)[:, None]
    return p


# ---------------------------------------------------------------------------
# Gaussian naive Bayes


class GaussianNBModel(_Model):
    variant = "gaussian_nb"

    def fit(self, dataset: Dataset) -> "GaussianNBModel":
        x, y = dataset.x, dataset.y
        n = len(dataset)
        counts = dataset.class_counts().astype(np.float64)
        self.class_counts = counts
        self.priors = counts / n
        cat_sizes = dataset.cat_sizes()
        self.cont_idx = [j for j in range(x.shape[1]) if j not in cat_sizes]
        self.means = np.zeros((N_CLASSES, len(self.cont_idx)))
        self.variances = np.ones((N_CLASSES, len(self.cont_idx)))
        self.cat_probs: dict[int, np.ndarray] = {}
        self.cat_unseen: dict[int, np.ndarray] = {}
        for c in range(N_CLASSES):
            if counts[c] == 0:
                continue
            rows = x[y == c]
            if self.cont_idx:
                cont = rows[:, self.cont_idx]
                self.means[c] = cont.mean(axis=0)
                self.variances[c] = np.maximum(cont.var(axis=0), _VARIANCE_FLOOR)
        for j, k in cat_sizes.items():
            probs = np.zeros((N_CLASSES, k))
            unseen = np.zeros(N_CLASSES)
            for c in range(N_CLASSES):
                if counts[c] == 0:
                    continue
                codes = x[y == c, j].astype(np.int64)
                freq = np.bincount(codes[codes >= 0], minlength=k).astype(np.float64)
                probs[c] = (freq + 1.0) / (counts[c] + k)
                unseen[c] = 1.0 / (counts[c] + k)
            self.cat_probs[j] = probs
            self.cat_unseen[j] = unseen
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        log_post = np.full((x.shape[0], N_CLASSES), -np.inf)
        for c in range(N_CLASSES):
            if self.priors[c] == 0:
                continue
            lp = np.full(x.shape[0], math.log(self.priors[c]))
            if self.cont_idx:
                cont = x[:, self.cont_idx]
                var = self.variances[c]
                lp += (
                    -0.5 * np.log(2.0 * math.pi * var)
                    - (cont - self.means[c]) ** 2 / (2.0 * var)
                ).sum(axis=1)
            for j, probs in self.cat_probs.items():
                codes = x[:, j].astype(np.int64)
                # index -1 picks the appended unseen-category probability
                extended = np.append(probs[c], self.cat_unseen[j][c])
                lp += np.log(extended[codes])
            log_post[:, c] = lp
        return _softmax(log_post)


# ---------------------------------------------------------------------------
# Multinomial logistic regression


def softmax_loss_and_grads(weights, bias, x, y_onehot, l2):
    """Mean softmax cross-entropy with an L2 penalty on the weights only.

    Returns (loss, grad_weights, grad_bias); kept as a pure function so the
    finite-difference check exercises exactly the training gradient.
    """
    logits = x @ weights.T
    logits += bias
    log_p = _subtract_row_max(logits)
    log_p -= np.log(_row_sum(np.exp(log_p)))[:, None]
    n = x.shape[0]
    loss = -(y_onehot * log_p).sum() / n + 0.5 * l2 * (weights ** 2).sum()
    residual = np.exp(log_p, out=log_p)
    residual -= y_onehot
    residual /= n
    grad_w = residual.T @ x + l2 * weights
    # residual.sum(axis=0) adds the rows one after another; so does accumulate, faster
    grad_b = np.add.accumulate(residual.T, axis=1)[:, -1]
    return loss, grad_w, grad_b


class LogisticRegressionModel(_Model):
    variant = "logistic_regression"

    def __init__(self, columns, categories, l2: float = 1e-8,
                 learning_rate: float = 0.5, max_iter: int = 1000, tol: float = 1e-6):
        super().__init__(columns, categories)
        self.l2 = l2
        self.learning_rate = learning_rate
        self.max_iter = max_iter
        self.tol = tol

    def _design(self, x: np.ndarray) -> np.ndarray:
        """Standardized continuous columns followed by one-hot categorical
        blocks; unseen categories (code -1) one-hot to all zeros."""
        blocks = []
        if self.cont_idx:
            blocks.append((x[:, self.cont_idx] - self.mu) / self.sigma)
        for j, k in self.cat_layout:
            codes = x[:, j].astype(np.int64)
            onehot = np.zeros((x.shape[0], k))
            valid = codes >= 0
            onehot[np.nonzero(valid)[0], codes[valid]] = 1.0
            blocks.append(onehot)
        return np.hstack(blocks) if blocks else np.zeros((x.shape[0], 0))

    def fit(self, dataset: Dataset) -> "LogisticRegressionModel":
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
        loss, grad_w, grad_b = softmax_loss_and_grads(self.weights, self.bias, design, y_onehot, self.l2)
        iterations = 0
        while iterations < self.max_iter:
            grad_norm = math.sqrt((grad_w ** 2).sum() + (grad_b ** 2).sum())
            if grad_norm < self.tol or lr < 1e-15:
                break
            iterations += 1
            new_w = self.weights - lr * grad_w
            new_b = self.bias - lr * grad_b
            new_loss, new_gw, new_gb = softmax_loss_and_grads(new_w, new_b, design, y_onehot, self.l2)
            if new_loss > loss:
                lr *= 0.5
                continue
            self.weights, self.bias = new_w, new_b
            loss, grad_w, grad_b = new_loss, new_gw, new_gb
        grad_norm = math.sqrt((grad_w ** 2).sum() + (grad_b ** 2).sum())
        if not grad_norm < self.tol:
            log.warning("logistic regression stopped at %s after %d iterations without reaching "
                        "tol %g (gradient norm %.3g)",
                        "step-size underflow" if lr < 1e-15 else "max_iter", iterations,
                        self.tol, grad_norm)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        logits = self._design(x) @ self.weights.T
        logits += self.bias
        return _softmax(logits)


# ---------------------------------------------------------------------------
# Decision tree


@dataclass(frozen=True)
class _Tree:
    """One fitted tree as parallel per-node arrays; node 0 is the root.

    ``feature`` is -1 at a leaf. A split sends a row left when its value
    equals ``category`` (a categorical split) or, where ``category`` is -1,
    when it is at most ``threshold``. ``left`` and ``right`` are -1 at a
    leaf. ``counts`` holds the training class counts (nodes x 3) and
    ``gain`` the split's entropy decrease (0 at a leaf). Nodes are numbered
    in pre-order with the right child first, which is the order growth
    visits them and the order ``mdi`` sums them in.
    """

    feature: np.ndarray
    threshold: np.ndarray
    category: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    gain: np.ndarray


def _best_split(xt, y, pos, features, categorical, cat_sizes, node_counts, parent_h):
    """The best split of one node over the candidate ``features`` (sorted),
    or None: the first maximum of the gain in (feature, cut or category)
    order. ``pos`` holds the node's rows once per feature, each row sorted by
    that feature's value and then by row index. Returns (gain, feature,
    threshold, category, left class counts, left entropy, right entropy)."""
    n = pos.shape[1]
    best = None
    numeric = features[~categorical[features]]
    if numeric.size:
        rows = pos[numeric]
        xs = xt[numeric[:, None], rows]
        at, cut = np.nonzero(xs[:, 1:] != xs[:, :-1])
        if cut.size:
            prefix = np.cumsum(y[rows][..., None] == np.arange(N_CLASSES), axis=1)
            left = prefix[at, cut].astype(np.float64)
            n_left = (cut + 1).astype(np.float64)
            n_right = n - n_left
            entropies = _entropy(np.stack([left, node_counts - left]))
            gains = parent_h - (n_left / n) * entropies[0] - (n_right / n) * entropies[1]
            b = int(np.argmax(gains))
            k, c = at[b], cut[b]
            best = (float(gains[b]), int(numeric[k]), float((xs[k, c] + xs[k, c + 1]) / 2.0), -1,
                    left[b], float(entropies[0, b]), float(entropies[1, b]))
    for f in features[categorical[features]]:
        f = int(f)
        eq = xt[f, pos[f]] == np.arange(cat_sizes[f])[:, None]
        onehot = y[pos[f]][:, None] == np.arange(N_CLASSES)
        left = eq.astype(np.float64) @ onehot.astype(np.float64)
        n_left = left.sum(axis=1)
        codes = np.nonzero((n_left > 0) & (n_left < n))[0]
        if not codes.size:
            continue
        left, n_left = left[codes], n_left[codes]
        entropies = _entropy(np.stack([left, node_counts - left]))
        gains = parent_h - (n_left / n) * entropies[0] - ((n - n_left) / n) * entropies[1]
        b = int(np.argmax(gains))
        if best is None or gains[b] > best[0] or (gains[b] == best[0] and f < best[1]):
            best = (float(gains[b]), f, 0.0, int(codes[b]),
                    left[b], float(entropies[0, b]), float(entropies[1, b]))
    return best


def _grow_tree(x, y, cat_sizes, rng=None, max_features=None) -> _Tree:
    # Splits proceed while the node is impure and any usable candidate
    # exists, even at zero gain (parity splits like XOR have zero root gain
    # but become separable one level down). Children are strictly smaller,
    # so growth terminates. A midpoint can round up to the node's largest
    # value (two adjacent floats) or overflow to +-inf and send every row to
    # one side; without feature draws that node would split so forever, so it
    # becomes a leaf, while a forest's child draws again. Iterative to keep
    # deep trees off the Python recursion limit; a node is numbered when it
    # is popped, so a child's number is always greater than its parent's,
    # and the forest's feature draws follow that depth-first pop order.
    # The rows are sorted once per feature; every stacked node carries its
    # rows as a features x rows matrix in that order, which a split keeps
    # with one boolean gather. Children inherit their class counts and
    # entropy from the winning cut.
    n_features = x.shape[1]
    draw = max_features is not None and rng is not None and max_features < n_features
    categorical = np.zeros(n_features, dtype=bool)
    categorical[list(cat_sizes)] = True
    xt = np.ascontiguousarray(x.T)
    go_left = np.zeros(x.shape[0], dtype=bool)
    feature, threshold, category, left, right, counts, gain = [], [], [], [], [], [], []
    root_counts = np.bincount(y, minlength=N_CLASSES).astype(np.float64)
    # (rows per feature, class counts, entropy or None, the parent's left or right, parent)
    stack = [(np.argsort(xt, axis=1, kind="stable"), root_counts, None, None, 0)]
    while stack:
        pos, node_counts, parent_h, side, parent = stack.pop()
        node = len(feature)
        if side is not None:
            side[parent] = node
        feature.append(-1)
        threshold.append(0.0)
        category.append(-1)
        left.append(-1)
        right.append(-1)
        counts.append(node_counts)
        gain.append(0.0)
        if pos.shape[1] < 2 or np.count_nonzero(node_counts) <= 1:
            continue
        if parent_h is None:
            parent_h = float(_entropy(node_counts))
        if draw:
            features = np.sort(rng.choice(n_features, size=max_features, replace=False))
        else:
            features = np.arange(n_features)
        best = _best_split(xt, y, pos, features, categorical, cat_sizes, node_counts, parent_h)
        if best is None:
            continue
        (split_gain, feature[node], threshold[node], category[node],
         left_counts, left_h, right_h) = best
        rows = pos[0]
        col = xt[feature[node], rows]
        mask = (col == category[node]) if category[node] >= 0 else (col <= threshold[node])
        n_left = np.count_nonzero(mask)
        if n_left != left_counts.sum():
            # the midpoint of two adjacent floats rounded up to the upper one,
            # or overflowed to +-inf, so the split does not send left the
            # rows the cut counted
            if not draw and n_left in (0, rows.size):
                # every row goes one way: a child would be this node again
                feature[node], threshold[node], category[node] = -1, 0.0, -1
                continue
            left_counts = np.bincount(y[rows[mask]], minlength=N_CLASSES).astype(np.float64)
            left_h = right_h = None
        gain[node] = max(split_gain, 0.0)
        go_left[rows] = mask
        to_left = go_left[pos]
        stack.append((pos[to_left].reshape(n_features, -1), left_counts, left_h, left, node))
        stack.append((pos[~to_left].reshape(n_features, -1), node_counts - left_counts, right_h,
                      right, node))
    return _Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        category=np.array(category, dtype=np.int64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        counts=np.array(counts, dtype=np.float64).reshape(-1, N_CLASSES),
        gain=np.array(gain, dtype=np.float64),
    )


def _tree_probabilities(tree: _Tree, x: np.ndarray, out: np.ndarray) -> None:
    """Add the leaf distribution of every row to ``out``, moving all rows
    still at a split down one level per step."""
    node = np.zeros(x.shape[0], dtype=np.int64)
    active = np.nonzero(tree.feature[node] >= 0)[0]
    while active.size:
        at = node[active]
        values = x[active, tree.feature[at]]
        categorical = tree.category[at] >= 0
        go_left = np.where(categorical, values == tree.category[at], values <= tree.threshold[at])
        node[active] = np.where(go_left, tree.left[at], tree.right[at])
        active = active[tree.feature[node[active]] >= 0]
    leaf_counts = tree.counts[node]
    out += leaf_counts / leaf_counts.sum(axis=1, keepdims=True)


class DecisionTreeModel(_Model):
    variant = "decision_tree"

    def fit(self, dataset: Dataset) -> "DecisionTreeModel":
        self.tree = _grow_tree(dataset.x, dataset.y, dataset.cat_sizes())
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        probs = np.zeros((x.shape[0], N_CLASSES))
        _tree_probabilities(self.tree, x, probs)
        return probs


# ---------------------------------------------------------------------------
# Random forest


class RandomForestModel(_Model):
    variant = "random_forest"

    def __init__(self, columns, categories, n_trees: int = 100,
                 max_features: int | None = None, bootstrap: bool = True, seed: int = 0):
        super().__init__(columns, categories)
        self.n_trees = n_trees
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees: list[_Tree] = []

    def _resolved_max_features(self) -> int:
        if self.max_features is not None:
            return self.max_features
        return int(math.log2(len(self.columns))) + 1

    def fit(self, dataset: Dataset) -> "RandomForestModel":
        cat_sizes = dataset.cat_sizes()
        n = len(dataset)
        max_features = self._resolved_max_features()

        def build(tree_index: int) -> _Tree:
            rng = np.random.default_rng(derive_seed(self.seed, "tree", tree_index))
            rows = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            return _grow_tree(dataset.x[rows], dataset.y[rows], cat_sizes,
                              rng=rng, max_features=max_features)

        self.trees = [build(t) for t in range(self.n_trees)]
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise ValueError("the forest has no trees; fit it first")
        x = self._check(x)
        probs = np.zeros((x.shape[0], N_CLASSES))
        for tree in self.trees:
            _tree_probabilities(tree, x, probs)
        return probs / len(self.trees)


# ---------------------------------------------------------------------------
# Facade, persistence


_MODELS = {cls.variant: cls for cls in
           (GaussianNBModel, LogisticRegressionModel, DecisionTreeModel, RandomForestModel)}


def train(dataset: Dataset, variant: str, seed: int = 0, **hyperparams) -> _Model:
    """Fit one classifier variant on an (imputed) dataset; ``hyperparams``
    must all be arguments of the variant's constructor."""
    model_cls = _MODELS.get(variant)
    if model_cls is None:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    accepted = set(inspect.signature(model_cls).parameters) - {"columns", "categories"}
    unexpected = sorted(set(hyperparams) - accepted)
    if unexpected:
        raise ValueError(f"{variant} takes no hyperparameter {', '.join(unexpected)}")
    if np.isnan(dataset.x).any():
        raise ValueError("dataset contains NaN features; impute before training")
    if np.isinf(dataset.x).any():
        raise ValueError("dataset contains infinite features; replace them before training")
    if np.count_nonzero(dataset.class_counts()) < 2:
        raise ValueError("training needs at least 2 classes present")
    if model_cls is RandomForestModel:
        hyperparams["seed"] = seed
    return model_cls(dataset.columns, dataset.categories, **hyperparams).fit(dataset)


_TREE_FIELDS = ("feature", "threshold", "category", "left", "right", "counts", "gain")
_INDEX_FIELDS = ("feature", "category", "left", "right")


def _tree_to_json(tree: _Tree) -> dict:
    """A tree as one flat list per field; ``counts`` is row-major, 3 per node."""
    return {name: getattr(tree, name).ravel().tolist() for name in _TREE_FIELDS}


def _tree_from_json(payload: dict, n_columns: int) -> _Tree:
    """Rebuild a tree, refusing any array that could misroute a row, loop or
    divide by zero when predicting."""
    try:
        arrays = {name: np.array(payload[name], dtype=np.float64) for name in _TREE_FIELDS}
    except (TypeError, ValueError):
        raise CorruptModelError("a tree field is not a list of numbers") from None
    n = arrays["feature"].size
    if n == 0 or any(a.shape != ((N_CLASSES if name == "counts" else 1) * n,)
                     for name, a in arrays.items()):
        raise CorruptModelError("a tree's arrays are empty or differ in length")
    if not all(np.isfinite(a).all() for a in arrays.values()):
        raise CorruptModelError("a tree holds a non-finite threshold, count or gain")
    if any(np.any(arrays[name] % 1) for name in _INDEX_FIELDS):
        raise CorruptModelError("a tree holds a fractional feature, category or child index")
    for name in _INDEX_FIELDS:
        arrays[name] = arrays[name].astype(np.int64)
    arrays["counts"] = arrays["counts"].reshape(n, N_CLASSES)
    tree = _Tree(**arrays)
    split = tree.feature >= 0
    if np.any(tree.feature >= n_columns):
        raise CorruptModelError("a tree splits on a feature index outside the columns")
    for child in (tree.left, tree.right):
        if np.any(split & ((child <= np.arange(n)) | (child >= n))):
            raise CorruptModelError("a tree's child index is not after its parent inside the tree")
    if np.any(tree.counts < 0) or np.any(tree.counts[~split].sum(axis=1) <= 0):
        raise CorruptModelError("a tree holds a negative count or a leaf without samples")
    return tree


def save_model(model: _Model, path: str | Path) -> None:
    """Versioned, self-describing JSON persistence for every variant."""
    trees: list[_Tree] = []
    payload: dict = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "variant": model.variant,
        "columns": list(model.columns),
        "categories": {k: list(v) for k, v in model.categories.items()},
    }
    if isinstance(model, GaussianNBModel):
        payload["gaussian_nb"] = {
            "priors": model.priors.tolist(),
            "class_counts": model.class_counts.tolist(),
            "cont_idx": model.cont_idx,
            "means": model.means.tolist(),
            "variances": model.variances.tolist(),
            "cat_probs": {str(j): p.tolist() for j, p in model.cat_probs.items()},
            "cat_unseen": {str(j): p.tolist() for j, p in model.cat_unseen.items()},
        }
    elif isinstance(model, LogisticRegressionModel):
        payload["logistic_regression"] = {
            "l2": model.l2,
            "cont_idx": model.cont_idx,
            "cat_layout": [list(pair) for pair in model.cat_layout],
            "mu": model.mu.tolist(),
            "sigma": model.sigma.tolist(),
            "weights": model.weights.tolist(),
            "bias": model.bias.tolist(),
        }
    elif isinstance(model, RandomForestModel):
        payload["random_forest"] = {
            "n_trees": model.n_trees,
            "max_features": model.max_features,
            "bootstrap": model.bootstrap,
            "seed": model.seed,
            "trees": [],  # the last value in the file, written tree by tree
        }
        trees = model.trees
    elif isinstance(model, DecisionTreeModel):
        payload["decision_tree"] = {"tree": _tree_to_json(model.tree)}
    else:
        raise ValueError(f"cannot save model of type {type(model).__name__}")
    # json.dumps runs the C encoder, which writes the same text as json.dump's
    # pure-Python one several times faster but holds all of it in memory at
    # once; so a forest's trees are encoded one at a time, between the "["
    # and the "]}}" that end the text of its empty "trees" list
    text = json.dumps(payload)
    with open(path, "w", encoding="utf-8") as fh:
        if trees:
            fh.write(text[:-3])
            for i, tree in enumerate(trees):
                fh.write((", " if i else "") + json.dumps(_tree_to_json(tree)))
            text = text[-3:]
        fh.write(text + "\n")


def load_model(path: str | Path) -> _Model:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptModelError(f"unreadable model file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != _MODEL_FORMAT:
        raise CorruptModelError("not a classifier model file")
    if payload.get("version") != _MODEL_VERSION:
        raise UnsupportedVersionError(
            f"model version {payload.get('version')!r} is not supported "
            f"(expected {_MODEL_VERSION}); retrain the model with this version of eldiff"
        )
    try:
        variant = payload["variant"]
        columns = payload["columns"]
        categories = {k: tuple(v) for k, v in payload["categories"].items()}
        if variant == "gaussian_nb":
            body = payload["gaussian_nb"]
            model = GaussianNBModel(columns, categories)
            model.priors = np.array(body["priors"])
            model.class_counts = np.array(body["class_counts"])
            model.cont_idx = list(body["cont_idx"])
            model.means = np.array(body["means"])
            model.variances = np.array(body["variances"])
            model.cat_probs = {int(j): np.array(p) for j, p in body["cat_probs"].items()}
            model.cat_unseen = {int(j): np.array(p) for j, p in body["cat_unseen"].items()}
            return model
        if variant == "logistic_regression":
            body = payload["logistic_regression"]
            model = LogisticRegressionModel(columns, categories, l2=body["l2"])
            model.cont_idx = list(body["cont_idx"])
            model.cat_layout = [tuple(pair) for pair in body["cat_layout"]]
            model.mu = np.array(body["mu"])
            model.sigma = np.array(body["sigma"])
            model.weights = np.array(body["weights"])
            model.bias = np.array(body["bias"])
            return model
        if variant == "decision_tree":
            body = payload["decision_tree"]
            model = DecisionTreeModel(columns, categories)
            model.tree = _tree_from_json(body["tree"], len(columns))
            return model
        if variant == "random_forest":
            body = payload["random_forest"]
            model = RandomForestModel(
                columns, categories, n_trees=body["n_trees"],
                max_features=body["max_features"], bootstrap=body["bootstrap"],
                seed=body["seed"],
            )
            model.trees = [_tree_from_json(t, len(columns)) for t in body["trees"]]
            return model
    except (KeyError, TypeError) as exc:
        raise CorruptModelError(f"model file is missing fields: {exc}") from None
    raise CorruptModelError(f"unknown variant {variant!r} in model file")
