"""The four difficulty classifiers, built from first principles.

Every model predicts a probability vector over (HARD, MEDIUM, EASY) that
sums to 1; argmax ties resolve to the earlier class in that order. Trees
split on information gain (entropy, base 2) with midpoint thresholds for
continuous features and single-category-vs-rest splits for categorical
ones; the forest draws a bootstrap sample and floor(log2(F))+1 candidate
features per split, with one RNG stream per tree derived from the seed.
All trees of a fit grow in lockstep, one batched split search per step
over the next node of every tree: each forest tree still pops its nodes in
its own depth-first order and makes its draws from its own stream, and a
decision tree grows its whole frontier per step and is renumbered into
pre-order afterwards, so every tree is the one grown alone. The trees of
the folds of a cross-validation (``train_folds``) grow the same way, all
folds in one lockstep within a memory budget: each tree weighs the rows of
the whole table, 0 outside its fold's training rows, so each fold's trees
are the ones fitting that fold alone grows. Logistic regression fits by
gradient descent with a halving rate, and the folds of a cross-validation
descend in one lockstep within a row budget: each step runs the softmax
once over the rows of all folds, but every sum over one fold's rows alone,
in the shape fitting that fold alone gives it, so each fold's weights are
bit for bit its own. Naive Bayes fits fold by fold.
"""

from __future__ import annotations

import inspect
import json
import logging
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import CorruptModelError, UnsupportedVersionError
from ..features import FeatureTable
from ..rand import derive_seed
from .dataset import Dataset, N_CLASSES, encode_table, layout

VARIANTS = ("gaussian_nb", "logistic_regression", "decision_tree", "random_forest")

log = logging.getLogger(__name__)

_MODEL_FORMAT = "eldiff-classifier"
_MODEL_VERSION = 2
_VARIANCE_FLOOR = 1e-9


def _entropies(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each column of the class-major (3 x k)
    ``counts``, given their exact positive column sums ``totals``. The terms
    add as ``(t0 + t1) + t2``, which is what numpy's sum over a length-3 row
    does, so the bits equal that of the row-wise form."""
    p = counts / totals
    p *= np.log2(p + (p == 0))  # 0 * log2(1) where a class is absent
    return -((p[0] + p[1]) + p[2])


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

    @staticmethod
    def _fit_folds(dataset: Dataset, fits: Iterable[tuple]) -> Iterator:
        """Fit each (model, training rows) of ``fits`` on those rows of
        ``dataset`` and yield it; one at a time, unless a model class fits
        several together."""
        for model, rows in fits:
            yield model.fit(dataset.subset(rows))

    def predict_codes(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=1)

    def predict_table(self, table: FeatureTable) -> tuple[np.ndarray, np.ndarray]:
        """Each row's class index (``CLASS_ORDER``) and the (rows x classes)
        probability matrix."""
        probs = self.predict_proba(self.encode(table))
        return np.argmax(probs, axis=1), probs


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
        self.cont_idx, cat_sizes = layout(dataset.columns, dataset.categories)
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


class _Stack:
    """The design matrices, one-hot labels and L2 weights of several
    logistic regression fits. The labels are stacked into one (rows x 3)
    array, each fit's rows in one slice, so that the elementwise part of a
    step runs once over the rows of all fits."""

    def __init__(self, problems: Sequence[tuple[np.ndarray, np.ndarray]], l2: Sequence[float]):
        self.designs = [design for design, _ in problems]
        self.sizes = np.array([design.shape[0] for design in self.designs])
        ends = np.cumsum(self.sizes).tolist()
        self.bounds = list(zip([0] + ends[:-1], ends))
        self.y_onehot = np.concatenate([y_onehot for _, y_onehot in problems])
        # per row: its fit, and that fit's row count in every column; numpy
        # adds and divides arrays of one shape faster than it broadcasts
        self.owner = np.repeat(np.arange(len(problems)), self.sizes)
        self.n = np.repeat(self.sizes.astype(np.float64),
                           N_CLASSES * self.sizes).reshape(-1, N_CLASSES)
        self.l2 = np.array(l2, dtype=np.float64)


def _softmax_steps(weights: np.ndarray, bias: np.ndarray, stack: _Stack):
    """Mean softmax cross-entropy with an L2 penalty on the weights only, and
    its gradients, of every fit of ``stack`` at its (3 x d) weights and its
    bias in the stacked ``weights`` and ``bias``: (losses, grad_weights,
    grad_bias), one entry per fit. The softmax runs once over the rows of
    all fits; every product and sum runs over one fit's rows alone, in the
    shape fitting it alone gives them, so each fit's numbers are the ones of
    its own step."""
    logits = np.empty_like(stack.y_onehot)
    for design, (lo, hi), w in zip(stack.designs, stack.bounds, weights):
        np.matmul(design, w.T, out=logits[lo:hi])
    logits += bias.take(stack.owner, axis=0)
    log_p = _subtract_row_max(logits)
    log_p -= np.log(_row_sum(np.exp(log_p)))[:, None]
    picked = stack.y_onehot * log_p
    residual = np.exp(log_p, out=log_p)
    residual -= stack.y_onehot
    residual /= stack.n
    losses = np.empty(len(weights))
    grad_w = np.empty_like(weights)
    grad_b = np.empty_like(bias)
    for f, (design, (lo, hi)) in enumerate(zip(stack.designs, stack.bounds)):
        losses[f] = -picked[lo:hi].sum()
        np.matmul(residual[lo:hi].T, design, out=grad_w[f])
        # r.sum(axis=0) adds the rows one after another; so does accumulate, faster
        grad_b[f] = np.add.accumulate(residual[lo:hi].T, axis=1)[:, -1]
    losses /= stack.sizes
    # each fit's (w ** 2).sum(), bit for bit
    losses += 0.5 * stack.l2 * (weights ** 2).reshape(len(weights), -1).sum(axis=1)
    grad_w += stack.l2[:, None, None] * weights
    return losses, grad_w, grad_b


def softmax_loss_and_grads(weights, bias, x, y_onehot, l2):
    """Mean softmax cross-entropy with an L2 penalty on the weights only.

    Returns (loss, grad_weights, grad_bias): the step of one fit, so that the
    finite-difference check exercises exactly the training gradient.
    """
    losses, grad_w, grad_b = _softmax_steps(np.asarray(weights)[None], np.asarray(bias)[None],
                                            _Stack([(x, y_onehot)], [l2]))
    return losses[0], grad_w[0], grad_b[0]


def _norms(grad_w: np.ndarray, grad_b: np.ndarray) -> np.ndarray:
    """Each fit's gradient norm, ``math.sqrt((gw ** 2).sum() + (gb ** 2).sum())``
    bit for bit: each row sum below equals the fit's own flat sum, and both
    square roots are correctly rounded."""
    return np.sqrt((grad_w ** 2).reshape(len(grad_w), -1).sum(axis=1)
                   + (grad_b ** 2).sum(axis=1))


def _descend(models: Sequence["LogisticRegressionModel"],
             problems: Sequence[tuple[np.ndarray, np.ndarray]]) -> None:
    """Fit each logistic regression of ``models`` on its (design matrix,
    one-hot labels) in ``problems`` by gradient descent from zero weights: a
    step that would raise the loss is not taken, and the rate halves instead.
    The fits descend in lockstep, one stacked step per iteration over those
    still running, but each keeps its own rate, iteration count and stop (its
    gradient norm under ``tol``, its rate under 1e-15 or ``max_iter``
    iterations), so its weights are the ones of fitting it alone. A fit
    stopped short of ``tol`` is logged, in the order of ``models``."""
    m = len(models)
    l2 = [model.l2 for model in models]
    max_iter = np.array([model.max_iter for model in models])
    tol = np.array([model.tol for model in models], dtype=np.float64)
    rate = np.array([model.learning_rate for model in models], dtype=np.float64)
    iterations = np.zeros(m, dtype=np.int64)
    running = np.arange(m)
    stops: list[tuple] = [()] * m
    stack = _Stack(problems, l2)
    weights = np.zeros((m, N_CLASSES, problems[0][0].shape[1]))
    bias = np.zeros((m, N_CLASSES))
    loss, grad_w, grad_b = _softmax_steps(weights, bias, stack)
    norm = _norms(grad_w, grad_b)
    while True:
        go = (iterations < max_iter) & ~((norm < tol) | (rate < 1e-15))
        if not go.all():
            for f, w, b, *stop in zip(running[~go].tolist(), weights[~go], bias[~go],
                                      iterations[~go].tolist(), rate[~go].tolist(),
                                      norm[~go].tolist()):
                models[f].weights, models[f].bias = w, b
                stops[f] = stop
            running = running[go]
            if not running.size:
                break
            weights, bias, loss, grad_w, grad_b, norm, rate, iterations, max_iter, tol = (
                a[go] for a in (weights, bias, loss, grad_w, grad_b, norm, rate, iterations,
                                max_iter, tol))
            stack = _Stack([problems[f] for f in running], [l2[f] for f in running])
        iterations += 1
        new_w = weights - rate[:, None, None] * grad_w
        new_b = bias - rate[:, None] * grad_b
        new_loss, new_gw, new_gb = _softmax_steps(new_w, new_b, stack)
        new = (new_w, new_b, new_loss, new_gw, new_gb, _norms(new_gw, new_gb))
        taken = ~(new_loss > loss)
        rate[~taken] *= 0.5
        if taken.all():
            weights, bias, loss, grad_w, grad_b, norm = new
        else:
            for old, value in zip((weights, bias, loss, grad_w, grad_b, norm), new):
                old[taken] = value[taken]
    for model, (steps, lr, grad_norm) in zip(models, stops):
        if not grad_norm < model.tol:
            log.warning("logistic regression stopped at %s after %d iterations without reaching "
                        "tol %g (gradient norm %.3g)",
                        "step-size underflow" if lr < 1e-15 else "max_iter", steps,
                        model.tol, grad_norm)


# Cross-validation fits the logistic regressions of several folds in one
# descent while their training rows add up to at most this many; a larger
# fold descends alone. A stacked step pays while its arrays (the designs and
# a few rows x 3 buffers) stay in the CPU's cache. On a 2-CPU Xeon with 2 MiB
# of L2 per core and a 17-column design, one step for five folds of 400 rows
# ran 32 % faster than five steps for one fold each, for five of 1,600 rows
# (8,000 in all) 11 % faster, and for five of 2,000 (10,000) 16 % slower;
# two folds of 36,000 rows each ran 7 % slower together than apart.
_DESCENT_ROWS = 1 << 13


def _descents(dataset: Dataset, fits: Iterable[tuple]) -> Iterator:
    """Fit each (logistic regression, training rows) of ``fits`` on those
    rows of ``dataset`` and yield it. The fits descend together (see
    ``_descend``) in groups of at most ``_DESCENT_ROWS`` rows."""
    models, problems, size = [], [], 0
    for model, rows in fits:
        if models and size + rows.size > _DESCENT_ROWS:
            _descend(models, problems)
            yield from models
            models, problems, size = [], [], 0
        models.append(model)
        problems.append(model._problem(dataset.subset(rows)))
        size += rows.size
    if models:
        _descend(models, problems)
        yield from models


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

    def _problem(self, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Take the design's layout and scaling from ``dataset``; its design
        matrix and one-hot labels."""
        x, y = dataset.x, dataset.y
        self.cont_idx, cat_sizes = layout(dataset.columns, dataset.categories)
        self.cat_layout = sorted(cat_sizes.items())
        cont = x[:, self.cont_idx]
        self.mu = cont.mean(axis=0) if self.cont_idx else np.zeros(0)
        sigma = cont.std(axis=0) if self.cont_idx else np.zeros(0)
        self.sigma = np.where(sigma > 0, sigma, 1.0)
        y_onehot = np.zeros((len(y), N_CLASSES))
        y_onehot[np.arange(len(y)), y] = 1.0
        return self._design(x), y_onehot

    def fit(self, dataset: Dataset) -> "LogisticRegressionModel":
        _descend([self], [self._problem(dataset)])
        return self

    _fit_folds = staticmethod(_descents)

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
    in pre-order with the right child first: the order in which a forest
    tree's depth-first growth pops them, the order a decision tree is
    renumbered into after growth, and the order ``mdi`` sums them in.
    """

    feature: np.ndarray
    threshold: np.ndarray
    category: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    gain: np.ndarray


# A growth step searches and partitions at most this many (feature, row)
# positions at once; a larger step goes in chunks of whole nodes, and a node
# larger than this goes alone. The temporaries take about 30 bytes per
# position. The peak memory of a 25-tree fit of 505 rows was 0.8 MB above
# growing one node at a time with 2**14 and 3.6 MB above with 2**18, in the
# same time: more chunks only cost the first few steps of large trees.
_STEP_ELEMENTS = 1 << 14

_LEFT, _RIGHT = 2, 3  # columns of the children in _Nodes.links
_CLASS_CODES = np.arange(N_CLASSES, dtype=np.int8)[:, None]


class _Nodes:
    """The nodes of one growing tree, one row each in the order they are
    numbered: ``links`` holds (feature, category, left, right) and
    ``counts`` the class counts, both in int32 until the tree is done, and
    ``split`` holds (threshold, gain). ``levels`` holds the first node of
    each step of a tree that grows its whole frontier at once."""

    __slots__ = ("links", "counts", "split", "size", "levels")

    def __init__(self):
        self.links = np.full((64, 4), -1, dtype=np.int32)
        self.counts = np.empty((64, N_CLASSES), dtype=np.int32)
        self.split = np.zeros((64, 2))
        self.size = 0
        self.levels: list[int] = []

    def add(self, counts, parent: int, side: int) -> int:
        node = self.size
        if node == self.links.shape[0]:
            more = node // 2
            self.links = np.concatenate([self.links, np.full((more, 4), -1, dtype=np.int32)])
            self.counts = np.concatenate([self.counts,
                                          np.empty((more, N_CLASSES), dtype=np.int32)])
            self.split = np.concatenate([self.split, np.zeros((more, 2))])
        self.counts[node] = counts
        if parent >= 0:
            self.links[parent, side] = node
        self.size = node + 1
        return node

    def tree(self) -> _Tree:
        links, split = self.links[:self.size], self.split[:self.size]
        tree = _Tree(feature=links[:, 0].astype(np.int64), threshold=split[:, 0].copy(),
                     category=links[:, 1].astype(np.int64),
                     left=links[:, _LEFT].astype(np.int64),
                     right=links[:, _RIGHT].astype(np.int64),
                     counts=self.counts[:self.size].astype(np.float64),
                     gain=split[:, 1].copy())
        return _preorder(tree, self.levels) if self.levels else tree


def _preorder(tree: _Tree, levels: list[int]) -> _Tree:
    """Renumber a tree whose nodes were numbered level by level (``levels``
    holds each level's first node) into pre-order with the right child
    first: a right child follows its parent, and a left child follows the
    parent's right subtree."""
    split = tree.feature >= 0
    bounds = list(zip(levels, levels[1:] + [split.size]))
    size = np.ones(split.size, dtype=np.int64)
    for lo, hi in reversed(bounds):
        v = lo + np.flatnonzero(split[lo:hi])
        size[v] += size[tree.left[v]] + size[tree.right[v]]
    new = np.zeros(split.size, dtype=np.int64)
    for lo, hi in bounds:
        v = lo + np.flatnonzero(split[lo:hi])
        new[tree.right[v]] = new[v] + 1
        new[tree.left[v]] = new[v] + 1 + size[tree.right[v]]

    def moved(a: np.ndarray) -> np.ndarray:
        out = np.empty_like(a)
        out[new] = a
        return out

    return _Tree(feature=moved(tree.feature), threshold=moved(tree.threshold),
                 category=moved(tree.category),
                 left=moved(np.where(split, new[tree.left], -1)),
                 right=moved(np.where(split, new[tree.right], -1)),
                 counts=moved(tree.counts), gain=moved(tree.gain))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + n)`` for every start ``s`` and length ``n``, concatenated."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + lengths, lengths)


def _split_batch(xt, labels, pos, weights, flags, categorical,
                 tree, lo, u, m, parent_h, feats, draw):
    """Find and make the best split of every node of one batch.

    ``pos`` holds sample ids ``t * rows + row``, and ``labels``,
    ``weights`` (the copies of a row in tree t's sample) and ``flags`` are
    indexed by them. Node b holds the ``u[b]`` distinct sample ids
    ``pos[:, lo[b]:lo[b] + u[b]]`` of tree ``tree[b]``, sorted by each
    feature's value; ``m[b]`` is their total weight and ``parent_h[b]`` their
    entropy. Its candidates are the sorted features ``feats[b]``, and its
    best split is the first maximum of the gain in (feature, cut or
    category) order. Each split node's columns of ``pos`` are reordered in
    place, its left rows first, every feature still in sorted order.
    Returns, as lists over the nodes that split: the node's place in the
    batch, the feature, threshold, category, gain, the number of distinct
    rows sent left, the left class counts, and the entropies of the left
    and right sides (NaN where the split had to recount them).
    """
    n_features, width = pos.shape
    n_rows = xt.shape[1]
    n_nodes, k = feats.shape
    # one segment of positions per (node, candidate feature), node by node
    seg_feature = feats.ravel()
    seg_len = u.repeat(k)
    seg_end = seg_len.cumsum()
    seg_start = seg_end - seg_len
    total = int(seg_end[-1])
    ids = pos.ravel()[_ranges(seg_feature * width + lo.repeat(k), seg_len)].astype(np.intp)
    values = xt.ravel()[((seg_feature - tree.repeat(k)) * n_rows).repeat(seg_len) + ids]
    # the class counts of every prefix, class-major, after a leading 0
    cum = np.empty((N_CLASSES, total + 1), dtype=np.int64)
    cum[:, 0] = 0
    np.multiply(labels[ids] == _CLASS_CODES, weights[ids], out=cum[:, 1:])
    np.cumsum(cum[:, 1:], axis=1, out=cum[:, 1:])
    # a numeric candidate cuts after a position whose value differs from the
    # next one in its segment; a categorical one is a run of one code, marked
    # by its last position, in a segment that holds more than one code
    cand = np.empty(total, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=cand[:-1])
    cand[seg_end - 1] = False
    seg_cat = categorical[seg_feature]
    any_cat = bool(seg_cat.any())
    if any_cat:
        cand[seg_end[np.logical_or.reduceat(cand, seg_start) & seg_cat] - 1] = True
    ends = np.flatnonzero(cand)
    seg = np.searchsorted(seg_end, ends, side="right")
    begins = seg_start[seg]
    if any_cat:
        # a run that follows another in its segment begins after it; runs of
        # code -1 (a code outside the categories) are never candidates
        follows = np.empty(ends.size, dtype=bool)
        follows[:1] = False
        np.equal(seg[1:], seg[:-1], out=follows[1:])
        follows &= seg_cat[seg]
        begins[follows] = ends[:-1][follows[1:]] + 1
        usable = (values[ends] >= 0) | ~seg_cat[seg]
        if not usable.all():
            ends, begins, seg = ends[usable], begins[usable], seg[usable]
    n_cand = ends.size
    if not n_cand:
        return ([],) * 9
    left = cum[:, ends + 1] - cum[:, begins]
    node = seg // k
    size = m[node]
    # both sides' counts and sizes side by side, for one entropy pass
    sides = np.empty((N_CLASSES, 2 * n_cand))
    sides[:, :n_cand] = left
    np.subtract((cum[:, seg_end] - cum[:, seg_start])[:, seg], left, out=sides[:, n_cand:],
                casting="unsafe")
    totals = np.empty(2 * n_cand)
    totals[:n_cand] = (left[0] + left[1]) + left[2]
    np.subtract(size, totals[:n_cand], out=totals[n_cand:])
    h = _entropies(sides, totals)
    gains = (parent_h[node] - (totals[:n_cand] / size) * h[:n_cand]
             - (totals[n_cand:] / size) * h[n_cand:])
    # the first maximum of each node's candidates
    bounds = np.searchsorted(node, np.arange(n_nodes + 1))
    b = np.flatnonzero(bounds[:-1] < bounds[1:])
    starts = bounds[b]
    top = np.maximum.reduceat(gains, starts).repeat(bounds[b + 1] - starts)
    hits = np.flatnonzero(gains == top)
    win = hits[np.searchsorted(hits, starts)]

    wseg = seg[win]
    wcat = seg_cat[wseg]
    lower = values[ends[win]]
    threshold = np.zeros(win.size)
    numeric = np.flatnonzero(~wcat)
    upper = values[ends[win[numeric]] + 1]
    threshold[numeric] = (lower[numeric] + upper) / 2.0
    category = np.where(wcat, lower, -1).astype(np.int64)
    spread = ends[win] + 1 - begins[win]
    left_counts = sides[:, win].T.copy()
    h_left, h_right = h[win], h[n_cand + win]
    cut = threshold[numeric]
    odd = numeric[~((lower[numeric] <= cut) & (cut < upper))]
    if odd.size:
        keep = np.ones(win.size, dtype=bool)
        for i in odd:
            # the midpoint of two adjacent floats rounded up to the upper one,
            # or overflowed to +-inf, so the split does not send left the rows
            # the cut counted; the values below it are a prefix of the segment
            s0, s1 = seg_start[wseg[i]], seg_end[wseg[i]]
            inside = int(np.searchsorted(values[s0:s1], threshold[i], side="right"))
            counts = cum[:, s0 + inside] - cum[:, s0]
            sent = int(counts.sum())
            if sent == totals[win[i]]:
                continue
            if not draw and sent in (0, m[b[i]]):
                keep[i] = False  # every row goes one way: a child would be this node again
                continue
            spread[i], left_counts[i], h_left[i], h_right[i] = inside, counts, np.nan, np.nan
        b, wseg, threshold, category, spread, left_counts, h_left, h_right, win = (
            a[keep] for a in (b, wseg, threshold, category, spread, left_counts, h_left,
                              h_right, win))
    gain = np.maximum(gains[win], 0.0)

    # partition: flag the rows sent left, then move every feature's flagged
    # positions to the front of their node, both sides keeping their order
    sent_ids = ids[_ranges(begins[win], spread)]
    flags[sent_ids] = True
    node_lo, node_u = lo[b], u[b]
    moved = pos[:, _ranges(node_lo, node_u)].ravel()
    go = flags[moved.astype(np.intp)]
    flags[sent_ids] = False
    pos[:, _ranges(node_lo, spread)] = moved[np.flatnonzero(go)].reshape(n_features, -1)
    np.logical_not(go, out=go)
    pos[:, _ranges(node_lo + spread, node_u - spread)] = (
        moved[np.flatnonzero(go)].reshape(n_features, -1))
    return (b.tolist(), seg_feature[wseg].tolist(), threshold.tolist(), category.tolist(),
            gain.tolist(), spread.tolist(), left_counts.tolist(), h_left.tolist(),
            h_right.tolist())


def _grow_trees(x, y, cat_sizes, weights, rngs=None, max_features=None) -> list[_Tree]:
    """Grow one tree per row of ``weights``, which counts the copies of each
    row of ``x`` in that tree's sample. A forest passes each tree's generator
    in ``rngs`` and draws ``max_features`` candidates per node from it."""
    # Splits proceed while the node is impure and any usable candidate
    # exists, even at zero gain (parity splits like XOR have zero root gain
    # but become separable one level down). Children are strictly smaller,
    # so growth terminates. A midpoint can round up to the node's largest
    # value (two adjacent floats) or overflow to +-inf and send every row to
    # one side; without feature draws that node would split so forever, so it
    # becomes a leaf, while a forest's child draws again.
    # The trees grow in lockstep, one batched split search per step. A tree
    # that draws features pops one node per step from its own stack, right
    # child first, and draws for it from its own generator, so its nodes are
    # numbered and its draws made in the depth-first order of growing it
    # alone. A tree without draws takes its whole frontier each step and is
    # renumbered afterwards.
    # The rows are sorted once per feature; every tree keeps its distinct
    # rows in that order in its own columns of ``pos``, and a node is a run
    # of columns, partitioned in place when it splits. Children inherit
    # their class counts and entropy from the winning cut.
    n_rows, n_features = x.shape
    n_trees = weights.shape[0]
    draw = rngs is not None and max_features is not None and max_features < n_features
    xt = np.array(x.T, dtype=np.float64, order="C")
    categorical = np.zeros(n_features, dtype=bool)
    categorical[list(cat_sizes)] = True
    for j, size in cat_sizes.items():
        # a categorical split tests equality with one of the codes 0..size-1
        codes = xt[j]
        codes[(codes < 0) | (codes >= size) | (codes % 1 != 0)] = -1
    order = np.argsort(xt, axis=1, kind="stable")
    present = weights > 0
    distinct = np.count_nonzero(present, axis=1)
    offset = np.cumsum(distinct) - distinct
    # sample id t * n_rows + row: row of tree t
    pos = np.empty((n_features, int(distinct.sum())),
                   dtype=np.int32 if weights.size < 2 ** 31 else np.int64)
    for t in range(n_trees):
        pos[:, offset[t]:offset[t] + distinct[t]] = (
            order[present[t][order]].reshape(n_features, -1) + t * n_rows)
    del order, present
    labels = np.tile(y.astype(np.int8), n_trees)
    sample_weights = weights.ravel()
    flags = np.zeros(weights.size, dtype=bool)
    all_features = np.arange(n_features)
    nodes = [_Nodes() for _ in range(n_trees)]
    trees: list[_Tree] = [None] * n_trees
    # a stacked node: (first column, distinct rows, class counts, entropy
    # or None, parent, the parent's column for it)
    stacks = [[(int(offset[t]), int(distinct[t]),
                tuple(np.bincount(y, weights=weights[t], minlength=N_CLASSES).tolist()),
                None, -1, 0)] for t in range(n_trees)]
    live = list(range(n_trees))
    while live:
        batch = []
        drawn = np.empty((len(live), max_features if draw else 0), dtype=np.int64)
        for t in live:
            stack, table = stacks[t], nodes[t]
            if not draw:
                table.levels.append(table.size)
            while stack:
                lo, u, counts, h, parent, side = stack.pop()
                node = table.add(counts, parent, side)
                c0, c1, c2 = counts
                m = c0 + c1 + c2
                if m < 2 or (c0 > 0) + (c1 > 0) + (c2 > 0) <= 1:
                    continue
                if h is None:
                    h = float(_entropies(np.array(counts)[:, None], m)[0])
                batch.append((t, node, lo, u, m, h, counts))
                if draw:
                    features = rngs[t].choice(n_features, size=max_features, replace=False)
                    features.sort()
                    drawn[len(batch) - 1] = features
                    break
        start = 0
        while start < len(batch):
            stop, load = start + 1, n_features * batch[start][3]
            while stop < len(batch) and load + n_features * batch[stop][3] <= _STEP_ELEMENTS:
                load += n_features * batch[stop][3]
                stop += 1
            chunk = batch[start:stop]
            tree, _, lo, u, m, h, _ = zip(*chunk)
            feats = (drawn[start:stop] if draw
                     else np.broadcast_to(all_features, (stop - start, n_features)))
            found = _split_batch(xt, labels, pos, sample_weights, flags, categorical,
                                 np.array(tree), np.array(lo), np.array(u), np.array(m),
                                 np.array(h), feats, draw)
            for i, f, threshold, category, gain, sent, left, h_left, h_right in zip(*found):
                t, node, lo_i, u_i, _, _, counts = chunk[i]
                table = nodes[t]
                table.links[node, :2] = f, category
                table.split[node] = threshold, gain
                right = (counts[0] - left[0], counts[1] - left[1], counts[2] - left[2])
                stacks[t].append((lo_i, sent, tuple(left), None if h_left != h_left else h_left,
                                  node, _LEFT))
                stacks[t].append((lo_i + sent, u_i - sent, right,
                                  None if h_right != h_right else h_right, node, _RIGHT))
            start = stop
        for t in live:
            if not stacks[t]:
                trees[t], nodes[t] = nodes[t].tree(), None
        live = [t for t in live if stacks[t]]
    return trees


# Cross-validation grows the trees of several folds together while their
# growth holds at most this many elements: per tree, a position in ``pos`` for
# every feature of every distinct row of its sample, and one for every row of
# the table (its weight, label and flag). A fold over it grows alone. Each
# element costs about 5 to 7 bytes of peak memory, the group's fitted trees
# included: 10-fold cross-validation of a 5-tree forest on a table of 21,673
# rows and 9 columns peaked at 64.5 MB with every fold alone, 84.8 MB with
# this budget (groups of six folds) and 108.0 MB with twice it (all ten),
# in 17.8, 9.1 and 11.7 s of CPU. Small tables gain most: there a step's
# fixed numpy overhead, not its rows, sets the time.
_GROWTH_ELEMENTS = 1 << 22


def _grown(dataset: Dataset, fits: Iterable[tuple]) -> Iterator:
    """Grow the trees of each (decision tree or forest, training rows) of
    ``fits``, all of one variant and settings but their seeds, and yield each
    model once its trees are grown. The rows are sorted distinct indices
    into ``dataset``. The fits grow together, in groups of at most
    ``_GROWTH_ELEMENTS``, over the rows of the whole table; a row outside a
    fit has weight 0 in its trees, so each tree is the one fitting
    ``dataset.subset(rows)`` grows."""
    n_rows, n_features = dataset.x.shape
    cat_sizes = dataset.cat_sizes()
    models, blocks, rngs, size = [], [], [], 0
    for model, rows in fits:
        weights, drawn = model._sample(n_rows, rows)
        load = n_features * np.count_nonzero(weights) + weights.size
        if models and size + load > _GROWTH_ELEMENTS:
            yield from _grow_group(dataset, cat_sizes, models, blocks, rngs)
            models, blocks, rngs, size = [], [], [], 0
        models.append(model)
        blocks.append(weights)
        rngs += drawn
        size += load
    yield from _grow_group(dataset, cat_sizes, models, blocks, rngs)


def _grow_group(dataset, cat_sizes, models, blocks, rngs) -> list:
    sizes = [weights.shape[0] for weights in blocks]
    weights = np.concatenate(blocks)
    blocks.clear()  # the growth holds their copy
    trees = _grow_trees(dataset.x, dataset.y, cat_sizes, weights, rngs or None,
                        models[0]._resolved_max_features())
    for model, end, size in zip(models, np.cumsum(sizes).tolist(), sizes):
        model._take(trees[end - size:end])
    return models


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
        next(_grown(dataset, [(self, np.arange(len(dataset)))]))
        return self

    def _sample(self, n_rows: int, rows: np.ndarray) -> tuple[np.ndarray, list]:
        """The tree's weights over ``n_rows`` table rows when it fits the
        rows ``rows``, and its generators (none)."""
        weights = np.zeros((1, n_rows), dtype=np.int32)
        weights[0, rows] = 1
        return weights, []

    def _resolved_max_features(self) -> None:
        return None  # every feature is a candidate at every node

    def _take(self, trees: list[_Tree]) -> None:
        self.tree, = trees

    _fit_folds = staticmethod(_grown)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        probs = np.zeros((x.shape[0], N_CLASSES))
        _tree_probabilities(self.tree, x, probs)
        return probs


# ---------------------------------------------------------------------------
# Random forest


def _count(value) -> bool:
    """Whether ``value`` is an integer (not a bool) of at least 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


class RandomForestModel(_Model):
    variant = "random_forest"

    def __init__(self, columns, categories, n_trees: int = 100,
                 max_features: int | None = None, bootstrap: bool = True, seed: int = 0):
        super().__init__(columns, categories)
        if not _count(n_trees):
            raise ValueError(f"n_trees must be an integer of at least 1, not {n_trees!r}")
        if max_features is not None and not _count(max_features):
            raise ValueError(f"max_features must be an integer of at least 1, not {max_features!r}")
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
        next(_grown(dataset, [(self, np.arange(len(dataset)))]))
        return self

    def _sample(self, n_rows: int, rows: np.ndarray) -> tuple[np.ndarray, list]:
        """Each tree's weights over ``n_rows`` table rows when the forest
        fits the rows ``rows``: its bootstrap counts of them, drawn from its
        own generator, and the generators, whose feature draws follow."""
        rngs = [np.random.default_rng(derive_seed(self.seed, "tree", t))
                for t in range(self.n_trees)]
        weights = np.zeros((self.n_trees, n_rows), dtype=np.int32)
        n = rows.size
        if self.bootstrap:
            for t, rng in enumerate(rngs):
                weights[t, rows] = np.bincount(rng.integers(0, n, size=n), minlength=n)
        else:
            weights[:, rows] = 1
        return weights, rngs

    def _take(self, trees: list[_Tree]) -> None:
        self.trees = trees

    _fit_folds = staticmethod(_grown)

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


def _model_class(variant: str, hyperparams: Mapping) -> type[_Model]:
    model_cls = _MODELS.get(variant)
    if model_cls is None:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    accepted = set(inspect.signature(model_cls).parameters) - {"columns", "categories"}
    unexpected = sorted(set(hyperparams) - accepted)
    if unexpected:
        raise ValueError(f"{variant} takes no hyperparameter {', '.join(unexpected)}")
    return model_cls


def _check_training(nan: np.ndarray, inf: np.ndarray, y: np.ndarray) -> None:
    """Refuse training rows with a NaN (``nan``) or infinite (``inf``)
    feature, or of fewer than 2 classes."""
    if nan.any():
        raise ValueError("dataset contains NaN features; impute before training")
    if inf.any():
        raise ValueError("dataset contains infinite features; replace them before training")
    if np.count_nonzero(np.bincount(y, minlength=N_CLASSES)) < 2:
        raise ValueError("training needs at least 2 classes present")


def _unfitted(model_cls: type[_Model], dataset: Dataset, seed: int, hyperparams: dict) -> _Model:
    if model_cls is RandomForestModel:
        hyperparams = {**hyperparams, "seed": seed}
    return model_cls(dataset.columns, dataset.categories, **hyperparams)


def train(dataset: Dataset, variant: str, seed: int = 0, **hyperparams) -> _Model:
    """Fit one classifier variant on an (imputed) dataset; ``hyperparams``
    must all be arguments of the variant's constructor."""
    model_cls = _model_class(variant, hyperparams)
    _check_training(np.isnan(dataset.x), np.isinf(dataset.x), dataset.y)
    return _unfitted(model_cls, dataset, seed, hyperparams).fit(dataset)


def train_folds(dataset: Dataset, variant: str, samples: Sequence[np.ndarray],
                seeds: Sequence[int], **hyperparams) -> Iterator[_Model]:
    """One model per training fold, yielded in fold order: for the sorted
    distinct row indices ``rows`` and seed ``seed`` of each fold, the model
    and refusals of ``train(dataset.subset(rows), variant, seed, ...)``. The
    trees of decision trees and forests of several folds grow together (see
    ``_grown``), logistic regressions of several folds descend together (see
    ``_descents``), and naive Bayes fits fold by fold."""
    model_cls = _model_class(variant, hyperparams)
    nan, inf = np.isnan(dataset.x).any(axis=1), np.isinf(dataset.x).any(axis=1)

    def fits():
        for rows, seed in zip(samples, seeds):
            if np.any(rows[1:] <= rows[:-1]):
                raise ValueError("a fold's training rows must be sorted and distinct")
            _check_training(nan[rows], inf[rows], dataset.y[rows])
            yield _unfitted(model_cls, dataset, seed, hyperparams), rows

    return model_cls._fit_folds(dataset, fits())


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


def _array(body: dict, name: str, shape: tuple, low=-math.inf, high=math.inf) -> np.ndarray:
    """``body[name]`` as a float array, refusing one not of ``shape`` or
    holding a number that is not finite or lies outside [``low``, ``high``]."""
    try:
        a = np.array(body[name], dtype=np.float64)
    except (TypeError, ValueError):
        raise CorruptModelError(f"model field {name!r} is not an array of numbers") from None
    if a.shape != shape or not (np.isfinite(a).all() and np.all((low <= a) & (a <= high))):
        raise CorruptModelError(f"model field {name!r} is not a {shape} array of finite numbers "
                                f"in [{low}, {high}]")
    return a


def _expect(name: str, found, expected):
    """``expected``, if ``found`` equals it."""
    if found != expected:
        raise CorruptModelError(f"model field {name!r} is {found!r}, but the model's columns "
                                f"and categories give {expected!r}")
    return expected


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
        # a naive Bayes or logistic regression body must fit the columns' layout
        cont_idx, sizes = layout(columns, categories)
        n_cont = len(cont_idx)
        if variant == "gaussian_nb":
            body = payload["gaussian_nb"]
            model = GaussianNBModel(columns, categories)
            model.cont_idx = _expect("cont_idx", body["cont_idx"], cont_idx)
            model.priors = _array(body, "priors", (N_CLASSES,), 0.0, 1.0)
            model.class_counts = _array(body, "class_counts", (N_CLASSES,), 0.0)
            model.means = _array(body, "means", (N_CLASSES, n_cont))
            model.variances = _array(body, "variances", (N_CLASSES, n_cont), _VARIANCE_FLOOR)
            cats = {f"{name}[{j}]": p for name in ("cat_probs", "cat_unseen")
                    for j, p in body[name].items()}
            model.cat_probs = {j: _array(cats, f"cat_probs[{j}]", (N_CLASSES, k), 0.0, 1.0)
                               for j, k in sizes.items()}
            model.cat_unseen = {j: _array(cats, f"cat_unseen[{j}]", (N_CLASSES,), 0.0, 1.0)
                                for j in sizes}
            return model
        if variant == "logistic_regression":
            body = payload["logistic_regression"]
            model = LogisticRegressionModel(columns, categories, l2=body["l2"])
            model.cont_idx = _expect("cont_idx", body["cont_idx"], cont_idx)
            model.cat_layout = _expect("cat_layout", [tuple(pair) for pair in body["cat_layout"]],
                                       sorted(sizes.items()))
            model.mu = _array(body, "mu", (n_cont,))
            model.sigma = _array(body, "sigma", (n_cont,), 5e-324)  # positive: it divides
            model.weights = _array(body, "weights", (N_CLASSES, n_cont + sum(sizes.values())))
            model.bias = _array(body, "bias", (N_CLASSES,))
            return model
        if variant == "decision_tree":
            body = payload["decision_tree"]
            model = DecisionTreeModel(columns, categories)
            model.tree = _tree_from_json(body["tree"], len(columns))
            return model
        if variant == "random_forest":
            body = payload["random_forest"]
            try:
                model = RandomForestModel(
                    columns, categories, n_trees=body["n_trees"],
                    max_features=body["max_features"], bootstrap=body["bootstrap"],
                    seed=body["seed"],
                )
            except ValueError as exc:
                raise CorruptModelError(f"bad forest model file: {exc}") from None
            trees = body["trees"]
            if not isinstance(trees, list) or len(trees) != model.n_trees:
                raise CorruptModelError(f"the forest's n_trees is {model.n_trees}, but its trees "
                                        f"are not a list of that many")
            model.trees = [_tree_from_json(t, len(columns)) for t in trees]
            return model
    except (KeyError, TypeError, AttributeError) as exc:
        raise CorruptModelError(f"model file is missing fields: {exc}") from None
    raise CorruptModelError(f"unknown variant {variant!r} in model file")
