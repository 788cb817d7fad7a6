"""Flat-array trees: equivalence with the node-object trees they replaced,
deep trees, and the refusal of corrupt model files."""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eldiff.cli import EXIT_ERROR, EXIT_OK, main
from eldiff.errors import CorruptModelError, UnsupportedVersionError
from eldiff.learn.analysis import mdi
from eldiff.learn.dataset import N_CLASSES, Dataset
from eldiff.learn import models
from eldiff.learn.models import _grow_trees, load_model, save_model, train
from eldiff.rand import derive_seed


SRC = str(Path(__file__).resolve().parent.parent / "src")


def make_dataset(x, y, categories=None):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    return Dataset(tuple(f"f{i}" for i in range(x.shape[1])), x, y, categories or {})


# --- reference: trees as node objects ----------------------------------------
# The node-object growth, prediction and MDI walk that the arrays replaced,
# the per-node split searches (one stable argsort per feature per node)
# that the presorted growth replaced, and the row-wise entropy that the
# batched search replaced, kept verbatim as the oracle the array code must
# match bit for bit.


def _entropy(counts) -> np.ndarray:
    """Shannon entropy in bits of class-count vectors along the last axis."""
    counts = np.asarray(counts, dtype=np.float64)
    totals = counts.sum(axis=-1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    p = counts / safe
    logs = np.zeros_like(p)
    np.log2(p, out=logs, where=p > 0)
    return -(p * logs).sum(axis=-1)


def _best_numeric_split(col, y_sub, parent_h):
    order = np.argsort(col, kind="stable")
    xs = col[order]
    n = xs.shape[0]
    onehot = np.zeros((n, N_CLASSES))
    onehot[np.arange(n), y_sub[order]] = 1.0
    prefix = np.cumsum(onehot, axis=0)
    cuts = np.nonzero(xs[1:] != xs[:-1])[0]
    if cuts.size == 0:
        return None
    left = prefix[cuts]
    right = prefix[-1] - left
    n_left = (cuts + 1).astype(np.float64)
    n_right = n - n_left
    entropies = _entropy(np.stack([left, right]))
    gains = parent_h - (n_left / n) * entropies[0] - (n_right / n) * entropies[1]
    best = int(np.argmax(gains))
    threshold = (xs[cuts[best]] + xs[cuts[best] + 1]) / 2.0
    return float(gains[best]), float(threshold)


def _best_categorical_split(col, y_sub, parent_h, n_categories):
    n = float(col.shape[0])
    best = None
    for code in range(n_categories):
        mask = col == code
        n_left = float(mask.sum())
        if n_left == 0 or n_left == n:
            continue
        left = np.bincount(y_sub[mask], minlength=N_CLASSES)
        right = np.bincount(y_sub[~mask], minlength=N_CLASSES)
        gain = parent_h - (n_left / n) * float(_entropy(left)) - ((n - n_left) / n) * float(_entropy(right))
        if best is None or gain > best[0]:
            best = (gain, code)
    return best


@dataclass
class _Node:
    counts: np.ndarray
    feature: int | None = None
    threshold: float | None = None
    category: int | None = None
    gain: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def node_grow_tree(x, y, cat_sizes, rng=None, max_features=None):
    n_features = x.shape[1]

    def new_node(rows):
        return _Node(counts=np.bincount(y[rows], minlength=N_CLASSES).astype(np.float64))

    root_rows = np.arange(x.shape[0])
    root = new_node(root_rows)
    stack = [(root, root_rows)]
    while stack:
        node, rows = stack.pop()
        if rows.shape[0] < 2 or np.count_nonzero(node.counts) <= 1:
            continue
        y_sub = y[rows]
        parent_h = float(_entropy(node.counts))
        if max_features is not None and rng is not None and max_features < n_features:
            features = np.sort(rng.choice(n_features, size=max_features, replace=False))
        else:
            features = np.arange(n_features)
        best = None
        for f in features:
            col = x[rows, f]
            if int(f) in cat_sizes:
                found = _best_categorical_split(col, y_sub, parent_h, cat_sizes[int(f)])
                if found is not None and (best is None or found[0] > best[0]):
                    best = (found[0], int(f), None, found[1])
            else:
                found = _best_numeric_split(col, y_sub, parent_h)
                if found is not None and (best is None or found[0] > best[0]):
                    best = (found[0], int(f), found[1], None)
        if best is None:
            continue
        gain, feature, threshold, category = best
        col = x[rows, feature]
        mask = (col == category) if threshold is None else (col <= threshold)
        node.feature, node.threshold, node.category = feature, threshold, category
        node.gain = max(gain, 0.0)
        node.left = new_node(rows[mask])
        node.right = new_node(rows[~mask])
        stack.append((node.left, rows[mask]))
        stack.append((node.right, rows[~mask]))
    return root


def node_tree_probabilities(root, x, out):
    stack = [(root, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] += node.counts / node.counts.sum()
            continue
        col = x[idx, node.feature]
        mask = (col == node.category) if node.threshold is None else (col <= node.threshold)
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))


def node_forest(dataset, n_trees, seed, max_features=None, bootstrap=True):
    if max_features is None:
        max_features = int(np.log2(dataset.x.shape[1])) + 1
    n = len(dataset)
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(derive_seed(seed, "tree", t))
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(node_grow_tree(dataset.x[rows], dataset.y[rows], dataset.cat_sizes(),
                                    rng=rng, max_features=max_features))
    return trees


def node_forest_proba(trees, x):
    probs = np.zeros((x.shape[0], N_CLASSES))
    for root in trees:
        node_tree_probabilities(root, x, probs)
    return probs / len(trees)


def node_mdi(trees, n_features):
    totals = np.zeros(n_features)
    for root in trees:
        root_n = root.counts.sum()
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            totals[node.feature] += (node.counts.sum() / root_n) * node.gain
            stack.append(node.left)
            stack.append(node.right)
    return totals / len(trees)


def node_arrays(root):
    """The node tree flattened in pre-order, right child first."""
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not node.is_leaf:
            stack.append(node.left)
            stack.append(node.right)
    index = {id(node): i for i, node in enumerate(nodes)}
    return {
        "feature": [-1 if n.is_leaf else n.feature for n in nodes],
        "threshold": [0.0 if n.threshold is None else n.threshold for n in nodes],
        "category": [-1 if n.category is None else n.category for n in nodes],
        "left": [-1 if n.is_leaf else index[id(n.left)] for n in nodes],
        "right": [-1 if n.is_leaf else index[id(n.right)] for n in nodes],
        "counts": np.array([n.counts for n in nodes]),
        "gain": [n.gain for n in nodes],
    }


def assert_tree_equals(tree, expected):
    for field, values in expected.items():
        assert getattr(tree, field).tobytes() == np.asarray(
            values, dtype=getattr(tree, field).dtype).tobytes(), field


# --- equivalence --------------------------------------------------------------


def numeric_data(rng):
    x = rng.normal(size=(150, 4))
    y = np.where(x[:, 0] + 0.5 * rng.normal(size=150) < -0.3, 0,
                 np.where(x[:, 1] > 0.2, 2, 1))
    return make_dataset(x, y), rng.normal(size=(80, 4))


def categorical_data(rng):
    x = np.column_stack([rng.integers(0, 4, size=120), rng.normal(size=120),
                         rng.integers(0, 3, size=120)]).astype(np.float64)
    y = rng.integers(0, 3, size=120)
    query = np.column_stack([rng.integers(-1, 4, size=60), rng.normal(size=60),
                             rng.integers(-1, 3, size=60)]).astype(np.float64)
    return make_dataset(x, y, {"f0": ("a", "b", "c", "d"), "f2": ("x", "y", "z")}), query


def tied_data(rng):
    x = rng.integers(0, 4, size=(100, 3)).astype(np.float64)
    y = rng.integers(0, 3, size=100)
    return make_dataset(x, y), rng.integers(-1, 5, size=(60, 3)).astype(np.float64)


def xor_data(rng):
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 10)
    y = np.array([2, 0, 0, 2] * 10)
    return make_dataset(x, y), rng.integers(0, 2, size=(20, 2)).astype(np.float64)


def single_node_data(rng):
    x = np.full((30, 2), 5.0)
    y = rng.integers(0, 3, size=30)
    return make_dataset(x, y), rng.normal(size=(10, 2))


DATA = {"numeric": numeric_data, "categorical": categorical_data, "tied": tied_data,
        "xor": xor_data, "single_node": single_node_data}


@pytest.mark.parametrize("name", sorted(DATA))
@pytest.mark.parametrize("seed", [0, 17])
class TestEquivalenceWithNodeTrees:
    def test_decision_tree_arrays_and_probabilities(self, name, seed):
        dataset, query = DATA[name](np.random.default_rng(seed))
        model = train(dataset, "decision_tree")
        root = node_grow_tree(dataset.x, dataset.y, dataset.cat_sizes())
        expected = node_arrays(root)
        for field, values in expected.items():
            assert getattr(model.tree, field).tobytes() == np.asarray(
                values, dtype=getattr(model.tree, field).dtype).tobytes(), field
        for x in (dataset.x, query):
            old = np.zeros((x.shape[0], N_CLASSES))
            node_tree_probabilities(root, x, old)
            assert model.predict_proba(x).tobytes() == old.tobytes()

    def test_forest_probabilities_and_mdi(self, name, seed):
        dataset, query = DATA[name](np.random.default_rng(seed))
        forest = train(dataset, "random_forest", seed=seed, n_trees=20)
        trees = node_forest(dataset, 20, seed)
        for x in (dataset.x, query):
            assert forest.predict_proba(x).tobytes() == node_forest_proba(trees, x).tobytes()
        assert mdi(forest).scores.tobytes() == node_mdi(trees, dataset.x.shape[1]).tobytes()


def test_single_node_trees_are_leaves():
    dataset, _ = single_node_data(np.random.default_rng(3))
    forest = train(dataset, "random_forest", seed=3, n_trees=20)
    assert all(tree.feature.tolist() == [-1] for tree in forest.trees)


# --- deep trees ---------------------------------------------------------------


def deep_chain():
    """1,200 rows on one feature 0..1199 with alternating labels and a last
    row of class 2: the tree peels one row per level, 1,199 levels deep."""
    y = np.arange(1200) % 2
    y[-1] = 2
    return np.arange(1200, dtype=np.float64)[:, None], y


def tree_depth(tree):
    depth = np.zeros(tree.feature.size, dtype=np.int64)
    for node in np.nonzero(tree.feature >= 0)[0]:
        depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return int(depth.max())


class TestDeepTree:
    def test_save_load_keeps_probabilities(self, tmp_path):
        x, y = deep_chain()
        model = train(make_dataset(x, y), "decision_tree")
        assert tree_depth(model.tree) == 1199
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        query = np.concatenate([x, x + 0.5, [[-3.0], [5000.0]]])
        assert again.predict_proba(query).tobytes() == model.predict_proba(query).tobytes()

    def test_cli_train_exits_ok(self, tmp_path):
        x, y = deep_chain()
        table = tmp_path / "features.csv"
        names = ("HARD", "MEDIUM", "EASY")
        table.write_text("m_len,label\n" + "".join(
            f"{int(v)},{names[c]}\n" for v, c in zip(x[:, 0], y)), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["train", "--features", str(table), "--variant", "decision_tree",
                     "--out", str(out)]) == EXIT_OK
        assert tree_depth(load_model(out / "model.json").tree) == 1199


# --- presorted growth -------------------------------------------------------------
# Growth sorts the rows once per feature and partitions that order at every
# split; the node-object growth above, with its per-node stable argsort, must
# give the same tree and leave the RNG where it leaves it.


def grow_like_node_trees(x, y, cat_sizes=None, seed=None, max_features=None, bootstrap=False):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    cat_sizes = cat_sizes or {}
    rngs = [None, None] if seed is None else [np.random.default_rng(seed) for _ in range(2)]
    weights = np.ones((1, y.size), dtype=np.int64)
    if bootstrap:
        rows = [rng.integers(0, y.size, size=y.size) for rng in rngs]
        weights[0] = np.bincount(rows[0], minlength=y.size)
    tree = _grow_trees(x, y, cat_sizes, weights, None if seed is None else rngs[:1],
                       max_features)[0]
    if bootstrap:
        x, y = x[rows[1]], y[rows[1]]
    assert_tree_equals(tree, node_arrays(node_grow_tree(x, y, cat_sizes, rng=rngs[1],
                                                        max_features=max_features)))
    if seed is not None:
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    return tree


def coarse_table(rng, n=120):
    """Few distinct values per column, so equal values sit on both sides of
    most cuts, plus a categorical column and rows that differ only in label."""
    x = np.column_stack([np.round(rng.normal(size=n), 1), rng.integers(0, 5, size=n),
                         rng.integers(0, 4, size=n), rng.normal(size=n)]).astype(np.float64)
    x[n // 2:n // 2 + 10] = x[n // 2]
    y = np.where(x[:, 0] + 0.3 * x[:, 2] + rng.normal(size=n) > 0.5, 2, rng.integers(0, 2, size=n))
    return x, y


class TestPresortedGrowth:
    @pytest.mark.parametrize("tree_index", range(10))
    def test_bootstrap_samples_with_duplicate_rows(self, tree_index):
        x, y = coarse_table(np.random.default_rng(5))
        seed = derive_seed(5, "tree", tree_index)
        rows = np.random.default_rng(seed).integers(0, y.size, size=y.size)
        assert np.unique(rows).size < y.size
        tree = grow_like_node_trees(x, y, {2: 4}, seed=seed, max_features=2, bootstrap=True)
        assert np.count_nonzero(tree.feature >= 0) > 10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_values_on_both_sides_of_a_cut(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 3, size=(60, 2)).astype(np.float64)
        y = rng.integers(0, 3, size=60)
        grow_like_node_trees(x, y)
        grow_like_node_trees(x, y, seed=seed, max_features=1)

    def test_tied_numeric_gains_go_to_the_earlier_feature(self):
        rng = np.random.default_rng(9)
        good = rng.normal(size=50)
        x = np.column_stack([rng.normal(size=50), good, good])
        y = np.where(good > 0.4, 2, np.where(good < -0.6, 0, 1))
        tree = grow_like_node_trees(x, y)
        assert tree.feature[0] == 1
        assert 2 not in tree.feature

    @pytest.mark.parametrize("categorical_first", [True, False])
    def test_numeric_and_categorical_tie_goes_to_the_earlier_feature(self, categorical_first):
        codes = np.repeat([0.0, 1.0], 10)
        columns = [codes, codes] if categorical_first else [codes.copy(), codes]
        x = np.column_stack([np.full(20, 7.0), *columns])
        cat_sizes = {1: 2} if categorical_first else {2: 2}
        tree = grow_like_node_trees(x, (2 * codes).astype(np.int64), cat_sizes)
        assert tree.feature[0] == 1
        assert tree.category[0] == (0 if categorical_first else -1)

    @pytest.mark.parametrize("seed", [None, 4])
    def test_categorical_only_table(self, seed):
        rng = np.random.default_rng(4)
        x = np.column_stack([rng.integers(0, 4, size=80), rng.integers(0, 3, size=80)])
        y = (x[:, 0] + rng.integers(0, 2, size=80)) % 3
        tree = grow_like_node_trees(x, y, {0: 4, 1: 3}, seed=seed, max_features=1)
        assert np.all(tree.category[tree.feature >= 0] >= 0)

    def test_single_row_leaves(self):
        one = grow_like_node_trees([[3.0, 1.0]], [1], {1: 2})
        assert one.feature.tolist() == [-1]
        tree = grow_like_node_trees([[0.0], [1.0], [2.0]], [0, 1, 1])
        assert tree.counts.sum(axis=1).tolist() == [3.0, 2.0, 1.0]

    def test_midpoint_rounding_up_to_the_upper_value(self):
        # the midpoint of two adjacent floats rounds to the upper one here, so
        # the split sends the upper value's rows left, not just the cut's rows
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert (a + b) / 2.0 == b
        x = [[0, 0.0], [0, a], [1, b], [0, 3.0], [1, 3.0]]
        tree = grow_like_node_trees(x, [0, 0, 1, 2, 2])
        assert tree.threshold[0] == b
        assert tree.counts[tree.left[0]].tolist() == [2.0, 1.0, 0.0]

    def test_deep_chain(self):
        x, y = deep_chain()
        assert tree_depth(grow_like_node_trees(x, y)) == 1199


class TestDegenerateSplits:
    """A midpoint that rounds up to a node's largest value, or overflows to
    +-inf, sends every row to one side; growth without feature draws must
    end there with a leaf. Each case runs in a subprocess under a timeout,
    because before the fix growth never returned."""

    GROW = (
        "import sys, numpy as np\n"
        "from eldiff.learn.models import _grow_trees\n"
        "x = np.array(eval(sys.argv[1]), dtype=np.float64)[:, None]\n"
        "tree = _grow_trees(x, np.array(eval(sys.argv[2])), {}, np.ones((1, len(x)), int))[0]\n"
        "print(tree.feature.tolist(), tree.counts.tolist())\n"
    )

    @pytest.mark.parametrize("values, labels", [
        ("[0.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)]", "[0, 0, 1]"),
        ("[0.0, 1.7e308, 1.79e308]", "[0, 0, 1]"),
        ("[-1.79e308, -1.7e308, 0.0]", "[1, 0, 0]"),
    ])
    def test_growth_ends_with_a_leaf(self, values, labels):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", self.GROW, values, labels], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[-1] [[2.0, 1.0, 0.0]]\n"


# --- lockstep growth -------------------------------------------------------------
# All trees of a fit grow together, one batched split search per step; every
# tree must still be the one grown alone, and every generator must end where
# growing its tree alone leaves it.


def check_lockstep(x, y, cat_sizes, weights, seeds=None, max_features=None):
    """Grow one tree per row of ``weights`` in lockstep, each from its own
    generator, then each alone with node objects on its sample."""
    rngs = None if seeds is None else [np.random.default_rng(s) for s in seeds]
    trees = _grow_trees(x, y, cat_sizes, weights, rngs, max_features)
    for t, tree in enumerate(trees):
        rows = np.repeat(np.arange(y.size), weights[t])
        alone = None if seeds is None else np.random.default_rng(seeds[t])
        assert_tree_equals(tree, node_arrays(node_grow_tree(
            x[rows], y[rows], cat_sizes, rng=alone, max_features=max_features)))
        if seeds is not None:
            assert rngs[t].bit_generator.state == alone.bit_generator.state
    return trees


def check_forest_fit(monkeypatch, dataset, n_trees, seed, **hyper):
    """Fit a forest, keeping the generator of each tree, and compare each
    tree and generator with growing that tree alone on its bootstrap sample."""
    made, real = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(real(s)) or made[-1])
    forest = train(dataset, "random_forest", seed=seed, n_trees=n_trees, **hyper)
    monkeypatch.undo()
    max_features = forest._resolved_max_features()
    assert len(made) == len(forest.trees) == n_trees
    for t, tree in enumerate(forest.trees):
        alone = np.random.default_rng(derive_seed(seed, "tree", t))
        n = len(dataset)
        rows = alone.integers(0, n, size=n) if forest.bootstrap else np.arange(n)
        assert_tree_equals(tree, node_arrays(node_grow_tree(
            dataset.x[rows], dataset.y[rows], dataset.cat_sizes(), rng=alone,
            max_features=max_features)))
        assert made[t].bit_generator.state == alone.bit_generator.state
    return forest


class TestLockstepGrowth:
    def test_trees_finishing_at_very_different_steps(self):
        # a pure sample (a leaf at the first step), a 199-level chain, and
        # samples of a few rows, side by side
        x, y = deep_chain()
        x, y = x[:200], y[:200].copy()
        y[-1] = 2
        weights = np.zeros((5, 200), dtype=np.int32)
        weights[0, y == 0] = 1
        weights[1] = 1
        weights[2, [3, 4, 5]] = [2, 1, 3]
        weights[3, ::2] = 1
        weights[3, -1] = 1
        weights[4, [0, 199]] = 1
        trees = check_lockstep(x, y, {}, weights, seeds=range(5), max_features=1)
        sizes = [tree.feature.size for tree in trees]
        assert sizes[0] == 1 and sizes[1] == 2 * 199 + 1 and sizes[2] == 5
        # without draws the same trees grow their whole frontier per step
        check_lockstep(x, y, {}, weights)

    def test_forest_with_pure_bootstraps_next_to_deeper_trees(self, monkeypatch):
        rng = np.random.default_rng(6)
        x = np.column_stack([rng.normal(size=10), rng.integers(0, 3, size=10),
                             rng.normal(size=10)])
        y = np.array([0] * 8 + [1, 2])
        forest = check_forest_fit(monkeypatch, make_dataset(x, y), 40, 6)
        sizes = [tree.feature.size for tree in forest.trees]
        assert min(sizes) == 1 and max(sizes) >= 7

    def test_one_tree(self, monkeypatch):
        dataset, _ = numeric_data(np.random.default_rng(2))
        check_forest_fit(monkeypatch, dataset, 1, 2)
        check_forest_fit(monkeypatch, dataset, 1, 2, bootstrap=False, max_features=2)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_categorical_only_table(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        x = np.column_stack([rng.integers(0, 4, size=90), rng.integers(0, 3, size=90),
                             rng.integers(0, 2, size=90)]).astype(np.float64)
        y = (x[:, 0] + rng.integers(0, 2, size=90)) % 3
        dataset = make_dataset(x, y, {"f0": tuple("abcd"), "f1": tuple("xyz"), "f2": ("p", "q")})
        forest = check_forest_fit(monkeypatch, dataset, 12, seed, max_features=1)
        assert all(np.all(t.category[t.feature >= 0] >= 0) for t in forest.trees)

    def test_coarse_table_with_ties_and_duplicate_rows(self, monkeypatch):
        x, y = coarse_table(np.random.default_rng(7))
        dataset = make_dataset(x, y, {"f2": tuple("abcd")})
        forest = check_forest_fit(monkeypatch, dataset, 15, 7, max_features=2)
        assert sum(np.count_nonzero(t.feature >= 0) for t in forest.trees) > 100

    def test_midpoints_that_round_up_make_the_draw_path_recount(self, monkeypatch):
        # the cut between a and b has the midpoint b, so it sends the b rows
        # left too: a drawn tree recounts that side and grows on
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        rng = np.random.default_rng(8)
        x = np.column_stack([rng.integers(0, 2, size=24), np.repeat([a, b, 3.0], 8)])
        y = np.repeat([0, 1, 2], 8)
        forest = check_forest_fit(monkeypatch, make_dataset(x, y), 10, 8, max_features=1)
        assert any(np.any(t.threshold[t.feature == 1] == b) for t in forest.trees)

    def test_steps_larger_than_the_element_budget(self, monkeypatch):
        rng = np.random.default_rng(9)
        x = np.round(rng.normal(size=(300, 8)), 2)
        y = np.where(x[:, 0] + x[:, 1] > 0.3, 2, rng.integers(0, 2, size=300))
        dataset = make_dataset(x, y)
        # the first step of 20 trees, and the root of one tree on every row
        assert 20 * 8 * 150 > models._STEP_ELEMENTS
        check_forest_fit(monkeypatch, dataset, 20, 9)
        big = np.tile(x, (8, 1))
        assert big.size > models._STEP_ELEMENTS
        tree = train(make_dataset(big, np.tile(y, 8)), "decision_tree").tree
        assert_tree_equals(tree, node_arrays(node_grow_tree(big, np.tile(y, 8), {})))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_small_tables(self, data):
        n_rows = data.draw(st.integers(1, 24), label="rows")
        n_features = data.draw(st.integers(1, 4), label="features")
        cat_sizes = {j: data.draw(st.integers(1, 4), label=f"categories of {j}")
                     for j in range(n_features) if data.draw(st.booleans(), label=f"{j} coded")}
        columns = [
            data.draw(st.lists(st.integers(0, cat_sizes[j] - 1) if j in cat_sizes else
                               st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
                               min_size=n_rows, max_size=n_rows), label=f"column {j}")
            for j in range(n_features)
        ]
        x = np.array(columns, dtype=np.float64).T
        y = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n_rows, max_size=n_rows),
                               label="labels"))
        if not data.draw(st.booleans(), label="forest"):
            check_lockstep(x, y, cat_sizes, np.ones((1, n_rows), dtype=np.int32))
            return
        n_trees = data.draw(st.integers(1, 4), label="trees")
        seeds = [data.draw(st.integers(0, 2 ** 32 - 1), label=f"seed {t}") for t in range(n_trees)]
        samples = np.random.default_rng(seeds[0]).integers(0, n_rows, size=(n_trees, n_rows))
        weights = np.array([np.bincount(rows, minlength=n_rows) for rows in samples],
                           dtype=np.int32)
        max_features = data.draw(st.integers(1, n_features), label="max_features")
        check_lockstep(x, y, cat_sizes, weights, seeds, max_features)


# --- the model file -------------------------------------------------------------


@pytest.fixture
def tree_file(tmp_path):
    """A saved decision tree at least two levels deep, and its JSON payload."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(60, 3))
    model = train(make_dataset(x, rng.integers(0, 3, size=60)), "decision_tree")
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert tree_depth(model.tree) >= 2
    return path, payload


def corrupt(path, payload, edit):
    tree = payload["decision_tree"]["tree"]
    edit(tree)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def second_split(tree):
    return next(i for i, f in enumerate(tree["feature"]) if i > 0 and f >= 0)


EDITS = {
    "child_is_itself": lambda t: t["right"].__setitem__(0, 0),
    "child_is_earlier": lambda t: t["left"].__setitem__(second_split(t), 0),
    "child_out_of_range": lambda t: t["left"].__setitem__(0, len(t["feature"])),
    "ragged_arrays": lambda t: t["gain"].pop(),
    "feature_out_of_range": lambda t: t["feature"].__setitem__(0, 3),
    "nan_threshold": lambda t: t["threshold"].__setitem__(0, float("nan")),
    "infinite_count": lambda t: t["counts"].__setitem__(0, float("inf")),
    "fractional_child": lambda t: t["right"].__setitem__(0, t["right"][0] + 0.5),
    "leaf_without_samples": lambda t: t["counts"].__setitem__(
        slice(3 * t["feature"].index(-1), 3 * t["feature"].index(-1) + 3), [0.0, 0.0, 0.0]),
}


class TestModelFile:
    def test_trees_are_flat_lists(self, tree_file):
        _, payload = tree_file
        assert payload["version"] == 2
        tree = payload["decision_tree"]["tree"]
        assert sorted(tree) == sorted(["feature", "threshold", "category", "left", "right",
                                       "counts", "gain"])
        n = len(tree["feature"])
        assert all(len(v) == n for k, v in tree.items() if k != "counts")
        assert len(tree["counts"]) == 3 * n
        assert not any(isinstance(v, list) for values in tree.values() for v in values)

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_corrupt_tree_refused(self, tree_file, edit):
        path = corrupt(*tree_file, EDITS[edit])
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_cli_predict_on_corrupt_tree_exits_error(self, tree_file, tmp_path):
        path, payload = tree_file
        payload["columns"] = ["m_len", "m_words", "m_freq"]
        corrupt(path, payload, EDITS["feature_out_of_range"])
        features = tmp_path / "features.csv"
        features.write_text("m_len,m_words,m_freq,label\n1,1,1,\n", encoding="utf-8")
        assert main(["predict", "--model", str(path), "--features", str(features),
                     "--out", str(tmp_path / "out")]) == EXIT_ERROR

    def test_version_1_asks_for_retraining(self, tree_file):
        path, payload = tree_file
        payload["version"] = 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(UnsupportedVersionError, match="retrain"):
            load_model(path)
