"""Acceptance suite: one test per criterion, each printing a verdict line.

Headline numbers from the original study are not reproducible without the
licensed corpora and live linkers, so acceptance is property-based plus
qualitative-shape checks on synthetic data, at the stated tolerances.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from eldiff.cli import main
from eldiff.consensus import Label, label
from eldiff.corpus import GeneratorConfig, generate_synthetic_corpus
from eldiff.embeddings import EmbeddingParams, sgns_pair_gradients, train_skipgram
from eldiff.learn.dataset import Dataset
from eldiff.learn.models import softmax_loss_and_grads, train
from eldiff.learn.validation import cross_validate, stratified_kfold, undersample
from eldiff.learn.analysis import mdi, pearson_matrix
from eldiff.simulate import (
    Strategy,
    accuracy,
    apply_feedback,
    run_simulation,
    select_mentions,
)
from simulate_oracle import pool_from_mappings


def _passed(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def make_dataset(x, y, columns=None, categories=None):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    columns = tuple(columns) if columns else tuple(f"f{i}" for i in range(x.shape[1]))
    return Dataset(columns, x, y, categories or {})


def brute_force_label(entities):
    """Direct re-statement of the three defining cases for n systems."""
    distinct = all(a != b for i, a in enumerate(entities) for b in entities[i + 1:])
    if distinct:
        return Label.HARD
    if all(e == entities[0] for e in entities):
        return Label.EASY
    return Label.MEDIUM


class TestC01LabellingPartition:
    def test_c01_partition_matches_brute_force(self):
        rng = np.random.default_rng(42)
        triples = [tuple(f"E{v}" for v in rng.integers(0, 5, size=3)) for _ in range(10_000)]
        start = time.perf_counter()
        labels = [label(t) for t in triples]
        elapsed = time.perf_counter() - start
        sets = {lbl: set() for lbl in Label}
        for i, (t, lbl) in enumerate(zip(triples, labels)):
            assert lbl is brute_force_label(t)
            sets[lbl].add(i)
        assert sets[Label.HARD] | sets[Label.MEDIUM] | sets[Label.EASY] == set(range(10_000))
        assert not sets[Label.HARD] & sets[Label.MEDIUM]
        assert not sets[Label.HARD] & sets[Label.EASY]
        assert not sets[Label.MEDIUM] & sets[Label.EASY]
        assert elapsed < 1.0
        _passed("C01", f"(10,000 triples in {elapsed:.3f}s, partition exact)")


class TestC02LabellingDistribution:
    def test_c02_fractions_match_multinomial_expectation(self):
        # entities iid uniform over V values: per-pair agreement q = 1/V.
        # expectation computed by exhaustive enumeration of all V^3 triples
        # (independent oracle), not by the labelling code under test.
        v = 4
        n = 10_000
        expected = {lbl: 0 for lbl in Label}
        for triple in product(range(v), repeat=3):
            expected[brute_force_label(tuple(map(str, triple)))] += 1
        expected = {lbl: c / v ** 3 for lbl, c in expected.items()}
        # closed form for reference: EASY q^2, HARD (1-q)(1-2q)
        q = 1 / v
        assert expected[Label.EASY] == pytest.approx(q ** 2)
        assert expected[Label.HARD] == pytest.approx((1 - q) * (1 - 2 * q))

        rng = np.random.default_rng(7)
        draws = rng.integers(0, v, size=(n, 3))
        counts = {lbl: 0 for lbl in Label}
        for row in draws:
            counts[label(tuple(map(str, row)))] += 1
        for lbl in Label:
            p = expected[lbl]
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[lbl] / n - p) <= 3 * sigma, lbl
        _passed("C02", f"(V={v}, all classes within 3 sigma of enumeration)")


def oracle_entropy(labels):
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


class TestC03ClassifierOracles:
    def test_c03_nb_closed_form_and_tree_oracle(self):
        # Gaussian NB vs hand-computed closed form on a 4-row fixture
        model = train(make_dataset([[1.0], [2.0], [5.0], [7.0]], [0, 0, 2, 2]), "gaussian_nb")

        def pdf(v, mean, var):
            return math.exp(-((v - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)

        hard = 0.5 * pdf(2.5, 1.5, 0.25)
        easy = 0.5 * pdf(2.5, 6.0, 1.0)
        expected = np.array([hard, 0.0, easy]) / (hard + easy)
        np.testing.assert_allclose(
            model.predict_proba(np.array([[2.5]]))[0], expected, atol=1e-9
        )

        # first tree split vs exhaustive enumeration, 100% agreement
        rng = np.random.default_rng(123)
        compared = 0
        while compared < 50:
            n = int(rng.integers(8, 65))
            n_features = int(rng.integers(2, 5))
            x = rng.integers(0, 2, size=(n, n_features)).astype(np.float64)
            y = rng.integers(0, 3, size=n)
            if len(set(y.tolist())) < 2:
                continue
            tree = train(make_dataset(x, y), "decision_tree")
            expected_split = oracle_best_split(x, y)
            if expected_split is None:
                assert tree.tree.feature[0] == -1
            else:
                assert tree.tree.feature[0] == expected_split[1]
                assert tree.tree.threshold[0] == expected_split[2]
            compared += 1
        _passed("C03", "(NB posterior 1e-9; 50/50 tree splits equal oracle)")


class TestC04GradientChecks:
    def test_c04_logistic_and_skipgram_gradients(self):
        rng = np.random.default_rng(99)
        h = 1e-6

        def close(numeric, analytic):
            assert abs(numeric - analytic) <= 1e-5 * max(1.0, abs(numeric))

        for _ in range(20):
            n, d = int(rng.integers(4, 9)), int(rng.integers(2, 5))
            x = rng.normal(size=(n, d))
            y_onehot = np.zeros((n, 3))
            y_onehot[np.arange(n), rng.integers(0, 3, size=n)] = 1.0
            w = rng.normal(size=(3, d))
            b = rng.normal(size=3)
            _, grad_w, grad_b = softmax_loss_and_grads(w, b, x, y_onehot, 1e-8)
            for index in [(0, 0), (1, d - 1), (2, d // 2)]:
                bump = np.zeros_like(w)
                bump[index] = h
                numeric = (softmax_loss_and_grads(w + bump, b, x, y_onehot, 1e-8)[0]
                           - softmax_loss_and_grads(w - bump, b, x, y_onehot, 1e-8)[0]) / (2 * h)
                close(numeric, grad_w[index])
            bump = np.array([h, 0.0, 0.0])
            numeric = (softmax_loss_and_grads(w, b + bump, x, y_onehot, 1e-8)[0]
                       - softmax_loss_and_grads(w, b - bump, x, y_onehot, 1e-8)[0]) / (2 * h)
            close(numeric, grad_b[0])

        for _ in range(20):
            dim = int(rng.integers(2, 8))
            k = int(rng.integers(1, 5))
            center = rng.normal(size=dim)
            context = rng.normal(size=dim)
            negatives = rng.normal(size=(k, dim))
            _, g_center, g_context, g_neg = sgns_pair_gradients(center, context, negatives)

            def loss(c=center, o=context, neg=negatives):
                return sgns_pair_gradients(c, o, neg)[0]

            bump = np.zeros(dim)
            bump[0] = h
            close((loss(c=center + bump) - loss(c=center - bump)) / (2 * h), g_center[0])
            close((loss(o=context + bump) - loss(o=context - bump)) / (2 * h), g_context[0])
            nbump = np.zeros((k, dim))
            nbump[0, 0] = h
            close((loss(neg=negatives + nbump) - loss(neg=negatives - nbump)) / (2 * h),
                  g_neg[0, 0])
        _passed("C04", "(20+20 random instances within 1e-5 relative)")


class TestC05SeparablePerformance:
    def test_c05_forest_macro_f1_on_noiseless_labels(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 1.0, size=(3000, 2))
        total = x[:, 0] + x[:, 1]
        y = np.where(total < 0.7, 0, np.where(total < 1.4, 1, 2))
        dataset = make_dataset(x, y)
        start = time.perf_counter()
        result = cross_validate(dataset, "random_forest", k=10, seed=5, n_trees=100)
        elapsed = time.perf_counter() - start
        assert result.report.macro_f1 >= 0.95
        assert elapsed < 30.0
        _passed("C05", f"(macro F1 {result.report.macro_f1:.3f} in {elapsed:.1f}s)")


class TestC06ClassCollapse:
    def test_c06_uninformative_feature_collapses_to_majority(self):
        # mention-length style: one feature, constant, 76/21/3 skew
        y = np.array([0] * 30 + [1] * 210 + [2] * 760)
        y = np.random.default_rng(2).permutation(y)
        x = np.full((len(y), 1), 5.0)
        dataset = make_dataset(x, y, columns=("m_len",))
        for variant in ("gaussian_nb", "logistic_regression", "decision_tree", "random_forest"):
            kwargs = {"n_trees": 20} if variant == "random_forest" else {}
            result = cross_validate(dataset, variant, k=10, seed=3, **kwargs)
            report = result.report
            easy = report.per_class[Label.EASY]
            assert easy.recall == 1.0, variant
            assert report.per_class[Label.HARD].precision is None, variant
            assert report.per_class[Label.MEDIUM].precision is None, variant
            assert report.confusion[:, 2].sum() == len(y), variant  # only EASY predicted
        _passed("C06", "(all four classifiers assign every instance to EASY)")


class TestC07BalancingBehavior:
    def test_c07_balanced_training_raises_minority_recall(self):
        recall_up = 0
        precision_down = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            counts = {0: 40, 1: 120, 2: 440}
            centers = {0: (0.0, 0.0), 1: (1.3, 0.0), 2: (2.6, 0.0)}
            xs, ys = [], []
            for c, n in counts.items():
                xs.append(rng.normal(centers[c], 1.1, size=(n, 2)))
                ys.append(np.full(n, c))
            dataset = make_dataset(np.vstack(xs), np.concatenate(ys))
            unbalanced = cross_validate(dataset, "random_forest", k=5, seed=seed, n_trees=15)
            balanced = cross_validate(dataset, "random_forest", k=5, balanced=True,
                                      seed=seed, n_trees=15)
            hard_unbal = unbalanced.report.per_class[Label.HARD]
            hard_bal = balanced.report.per_class[Label.HARD]
            if (hard_bal.recall or 0.0) > (hard_unbal.recall or 0.0):
                recall_up += 1
            # an undefined unbalanced precision means HARD was never predicted:
            # vacuously perfect, so any defined balanced precision is a drop
            unbal_precision = 1.0 if hard_unbal.precision is None else hard_unbal.precision
            if (hard_bal.precision or 0.0) < unbal_precision:
                precision_down += 1
        assert recall_up >= 6, recall_up
        assert precision_down >= 6, precision_down
        _passed("C07", f"(recall up {recall_up}/10, precision down {precision_down}/10)")


class TestC08MdiSanity:
    def test_c08_signal_first_noise_last(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            signal = rng.normal(size=250)
            weak = signal + rng.normal(scale=2.5, size=250)
            noise = rng.normal(size=250)
            y = np.where(signal < -0.4, 0, np.where(signal < 0.5, 1, 2))
            dataset = make_dataset(np.column_stack([signal, weak, noise]), y,
                                   columns=("signal", "weak", "noise"))
            forest = train(dataset, "random_forest", seed=seed, n_trees=15)
            ranking = [name for name, _ in mdi(forest).ranking()]
            if ranking[0] == "signal" and ranking[-1] == "noise":
                hits += 1
        assert hits >= 19, hits
        _passed("C08", f"(signal first and noise last in {hits}/20 runs)")


class TestC09Pearson:
    def test_c09_exact_affine_and_hand_fixture(self):
        base = np.arange(12, dtype=np.float64)
        ds = make_dataset(np.column_stack([base, 2 * base + 3, -base]),
                          np.zeros(12, dtype=int))
        result = pearson_matrix(ds)
        assert abs(result.value("f0", "f1") - 1.0) < 1e-12
        assert abs(result.value("f0", "f2") + 1.0) < 1e-12
        ds2 = make_dataset(np.array([[1.0, 1.0], [2.0, 3.0], [3.0, 2.0]]),
                           np.zeros(3, dtype=int))
        assert abs(pearson_matrix(ds2).value("f0", "f1") - 0.5) < 1e-12
        _passed("C09", "(affine +/-1 and r=0.5 fixture within 1e-12)")


class TestC10Stratification:
    def test_c10_fold_proportions_and_undersampling(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            k = int(rng.integers(2, 9))
            counts = [int(rng.integers(k, 60)) for _ in range(3)]
            y = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
            y = np.random.default_rng(trial).permutation(y)
            splits = stratified_kfold(y, k, seed=trial)
            seen = np.concatenate([test for _, test in splits])
            assert sorted(seen.tolist()) == list(range(len(y)))
            for train_idx, test_idx in splits:
                fold_counts = np.bincount(y[test_idx], minlength=3)
                for c in range(3):
                    assert abs(fold_counts[c] - counts[c] / k) < 1.0
                balanced = undersample(train_idx, y, seed=trial)
                balanced_counts = np.bincount(y[balanced], minlength=3)
                present = balanced_counts[balanced_counts > 0]
                assert len(set(present.tolist())) == 1  # equalized
                assert set(balanced) <= set(train_idx)  # test folds untouched
        _passed("C10", "(100 random datasets: folds within 1; balancing train-only)")


class TestC11SimulationArithmetic:
    def test_c11_exact_gain_and_difficult_dominates_random(self):
        # exact per-repetition arithmetic: after - before = wrong-selected / evaluated
        rng = np.random.default_rng(17)
        n = 60
        keys = [("d", i, f"m{i}") for i in range(n)]
        gold = {k: "G" for k in keys}
        for seed in range(10):
            wrong = set(rng.choice(n, size=14, replace=False).tolist())
            choices = {k: ("W" if i in wrong else "G") for i, k in enumerate(keys)}
            labels = {k: (Label.HARD if i in wrong else Label.EASY)
                      for i, k in enumerate(keys)}
            before = accuracy(choices, gold)
            for budget in (5, 10, 20):
                for rep in range(10):
                    selected = select_mentions(
                        Strategy.RANDOM, budget, sorted(keys), seed=1000 * seed + rep
                    )
                    after = accuracy(apply_feedback(choices, selected, gold), gold)
                    wrong_selected = sum(1 for k in selected if choices[k] != "G")
                    assert after - before == pytest.approx(wrong_selected / n, abs=1e-15)

        # HARD labels constructed to coincide with system errors:
        # DIFFICULT mean improvement >= RANDOM at every budget, 10 seeds
        for seed in range(10):
            local = np.random.default_rng(300 + seed)
            wrong = set(local.choice(n, size=14, replace=False).tolist())
            choices = {k: ("W" if i in wrong else "G") for i, k in enumerate(keys)}
            labels = {k: (Label.HARD if i in wrong else Label.EASY)
                      for i, k in enumerate(keys)}
            result = run_simulation(pool_from_mappings({"sys": choices}, gold, labels),
                                    budgets=[5, 10, 20], repetitions=10, seed=seed)
            for budget in result.budgets:
                difficult = result.outcome("sys", Strategy.DIFFICULT, budget).mean_after
                random_mean = result.outcome("sys", Strategy.RANDOM, budget).mean_after
                assert difficult >= random_mean
        _passed("C11", "(exact accuracy arithmetic; DIFFICULT >= RANDOM at every budget)")


class TestC12PipelineDeterminism:
    def _run_pipeline(self, root, threads):
        fix = root / "fix"
        out = root / "out"
        steps = [
            ["gen-synthetic", "--out", fix, "--seed", 23, "--docs", 50],
            ["label", "--annotations", fix / "alpha.tsv", fix / "beta.tsv",
             fix / "gamma.tsv", "--out", out, "--seed", 23],
            ["features", "--corpus", fix / "corpus.jsonl",
             "--mentions", out / "labels.tsv", "--candidates", fix / "candidates.tsv",
             "--annotations", fix / "alpha.tsv", fix / "beta.tsv", fix / "gamma.tsv",
             "--train-embeddings", "--embed-dim", 10, "--embed-epochs", 1,
             "--embed-min-count", 1, "--slice-years", 3,
             "--out", out, "--seed", 23],
            ["train", "--features", out / "features.csv", "--variant", "random_forest",
             "--trees", 8, "--out", out, "--seed", 23],
            ["predict", "--model", out / "model.json", "--features", out / "features.csv",
             "--mentions", out / "labels.tsv", "--out", out, "--seed", 23],
            ["eval", "--features", out / "features.csv",
             "--variants", "gaussian_nb,random_forest", "--trees", 8, "--folds", 3,
             "--balancing", "unbalanced", "--out", out, "--seed", 23],
            ["importance", "--model", out / "model.json", "--out", out],
            ["correlate", "--features", out / "features.csv", "--out", out],
            ["simulate", "--labels", out / "labels.tsv", "--gold", fix / "gold.tsv",
             "--candidates", fix / "candidates.tsv", "--predictions", out / "predictions.tsv",
             "--systems", "alpha,beta,gamma", "--budgets", "0.05,0.10",
             "--repetitions", 5, "--out", out, "--seed", 23],
        ]
        for step in steps:
            argv = [str(a) for a in step] + ["--threads", str(threads)]
            assert main(argv) == 0, step[0]
        produced = sorted(
            p.relative_to(root) for p in root.rglob("*") if p.is_file()
        )
        return {p: (root / p).read_bytes() for p in produced}

    def test_c12_byte_identical_across_runs_and_threads(self, tmp_path):
        first = self._run_pipeline(tmp_path / "run1", threads=1)
        second = self._run_pipeline(tmp_path / "run2", threads=1)
        threaded = self._run_pipeline(tmp_path / "run3", threads=4)
        assert list(first) == list(second) == list(threaded)
        assert len(first) > 15
        for name in first:
            assert first[name] == second[name], f"{name} differs between identical runs"
            assert first[name] == threaded[name], f"{name} differs across thread counts"
        _passed("C12", f"({len(first)} files byte-identical, 1 vs 4 threads)")


class TestC13EmbeddingQuality:
    def test_c13_cluster_similarity_across_seeds(self):
        config = GeneratorConfig(
            n_docs=40,
            topics={
                "A": ["alpha", "apex", "arrow", "amber", "atlas"],
                "B": ["bravo", "basin", "baker", "badge", "bison"],
            },
            sentences_per_doc=(3, 5),
            words_per_sentence=(5, 9),
        )
        corpus = generate_synthetic_corpus(config, seed=77)
        a_words = sorted(config.topics["A"])
        b_words = sorted(config.topics["B"])

        def mean_cos(model, pairs):
            values = []
            for u, v in pairs:
                vu, vv = model.vector(u), model.vector(v)
                values.append(float(vu @ vv / (np.linalg.norm(vu) * np.linalg.norm(vv))))
            return float(np.mean(values))

        within_pairs = [(u, v) for ws in (a_words, b_words)
                        for i, u in enumerate(ws) for v in ws[i + 1:]]
        cross_pairs = [(u, v) for u in a_words for v in b_words]
        hits = 0
        slowest = 0.0
        for seed in range(20):
            params = EmbeddingParams(dim=25, window=3, epochs=2, min_count=1, seed=seed)
            start = time.perf_counter()
            model = train_skipgram(corpus, params)
            elapsed = time.perf_counter() - start
            slowest = max(slowest, elapsed)
            assert elapsed < 60.0
            if mean_cos(model, within_pairs) > mean_cos(model, cross_pairs):
                hits += 1
        assert hits >= 19, hits
        _passed("C13", f"(within > cross in {hits}/20 seeds; slowest run {slowest:.1f}s)")
