"""Skip-gram training, neighbour retrieval and semantic stability."""

import datetime as dt
import itertools
from collections import Counter

import numpy as np
import pytest

from eldiff.corpus import Corpus, Document, GeneratorConfig, generate_synthetic_corpus
from eldiff.embeddings import (
    EmbeddingModel,
    EmbeddingParams,
    _sigmoid,
    _tokenize,
    jaccard,
    load_model,
    save_model,
    semantic_stability,
    sgns_pair_gradients,
    slice_corpus,
    stability_from_neighbor_sets,
    top_k_similar,
    train_skipgram,
    train_slice_models,
)
from eldiff.errors import CorruptModelError, DivergedTrainingError, EmptyVocabularyError


def _cluster_corpus(n_docs=40, seed=3):
    config = GeneratorConfig(
        n_docs=n_docs,
        topics={
            "A": ["alpha", "apex", "arrow", "amber", "atlas"],
            "B": ["bravo", "basin", "baker", "badge", "bison"],
        },
        sentences_per_doc=(3, 5),
        words_per_sentence=(5, 9),
    )
    return generate_synthetic_corpus(config, seed)


# Reference implementations: the per-pair trainer and the full-vocabulary
# sort that the vectorised code must reproduce bit for bit.


def _reference_sigmoid(x):
    x = np.asarray(x)
    positive = x >= 0
    exp = np.exp(np.where(positive, -x, x))
    return np.where(positive, 1.0 / (1.0 + exp), exp / (1.0 + exp))


def _reference_pair_gradients(center_vec, context_vec, negative_vecs):
    pos_score = context_vec @ center_vec
    neg_scores = negative_vecs @ center_vec
    loss = np.logaddexp(0.0, -pos_score) + np.sum(np.logaddexp(0.0, neg_scores))
    pos_grad = _reference_sigmoid(pos_score) - 1.0
    neg_grads = _reference_sigmoid(neg_scores)
    grad_center = pos_grad * context_vec + neg_grads @ negative_vecs
    grad_context = pos_grad * center_vec
    grad_negatives = np.outer(neg_grads, center_vec)
    return loss, grad_center, grad_context, grad_negatives


def _reference_train(docs, params):
    """One rng.random(negatives) draw and one gradient call per pair."""
    sentences, counts = [], Counter()
    for doc in docs:
        for sent in _tokenize(doc):
            sentences.append(sent)
            counts.update(sent)
    vocab_words = sorted((w for w, c in counts.items() if c >= params.min_count),
                         key=lambda w: (-counts[w], w))
    vocab = {w: i for i, w in enumerate(vocab_words)}
    encoded = [[vocab[w] for w in sent if w in vocab] for sent in sentences]
    encoded = [sent for sent in encoded if sent]
    rng = np.random.default_rng(params.seed)
    n_vocab = len(vocab_words)
    center_vecs = ((rng.random((n_vocab, params.dim)) - 0.5) / params.dim).astype(np.float32)
    context_vecs = np.zeros((n_vocab, params.dim), dtype=np.float32)
    noise = np.array([counts[w] for w in vocab_words], dtype=np.float64) ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    total_steps = max(1, params.epochs * sum(len(s) for s in encoded))
    step = duplicated_draws = 0
    for _ in range(params.epochs):
        for sent in encoded:
            for i, center in enumerate(sent):
                lr = max(params.min_learning_rate,
                         params.initial_learning_rate * (1.0 - step / total_steps))
                step += 1
                for j in range(max(0, i - params.window), min(len(sent), i + params.window + 1)):
                    if j == i:
                        continue
                    context = sent[j]
                    draws = np.searchsorted(noise_cdf, rng.random(params.negatives))
                    negatives = draws[draws != context]
                    duplicated_draws += len(set(negatives.tolist())) < len(negatives)
                    _, g_center, g_context, g_neg = _reference_pair_gradients(
                        center_vecs[center], context_vecs[context], context_vecs[negatives]
                    )
                    center_vecs[center] -= lr * g_center
                    context_vecs[context] -= lr * g_context
                    np.subtract.at(context_vecs, negatives, lr * g_neg)
    return vocab, center_vecs, duplicated_draws


def _reference_top_k(model, word, k):
    idx = model.vocab[word]
    query = model.vectors[idx].astype(np.float64)
    matrix = model.vectors.astype(np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    denom = norms * np.linalg.norm(query)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(denom > 0, matrix @ query / np.where(denom > 0, denom, 1.0), 0.0)
    ranked = sorted(
        ((float(sims[i]), model.words[i]) for i in range(len(model.words)) if i != idx),
        key=lambda pair: (-pair[0], pair[1]),
    )
    return {w for _, w in ranked[:k]}


class TestSliceCorpus:
    def test_yearly_buckets(self):
        docs = [
            Document("a", dt.date(1990, 3, 1), "", "x y"),
            Document("b", dt.date(1990, 9, 1), "", "x y"),
            Document("c", dt.date(1992, 1, 1), "", "x y"),
        ]
        slices = slice_corpus(Corpus(docs), years=1)
        assert [(lbl, len(ds)) for lbl, ds in slices] == [("1990", 2), ("1992", 1)]

    def test_single_doc_single_slice(self):
        slices = slice_corpus(Corpus([Document("a", dt.date(1995, 1, 1), "", "x")]), years=1)
        assert len(slices) == 1

    def test_whole_span_one_slice(self):
        docs = [
            Document("a", dt.date(1990, 1, 1), "", "x"),
            Document("b", dt.date(1999, 1, 1), "", "x"),
        ]
        slices = slice_corpus(Corpus(docs), years=10)
        assert len(slices) == 1
        assert slices[0][0] == "1990-1999"

    def test_every_doc_in_exactly_one_slice(self):
        corpus = _cluster_corpus()
        slices = slice_corpus(corpus, years=2)
        ids = [d.id for _, docs in slices for d in docs]
        assert sorted(ids) == sorted(d.id for d in corpus)


class TestTrainSkipgram:
    def test_same_seed_identical_vectors(self):
        corpus = _cluster_corpus(n_docs=12)
        params = EmbeddingParams(dim=8, window=2, epochs=1, min_count=1, seed=42)
        a = train_skipgram(corpus, params)
        b = train_skipgram(corpus, params)
        assert a.vocab == b.vocab
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_min_count_filters_vocabulary(self):
        docs = [Document("a", dt.date(2000, 1, 1), "", "rare common common common common")]
        params = EmbeddingParams(dim=4, window=2, epochs=1, min_count=2, seed=0)
        model = train_skipgram(docs, params)
        assert "common" in model and "rare" not in model

    def test_empty_vocabulary_error(self):
        docs = [Document("a", dt.date(2000, 1, 1), "", "each word appears once only")]
        params = EmbeddingParams(dim=4, window=2, epochs=1, min_count=10, seed=0)
        with pytest.raises(EmptyVocabularyError):
            train_skipgram(docs, params)

    def test_cluster_similarity(self):
        corpus = _cluster_corpus()
        params = EmbeddingParams(dim=16, window=3, epochs=3, min_count=1, seed=1)
        model = train_skipgram(corpus, params)
        a_words = [w for w in model.vocab if w.startswith("a")]
        b_words = [w for w in model.vocab if w.startswith("b")]

        def cos(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        within = [cos(model.vector(x), model.vector(y))
                  for x, y in itertools.combinations(a_words, 2)]
        within += [cos(model.vector(x), model.vector(y))
                   for x, y in itertools.combinations(b_words, 2)]
        across = [cos(model.vector(x), model.vector(y))
                  for x in a_words for y in b_words]
        assert np.mean(within) > np.mean(across)

    def test_vectors_finite(self):
        corpus = _cluster_corpus(n_docs=10)
        model = train_skipgram(corpus, EmbeddingParams(dim=8, epochs=1, min_count=1, seed=5))
        assert np.all(np.isfinite(model.vectors))

    @pytest.mark.parametrize("dim,window,negatives,learning_rate", [
        (8, 1, 1, 0.025),
        (8, 5, 15, 0.025),
        (300, 1, 15, 0.025),
        (300, 5, 1, 0.025),
        (8, 5, 15, 0.2),
        (8, 5, 15, 0.5),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_vectors_equal_per_pair_reference(self, dim, window, negatives, learning_rate):
        docs = list(_cluster_corpus(n_docs=8, seed=6))
        # one-word sentences, before and after the min_count filter, draw no negatives
        docs.append(Document("short", dt.date(2001, 1, 1), "", "alpha. bravo once alpha."))
        params = EmbeddingParams(dim=dim, window=window, negatives=negatives, epochs=2,
                                 min_count=2, initial_learning_rate=learning_rate, seed=17)
        vocab, vectors, duplicated_draws = _reference_train(docs, params)
        if not np.isfinite(vectors).all():
            with pytest.raises(DivergedTrainingError):
                train_skipgram(docs, params)
            return
        model = train_skipgram(docs, params)
        assert model.vocab == vocab
        assert model.vectors.tobytes() == vectors.tobytes()
        if negatives > 1:
            assert duplicated_draws > 0

    def test_vectors_read_only(self):
        model = train_skipgram(_cluster_corpus(n_docs=4),
                               EmbeddingParams(dim=4, epochs=1, min_count=1, seed=1))
        with pytest.raises(ValueError):
            model.vectors[0, 0] = 1.0


class TestGradients:
    def test_pair_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        h = 1e-6
        for _ in range(20):
            dim = int(rng.integers(3, 9))
            k = int(rng.integers(1, 5))
            center = rng.normal(size=dim)
            context = rng.normal(size=dim)
            negatives = rng.normal(size=(k, dim))
            _, g_center, g_context, g_neg = sgns_pair_gradients(center, context, negatives)

            def loss_at(c=center, o=context, n=negatives):
                return sgns_pair_gradients(c, o, n)[0]

            for i in range(dim):
                step = np.zeros(dim)
                step[i] = h
                numeric = (loss_at(c=center + step) - loss_at(c=center - step)) / (2 * h)
                assert abs(numeric - g_center[i]) <= 1e-5 * max(1.0, abs(numeric))
                numeric = (loss_at(o=context + step) - loss_at(o=context - step)) / (2 * h)
                assert abs(numeric - g_context[i]) <= 1e-5 * max(1.0, abs(numeric))
            for j in range(k):
                step = np.zeros((k, dim))
                step[j, 0] = h
                numeric = (loss_at(n=negatives + step) - loss_at(n=negatives - step)) / (2 * h)
                assert abs(numeric - g_neg[j, 0]) <= 1e-5 * max(1.0, abs(numeric))

    def test_pair_gradients_equal_reference(self):
        rng = np.random.default_rng(12)
        for dtype in (np.float32, np.float64):
            for k in (0, 1, 5):
                center, context = rng.normal(size=(2, 7)).astype(dtype) * 4
                negatives = rng.normal(size=(k, 7)).astype(dtype) * 4
                ours = sgns_pair_gradients(center, context, negatives)
                reference = _reference_pair_gradients(center, context, negatives)
                for a, b in zip(ours, reference):
                    assert np.asarray(a).dtype == np.asarray(b).dtype
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_equals_reference(self, dtype):
        values = np.array([0.0, -0.0, 88.0, -88.0, 1e4, -1e4, np.nan, 0.3, -2.5], dtype=dtype)
        for x in [values, values[::-1].copy(), *values]:
            ours, reference = np.asarray(_sigmoid(x)), _reference_sigmoid(x)
            assert ours.dtype == reference.dtype == dtype
            assert ours.tobytes() == reference.tobytes()


class TestTopKSimilar:
    def _model(self):
        vocab = {"q": 0, "x": 1, "y": 2}
        # cos(q, x) = 1/sqrt(2), cos(q, y) = -1
        vectors = np.array([[1.0, 0.0], [1.0, 1.0], [-1.0, 0.0]], dtype=np.float32)
        return EmbeddingModel(vocab, vectors, "t")

    def test_hand_computed_nearest_neighbor(self):
        words, in_vocab = top_k_similar(self._model(), "q", 1)
        assert in_vocab and words == {"x"}

    def test_k_covers_whole_vocab(self):
        words, _ = top_k_similar(self._model(), "q", 10)
        assert words == {"x", "y"}

    def test_oov_flagged(self):
        words, in_vocab = top_k_similar(self._model(), "missing", 3)
        assert words == set() and not in_vocab

    def test_query_never_included(self):
        words, _ = top_k_similar(self._model(), "q", 3)
        assert "q" not in words

    def test_lexicographic_tie_break(self):
        vocab = {"q": 0, "b": 1, "a": 2}
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], dtype=np.float32)
        words, _ = top_k_similar(EmbeddingModel(vocab, vectors, "t"), "q", 1)
        assert words == {"a"}

    def test_equal_to_full_sort_with_ties(self):
        rng = np.random.default_rng(21)
        letters = list("abcdefgh")
        for _ in range(60):
            n_vocab = int(rng.integers(2, 30))
            dim = int(rng.integers(1, 4))
            # small integer entries make many exactly equal cosines
            vectors = rng.integers(-1, 2, size=(n_vocab, dim)).astype(np.float32)
            for row in rng.choice(n_vocab, size=n_vocab // 4, replace=False):
                vectors[row] = vectors[rng.integers(n_vocab)]  # duplicate rows
            vectors[rng.integers(n_vocab)] = 0.0  # a zero vector
            words = set()
            while len(words) < n_vocab:
                words.add("".join(rng.choice(letters, size=int(rng.integers(1, 4)))))
            vocab = {w: i for i, w in enumerate(rng.permutation(sorted(words)))}
            model = EmbeddingModel(vocab, vectors, "t")
            for word in vocab:
                for k in sorted({1, 2, 3, max(1, n_vocab - 2), n_vocab - 1, n_vocab, n_vocab + 4}):
                    found, in_vocab = top_k_similar(model, word, k)
                    assert in_vocab
                    assert found == _reference_top_k(model, word, k), (word, k)

    def test_equal_to_full_sort_on_random_vectors(self):
        rng = np.random.default_rng(22)
        vectors = rng.normal(size=(400, 16)).astype(np.float32)
        vocab = {f"w{i:03d}": int(j) for i, j in enumerate(rng.permutation(400))}
        model = EmbeddingModel(vocab, vectors, "t")
        for word in list(vocab)[:40]:
            for k in (1, 10, 398, 399):
                assert top_k_similar(model, word, k)[0] == _reference_top_k(model, word, k)


class TestJaccard:
    def test_half(self):
        assert jaccard({"a", "b", "c"}, {"b", "c", "d"}) == 0.5

    def test_identical(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_both_empty_convention(self):
        assert jaccard(set(), set()) == 0.0

    def test_symmetry_and_equality_property(self):
        rng = np.random.default_rng(4)
        universe = [f"w{i}" for i in range(10)]
        for _ in range(100):
            a = {w for w in universe if rng.random() < 0.5}
            b = {w for w in universe if rng.random() < 0.5}
            assert jaccard(a, b) == jaccard(b, a)
            if a or b:
                assert (jaccard(a, b) == 1.0) == (a == b)


class TestSemanticStability:
    def test_hand_built_sets(self):
        # jaccard({a,b,c},{c,d,e}) = 1/5, jaccard({c,d,e},{c,d,e,f,g}) = 3/5
        sets = [{"a", "b", "c"}, {"c", "d", "e"}, {"c", "d", "e", "f", "g"}]
        result = stability_from_neighbor_sets(sets)
        assert result.valid
        assert (result.minimum, result.maximum, result.average) == (0.2, 0.6, 0.4)

    def test_identical_sets_give_ones(self):
        vocab = {"q": 0, "x": 1, "y": 2}
        vectors = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]], dtype=np.float32)
        models = [EmbeddingModel(vocab, vectors, str(year)) for year in (1990, 1991, 1992)]
        result = semantic_stability(models, "q", 2)
        assert result.valid
        assert (result.minimum, result.maximum, result.average) == (1.0, 1.0, 1.0)

    def test_word_absent_everywhere(self):
        vocab = {"x": 0, "y": 1}
        vectors = np.eye(2, dtype=np.float32)
        models = [EmbeddingModel(vocab, vectors, str(y)) for y in (1990, 1991)]
        result = semantic_stability(models, "absent", 2)
        assert not result.valid
        assert result.minimum is None

    def test_gap_slice_skipped(self):
        sets = [{"a", "b"}, None, {"a", "b"}]
        assert not stability_from_neighbor_sets(sets).valid

    def test_min_avg_max_ordering_property(self):
        rng = np.random.default_rng(8)
        universe = [f"w{i}" for i in range(12)]
        for _ in range(50):
            sets = []
            for _ in range(4):
                if rng.random() < 0.2:
                    sets.append(None)
                else:
                    sets.append({w for w in universe if rng.random() < 0.4})
            result = stability_from_neighbor_sets(sets)
            if result.valid:
                assert result.minimum <= result.average <= result.maximum

    def test_needs_two_models(self):
        vocab = {"x": 0}
        model = EmbeddingModel(vocab, np.ones((1, 2), dtype=np.float32), "t")
        with pytest.raises(ValueError):
            semantic_stability([model], "x", 2)


class TestPersistence:
    def test_roundtrip_lossless(self, tmp_path):
        corpus = _cluster_corpus(n_docs=10)
        model = train_skipgram(corpus, EmbeddingParams(dim=6, epochs=1, min_count=1, seed=2),
                               slice_label="1990")
        path = tmp_path / "m.vec"
        save_model(model, path)
        again = load_model(path)
        assert again.vocab == model.vocab
        assert again.slice_label == "1990"
        np.testing.assert_array_equal(again.vectors, model.vectors)
        # second save produces identical bytes
        path2 = tmp_path / "m2.vec"
        save_model(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "m.vec"
        path.write_text(f"3 2 1990\nx 1 2\ny 0.5 {bad}\nz 3 4\n", encoding="utf-8")
        with pytest.raises(CorruptModelError, match="row 2 has a non-finite value"):
            load_model(path)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    def test_float32_overflow_rejected(self, tmp_path):
        path = tmp_path / "m.vec"
        path.write_text("1 2 1990\nx 1e39 2\n", encoding="utf-8")
        with pytest.raises(CorruptModelError, match="row 1 has a non-finite value"):
            load_model(path)

    def test_slice_models_ordered(self):
        corpus = _cluster_corpus(n_docs=24)
        params = EmbeddingParams(dim=6, epochs=1, min_count=1, seed=2)
        models = train_slice_models(corpus, params, years=3)
        labels = [m.slice_label for m in models]
        assert labels == sorted(labels)
