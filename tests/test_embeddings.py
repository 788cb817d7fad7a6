"""Skip-gram training, neighbour retrieval and semantic stability."""

import datetime as dt
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eldiff import embeddings
from eldiff.corpus import Corpus, Document, GeneratorConfig, generate_synthetic_corpus
from eldiff.embeddings import (
    EmbeddingModel,
    EmbeddingParams,
    StabilityResult,
    _sigmoid,
    _tokenize,
    jaccard,
    load_model,
    save_model,
    semantic_stability,
    sgns_pair_gradients,
    slice_corpus,
    stability_all,
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
    step = duplicated_draws = context_draws = 0
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
                    context_draws += len(negatives) < len(draws)
                    _, g_center, g_context, g_neg = _reference_pair_gradients(
                        center_vecs[center], context_vecs[context], context_vecs[negatives]
                    )
                    center_vecs[center] -= lr * g_center
                    context_vecs[context] -= lr * g_context
                    np.subtract.at(context_vecs, negatives, lr * g_neg)
    return vocab, center_vecs, duplicated_draws, context_draws


def _reference_save(model, path):
    """The writer that formatted one np.float32 at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(model.words)} {model.vectors.shape[1]} {model.slice_label}\n")
        for word, row in zip(model.words, model.vectors):
            values = " ".join(f"{float(x):.9g}" for x in row)
            fh.write(f"{word} {values}\n")


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
        vocab, vectors, duplicated_draws, _ = _reference_train(docs, params)
        if not np.isfinite(vectors).all():
            with pytest.raises(DivergedTrainingError):
                train_skipgram(docs, params)
            return
        model = train_skipgram(docs, params)
        assert model.vocab == vocab
        assert model.vectors.tobytes() == vectors.tobytes()
        if negatives > 1:
            assert duplicated_draws > 0

    @pytest.mark.parametrize("text,window,negatives,epochs", [
        # two words: most draws equal the context, and kept draws repeat
        ("a b a b a b. b a a b. a b", 2, 5, 2),
        ("a b c a c b. c c a b a. b", 1, 1, 1),
        # a window longer than every sentence
        ("a b c. b a. c a b c a. a c", 10, 3, 2),
        ("a b c a c b. c c a b a. b a b", 3, 4, 3),
    ])
    def test_small_vocabulary_equals_per_pair_reference(self, text, window, negatives, epochs):
        docs = [Document("d", dt.date(2000, 1, 1), "", text)]
        params = EmbeddingParams(dim=7, window=window, negatives=negatives, epochs=epochs,
                                 min_count=1, seed=5)
        vocab, vectors, duplicated_draws, context_draws = _reference_train(docs, params)
        model = train_skipgram(docs, params)
        assert model.vocab == vocab
        assert model.vectors.tobytes() == vectors.tobytes()
        # draws equal to the context were dropped, and kept draws repeated
        # (the np.subtract.at branch)
        assert context_draws > 0
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
        values = np.array([0.0, -0.0, 88.0, -88.0, 100.0, -100.0, 1e4, -1e4, np.inf, -np.inf,
                           np.nan, -np.nan, 0.3, -2.5], dtype=dtype)
        for x in [values, values[::-1].copy(), *values]:
            ours, reference = np.asarray(_sigmoid(x)), _reference_sigmoid(x)
            assert ours.dtype == reference.dtype == dtype
            assert ours.tobytes() == reference.tobytes()


class TestTrimmedPairStep:
    """The pair step's stacked rows, one sigmoid and one store against the
    one-pair-at-a-time reference, on the cases its bookkeeping splits."""

    @pytest.mark.parametrize("negatives", [1, 4])
    def test_pairs_without_negatives(self, negatives):
        # one word: every draw is the context, so every pair's rows are the
        # context's alone (negatives > 1 also sends each pair to np.subtract.at)
        docs = [Document("d", dt.date(2000, 1, 1), "", "a a a a. a a a")]
        params = EmbeddingParams(dim=5, window=2, negatives=negatives, epochs=2,
                                 min_count=1, seed=4)
        vocab, vectors, _, context_draws = _reference_train(docs, params)
        assert context_draws == 2 * (10 + 6)  # every pair: 10 and 6 a sentence, two epochs
        assert train_skipgram(docs, params).vectors.tobytes() == vectors.tobytes()

    def test_some_pairs_without_negatives(self):
        # two words, one draw: half the draws are the context
        docs = [Document("d", dt.date(2000, 1, 1), "", "a b a b a b. b a a b. a b b a")]
        params = EmbeddingParams(dim=6, window=3, negatives=1, epochs=2, min_count=1, seed=9)
        _, vectors, _, context_draws = _reference_train(docs, params)
        assert context_draws > 0
        assert train_skipgram(docs, params).vectors.tobytes() == vectors.tobytes()

    @pytest.mark.parametrize("negatives", [3, 8])
    def test_every_pair_takes_subtract_at(self, negatives):
        # more draws than words: every pair's draws repeat
        docs = [Document("d", dt.date(2000, 1, 1), "", "a b b a b a a. b a b b a")]
        params = EmbeddingParams(dim=4, window=4, negatives=negatives, epochs=3,
                                 min_count=1, seed=2)
        _, vectors, _, _ = _reference_train(docs, params)
        assert train_skipgram(docs, params).vectors.tobytes() == vectors.tobytes()

    def test_dim_300(self):
        docs = list(_cluster_corpus(n_docs=6, seed=8))
        params = EmbeddingParams(dim=300, window=5, negatives=5, epochs=1, min_count=1, seed=13)
        vocab, vectors, _, _ = _reference_train(docs, params)
        model = train_skipgram(docs, params)
        assert model.vocab == vocab
        assert model.vectors.tobytes() == vectors.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_learning_rate_still_refused(self):
        docs = list(_cluster_corpus(n_docs=6, seed=8))
        params = EmbeddingParams(dim=8, window=5, negatives=5, epochs=2, min_count=1,
                                 initial_learning_rate=1e6, seed=13)
        _, vectors, _, _ = _reference_train(docs, params)
        assert not np.isfinite(vectors).all()
        with pytest.raises(DivergedTrainingError):
            train_skipgram(docs, params)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pair_gradients_equal_reference_at_scale(self, dtype):
        rng = np.random.default_rng(31)
        for dim, k in ((300, 5), (300, 15), (50, 0), (1, 3)):
            center, context = rng.normal(size=(2, dim)).astype(dtype)
            negatives = rng.normal(size=(k, dim)).astype(dtype)
            ours = sgns_pair_gradients(center, context, negatives)
            reference = _reference_pair_gradients(center, context, negatives)
            for a, b in zip(ours, reference):
                assert np.asarray(a).dtype == np.asarray(b).dtype == dtype
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_pair_gradients_of_mixed_dtypes_equal_reference(self):
        rng = np.random.default_rng(32)
        center = rng.normal(size=7)
        context, *negatives = rng.normal(size=(4, 7)).astype(np.float32)
        ours = sgns_pair_gradients(center, context, np.array(negatives))
        reference = _reference_pair_gradients(center, context, np.array(negatives))
        for a, b in zip(ours, reference):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


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


class TestTrimmedQuery:
    """The two-pass ranking against the full sort, and the guarded form kept
    for a zero row."""

    @staticmethod
    def _guarded_queries(model, monkeypatch):
        """How many of the model's queries compute np.where."""
        calls = []
        where = np.where
        guarded = 0
        with monkeypatch.context() as patch:
            patch.setattr(embeddings.np, "where", lambda *a: calls.append(1) or where(*a))
            for word in model.vocab:
                before = len(calls)
                top_k_similar(model, word, 1)
                guarded += len(calls) > before
        return guarded

    @staticmethod
    def _all_queries_equal_reference(model):
        matrix = model.vectors.astype(np.float64)
        for word in model.vocab:
            for k in range(1, len(model) + 2):
                expected = _reference_top_k(model, word, k)
                assert top_k_similar(model, word, k) == (expected, True), (word, k)
                assert top_k_similar(model, word, k, matrix) == (expected, True), (word, k)

    def test_zero_row_takes_guarded_form(self, monkeypatch):
        vectors = np.array([[1, 0], [0, 0], [1, 1], [-1, 2], [0, 0], [3, 1]], dtype=np.float32)
        model = EmbeddingModel({w: i for i, w in enumerate("qzxyow")}, vectors, "t")
        assert model.min_norm == 0.0
        self._all_queries_equal_reference(model)
        assert self._guarded_queries(model, monkeypatch) == len(model)

    def test_subnormal_rows_take_two_passes(self, monkeypatch):
        # float32 norms are at least 2**-149, so their float64 products (at
        # least 2**-298) never underflow: no row is guarded
        tiny = np.finfo(np.float32).smallest_subnormal
        vectors = np.array([[tiny, 0], [0, tiny], [tiny, tiny], [-tiny, 3 * tiny],
                            [1e-38, -1e-39], [1.0, 2.0]], dtype=np.float32)
        model = EmbeddingModel({w: i for i, w in enumerate("abcdef")}, vectors, "t")
        assert model.min_norm * model.min_norm > 0
        self._all_queries_equal_reference(model)
        assert self._guarded_queries(model, monkeypatch) == 0

    def test_ties_at_the_kth_similarity(self):
        # five words share the second similarity to q, so k = 2..5 cut inside the tie
        vectors = np.array([[1, 0], [1, 0.25], [0, 1], [0, 2], [0, 3], [0, 1], [0, 5],
                            [-1, 0]], dtype=np.float32)
        model = EmbeddingModel({w: i for i, w in enumerate(["q", "p", "e", "b", "d", "a", "c",
                                                             "z"])}, vectors, "t")
        self._all_queries_equal_reference(model)
        assert top_k_similar(model, "q", 3)[0] == {"p", "a", "b"}

    def test_one_word_model(self):
        model = EmbeddingModel({"only": 0}, np.ones((1, 3), dtype=np.float32), "t")
        for k in (1, 2):
            assert top_k_similar(model, "only", k) == (set(), True)
            assert _reference_top_k(model, "only", k) == set()


_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 1e-45, -1e-40, 1e30])


@st.composite
def small_models(draw):
    n_vocab = draw(st.integers(1, 9))
    dim = draw(st.integers(1, 4))
    rows = [draw(st.one_of(st.just([0.0] * dim),
                           st.lists(_ENTRIES, min_size=dim, max_size=dim)))
            for _ in range(n_vocab)]
    words = draw(st.lists(st.text(alphabet="abc", min_size=1, max_size=3),
                          min_size=n_vocab, max_size=n_vocab, unique=True))
    return EmbeddingModel({w: i for i, w in enumerate(words)},
                          np.array(rows, dtype=np.float32), "t")


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(model=small_models())
def test_top_k_equals_reference_on_small_models(model):
    TestTrimmedQuery._all_queries_equal_reference(model)


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


def _stability_from_neighbor_sets(neighbor_sets):
    """Consecutive-pair Jaccard similarities aggregated; None marks a slice
    where the word is out of vocabulary."""
    return StabilityResult.of([
        jaccard(neighbor_sets[i], neighbor_sets[i + 1])
        for i in range(len(neighbor_sets) - 1)
        if neighbor_sets[i] is not None and neighbor_sets[i + 1] is not None
    ])


def _reference_stability(models, word, k):
    """One word's stability from its full list of neighbour sets, one
    ``top_k_similar`` call (and float64 cast) per slice."""
    neighbor_sets = []
    for model in models:
        words, in_vocab = top_k_similar(model, word, k)
        neighbor_sets.append(words if in_vocab else None)
    return _stability_from_neighbor_sets(neighbor_sets)


class TestSemanticStability:
    def test_hand_built_sets(self):
        # jaccard({a,b,c},{c,d,e}) = 1/5, jaccard({c,d,e},{c,d,e,f,g}) = 3/5
        sets = [{"a", "b", "c"}, {"c", "d", "e"}, {"c", "d", "e", "f", "g"}]
        result = _stability_from_neighbor_sets(sets)
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
        assert result is StabilityResult.missing() is StabilityResult.missing()
        assert result == StabilityResult(None, None, None, False)

    def test_gap_slice_skipped(self):
        vectors = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]], dtype=np.float32)
        present = EmbeddingModel({"q": 0, "x": 1, "y": 2}, vectors, "1990")
        absent = EmbeddingModel({"z": 0, "x": 1, "y": 2}, vectors, "1991")
        assert not semantic_stability([present, absent, present], "q", 1).valid
        assert semantic_stability([present, present, absent], "q", 1).valid

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
            result = _stability_from_neighbor_sets(sets)
            if result.valid:
                assert result.minimum <= result.average <= result.maximum

    def test_needs_two_models(self):
        vocab = {"x": 0}
        model = EmbeddingModel(vocab, np.ones((1, 2), dtype=np.float32), "t")
        with pytest.raises(ValueError):
            semantic_stability([model], "x", 2)
        with pytest.raises(ValueError):
            stability_all([model], ["x"], 2)

    def test_stability_all_equals_per_word(self):
        models = train_slice_models(_cluster_corpus(n_docs=30, seed=4),
                                    EmbeddingParams(dim=6, epochs=1, min_count=2, seed=3),
                                    years=2)
        vocabularies = [set(m.vocab) for m in models]
        words = sorted(set.union(*vocabularies)) + ["absent", "alpha"]
        assert len(models) >= 3 and set.union(*vocabularies) != set.intersection(*vocabularies)
        largest = max(len(m) for m in models)
        for k in (1, 3, largest - 2, largest - 1, largest + 5):
            found = stability_all(models, words, k)
            assert list(found) == list(dict.fromkeys(words))
            for word in words:
                expected = _reference_stability(models, word, k)
                assert found[word] == expected, (word, k)
                assert semantic_stability(models, word, k) == expected, (word, k)
        assert stability_all(models, [], 3) == {}

    def test_stability_all_chunks_equal_one_pass(self, monkeypatch):
        models = train_slice_models(_cluster_corpus(n_docs=30, seed=4),
                                    EmbeddingParams(dim=6, epochs=1, min_count=2, seed=3),
                                    years=2)
        words = sorted(set.union(*(set(m.vocab) for m in models))) + ["absent"]
        whole = stability_all(models, words, 3)
        for chunk in (1, 2, 7):
            monkeypatch.setattr(embeddings, "STABILITY_CHUNK", chunk)
            assert stability_all(models, words, 3) == whole, chunk


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

    def test_bytes_equal_per_value_writer(self, tmp_path):
        corpus = _cluster_corpus(n_docs=10)
        trained = train_skipgram(corpus, EmbeddingParams(dim=6, epochs=1, min_count=1, seed=2),
                                 slice_label="1990-1991")
        tiny = np.finfo(np.float32).smallest_subnormal
        extremes = np.array([[0.0, -0.0, tiny, -tiny],
                             [np.finfo(np.float32).max, np.finfo(np.float32).min, 1e-38, 0.1],
                             [1 / 3, -2 / 3, 123456789.0, 1.5e-7]], dtype=np.float32)
        hostile = EmbeddingModel({"%s": 0, "caf\u00e9": 1, "\U0001F600%d": 2}, extremes, "s")
        for model in (trained, hostile):
            save_model(model, tmp_path / "new.vec")
            _reference_save(model, tmp_path / "old.vec")
            assert (tmp_path / "new.vec").read_bytes() == (tmp_path / "old.vec").read_bytes()

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

    @pytest.mark.parametrize("text, message", [
        ("2 2 2000\nx 1 2\ny 3 4\nz 5 6\n", "embedding row 3 is past the 2 rows the header"),
        ("1 2 2000\nx 1 2\n\n", "embedding row 2 is past the 1 rows the header"),
        ("-1 2 2000\nx 1 2\n", "bad embedding header '-1 2 2000'"),
        ("2 -3 2000\nx\ny\n", "bad embedding header '2 -3 2000'"),
        ("2 0 2000\nx\ny\n", "bad embedding header '2 0 2000'"),
        ("0 3 2000\n", "bad embedding header '0 3 2000'"),
        ("1_0 2 s\n" + "".join(f"w{i} 1 2\n" for i in range(10)), "bad embedding header '1_0 2 s'"),
        ("+1 2 s\nx 1 2\n", "bad embedding header '\\+1 2 s'"),
        ("01 2 s\nx 1 2\n", "bad embedding header '01 2 s'"),
        ("1 02 s\nx 1 2\n", "bad embedding header '1 02 s'"),
        ("\u0661 2 s\nx 1 2\n", "bad embedding header '\u0661 2 s'"),
        ("1 2 s\nw0 1_5 2\n", "embedding row 1 has a non-numeric value"),
        ("1 2 s\nw0 15 +2\n", "embedding row 1 has a non-numeric value"),
        ("2 2 s\nw0 1 2\nw1 +1.5e+3 2\n", "embedding row 2 has a non-numeric value"),
        ("1 2 s\nw0 \u0663 2\n", "embedding row 1 has a non-numeric value"),
        ("1 2 s\nw0 1 2\u2007\n", "embedding row 1 has a non-numeric value"),
    ])
    def test_header_and_row_count_refused(self, tmp_path, text, message):
        path = tmp_path / "m.vec"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorruptModelError, match=message):
            load_model(path)

    def test_plain_values_and_a_non_ascii_word_load(self, tmp_path):
        path = tmp_path / "m.vec"
        path.write_text("1 3 s\ncaf\u00e9 -1.5e+38 3.5e-07 -0\n", encoding="utf-8")
        model = load_model(path)
        assert model.vocab == {"caf\u00e9": 0}
        assert model.vectors[0].tolist() == [np.float32(v).item() for v in (-1.5e38, 3.5e-7, -0.0)]

    def test_slice_models_ordered(self):
        corpus = _cluster_corpus(n_docs=24)
        params = EmbeddingParams(dim=6, epochs=1, min_count=1, seed=2)
        models = train_slice_models(corpus, params, years=3)
        labels = [m.slice_label for m in models]
        assert labels == sorted(labels)
