"""Per-time-slice skip-gram embeddings and semantic-stability measures.

Training is plain skip-gram with negative sampling (5 negatives drawn from
the unigram^0.75 distribution, linear learning-rate decay), single-threaded
and seed-deterministic. A model is trained per time slice; a word's
stability across slices is the Jaccard similarity of its top-K neighbour
sets between consecutive slices.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, Document, segment_sentences
from .errors import CorruptModelError, DivergedTrainingError, EmptyVocabularyError
from .rand import derive_seed


@dataclass(frozen=True)
class EmbeddingParams:
    """Skip-gram hyperparameters. Production defaults are 300 dimensions and
    a 5-word window; tests run far smaller dimensions for speed."""

    dim: int = 300
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    initial_learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    min_count: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "window", "negatives", "epochs", "min_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class EmbeddingModel:
    """Immutable trained embedding space for one time slice.

    The float32 vectors are taken over, not copied, and marked read-only, so
    the row norms, their minimum and the lexicographic word ranks that
    neighbour queries use can be computed once here and never go stale.
    """

    def __init__(self, vocab: Mapping[str, int], vectors: np.ndarray, slice_label: str):
        if len(vocab) != vectors.shape[0]:
            raise ValueError("vocab size and vector rows disagree")
        self.vocab = dict(vocab)
        self.vectors = np.asarray(vectors, dtype=np.float32)
        self.vectors.flags.writeable = False
        self.slice_label = slice_label
        self.words = [""] * len(self.vocab)
        for word, idx in self.vocab.items():
            self.words[idx] = word
        self.norms = np.linalg.norm(self.vectors.astype(np.float64), axis=1)
        self.min_norm = self.norms.min(initial=np.inf)
        order = sorted(range(len(self.words)), key=self.words.__getitem__)
        self.ranks = np.empty(len(order), dtype=np.intp)
        self.ranks[order] = np.arange(len(order))

    def __contains__(self, word: str) -> bool:
        return word in self.vocab

    def __len__(self) -> int:
        return len(self.vocab)

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self.vocab[word]]


@functools.cache
def _zero_one(dtype):
    """Read-only 0-d zero and one of ``dtype``: a ufunc takes them without
    the promotion step that a Python or numpy scalar costs."""
    zero, one = np.zeros((), dtype), np.ones((), dtype)
    zero.flags.writeable = one.flags.writeable = False
    return zero, one


def _sigmoid(x):
    zero, one = _zero_one(x.dtype)
    # exp of -|x| never overflows; np.minimum keeps a NaN's sign bit, which
    # np.abs would clear
    exp = np.exp(np.minimum(x, -x))
    return np.where(x >= zero, one, exp) / (one + exp)


def _sgns_gradients(center_vec, rows):
    """(grad_center, grad_rows) of the SGNS loss for one pair, without the
    loss itself; ``rows`` stacks the context's row over its negatives' rows,
    and grad_rows stacks their gradients the same way. Shared by the trainer
    and sgns_pair_gradients.

    The context's score is its own dot product and the negatives' one
    matrix-vector product, written into one vector for one sigmoid: a
    product over all the stacked rows would round both differently.
    """
    context_vec, negative_vecs = rows[0], rows[1:]
    scores = np.empty(len(rows), dtype=rows.dtype)
    scores[0] = context_vec.dot(center_vec)
    negative_vecs.dot(center_vec, out=scores[1:])
    sig = _sigmoid(scores)
    sig[0] -= 1
    # the + stays without negatives: it turns a -0.0 into 0.0
    grad_center = sig[0] * context_vec + sig[1:].dot(negative_vecs)
    return grad_center, sig[:, None] * center_vec


def sgns_pair_gradients(center_vec, context_vec, negative_vecs):
    """Loss and gradients for one positive pair plus its negative samples.

    Loss is -log sigmoid(u_ctx . v) - sum_k log sigmoid(-u_k . v). Returns
    (loss, grad_center, grad_context, grad_negatives); dtype follows the
    inputs, so the same code drives float32 training and float64 checks.
    """
    # the kernel's scores take the stacked rows' dtype, so all three share one
    dtype = np.result_type(center_vec, context_vec, negative_vecs)
    center_vec, context_vec, negative_vecs = (
        np.asarray(v, dtype=dtype) for v in (center_vec, context_vec, negative_vecs))
    loss = (np.logaddexp(0.0, -(context_vec @ center_vec))
            + np.sum(np.logaddexp(0.0, negative_vecs @ center_vec)))
    grad_center, grad_rows = _sgns_gradients(
        center_vec, np.concatenate((context_vec[None], negative_vecs)))
    return loss, grad_center, grad_rows[0], grad_rows[1:]


def _tokenize(doc: Document) -> list[list[str]]:
    """Whitespace tokens per sentence; context windows never cross sentences."""
    sentences = []
    for span in segment_sentences(doc):
        words = doc.text[span.start:span.end].split()
        if words:
            sentences.append(words)
    return sentences


def train_skipgram(docs: Iterable[Document], params: EmbeddingParams,
                   slice_label: str = "all") -> EmbeddingModel:
    """Train a skip-gram model on a document set.

    Words below min_count are dropped (from the vocabulary and from the
    token stream, so contexts span the gaps). Deterministic for a fixed
    seed; raises EmptyVocabularyError when nothing survives the filter.

    Each sentence draws the negatives of all its (centre, context) pairs at
    once, in pair order, from the same generator stream that one draw per
    pair would read, so the vectors do not depend on the batching. A draw
    equal to the pair's context is dropped from that pair's negatives.

    A pair's rows, its context's over its negatives', are gathered once,
    scored into one vector, passed through one sigmoid and stored back once
    (with np.subtract.at where draws repeat). Every float32 operation on a
    vector is the one-pair-at-a-time trainer's, in the same order, so the
    vectors are bit-identical to it.
    """
    docs = list(docs)
    if not docs:
        raise ValueError("cannot train on an empty document set")
    sentences: list[list[str]] = []
    counts: Counter[str] = Counter()
    for doc in docs:
        for sent in _tokenize(doc):
            sentences.append(sent)
            counts.update(sent)
    vocab_words = sorted(
        (w for w, c in counts.items() if c >= params.min_count),
        key=lambda w: (-counts[w], w),
    )
    if not vocab_words:
        raise EmptyVocabularyError(
            f"no word reaches min_count={params.min_count} in slice {slice_label!r}"
        )
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
    lr0 = params.initial_learning_rate
    lr_floor = params.min_learning_rate
    window = params.window
    n_neg = params.negatives
    step = 0
    for _ in range(params.epochs):
        for sent in encoded:
            length = len(sent)
            bounds = [(max(0, i - window), min(length, i + window + 1)) for i in range(length)]
            contexts = [sent[j] for i, (lo, hi) in enumerate(bounds)
                        for j in range(lo, hi) if j != i]
            draws = np.searchsorted(noise_cdf, rng.random(len(contexts) * n_neg)
                                    ).reshape(len(contexts), n_neg)
            # a pair's rows are its context's, then its draws minus those
            # equal to its context
            stacked = np.concatenate((np.array(contexts, dtype=draws.dtype)[:, None], draws),
                                     axis=1)
            drop = stacked == stacked[:, :1]
            drop[:, 0] = False
            rows_of = list(stacked)
            for pair in np.flatnonzero(drop.any(axis=1)).tolist():
                rows_of[pair] = rows_of[pair][~drop[pair]]
            # draws that repeat in a row (context draws too, which is only
            # cautious) send the pair to np.subtract.at
            ordered = np.sort(draws, axis=1)
            repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1).tolist()
            pairs = zip(rows_of, repeated)
            for center, (lo, hi) in zip(sent, bounds):
                # a 0-d float32 multiplies exactly as the Python float would
                lr = np.array(max(lr_floor, lr0 * (1.0 - step / total_steps)),
                              dtype=np.float32)
                step += 1
                center_vec = center_vecs[center]
                for pair_rows, has_repeats in islice(pairs, hi - lo - 1):
                    vecs = context_vecs.take(pair_rows, axis=0)
                    g_center, g_rows = _sgns_gradients(center_vec, vecs)
                    g_center *= lr
                    center_vec -= g_center
                    g_rows *= lr
                    if has_repeats:
                        np.subtract.at(context_vecs, pair_rows, g_rows)
                    else:
                        # distinct rows, in the other matrix from the centre:
                        # unchanged since the gather, so a plain store equals
                        # np.subtract.at
                        vecs -= g_rows
                        context_vecs[pair_rows] = vecs

    if not np.all(np.isfinite(center_vecs)):
        raise DivergedTrainingError("training produced non-finite vectors; lower the learning rate")
    return EmbeddingModel(vocab, center_vecs, slice_label)


def slice_corpus(corpus: Corpus, years: int = 1) -> list[tuple[str, list[Document]]]:
    """Chronologically ordered (slice_label, documents) buckets of fixed
    year granularity; empty slices are omitted."""
    if years < 1:
        raise ValueError("granularity must be at least one year")
    if len(corpus) == 0:
        return []
    base = min(doc.publication_date.year for doc in corpus)
    buckets: dict[int, list[Document]] = {}
    for doc in corpus:
        buckets.setdefault((doc.publication_date.year - base) // years, []).append(doc)
    slices = []
    for bucket in sorted(buckets):
        start = base + bucket * years
        slice_label = str(start) if years == 1 else f"{start}-{start + years - 1}"
        slices.append((slice_label, buckets[bucket]))
    return slices


def train_slice_models(corpus: Corpus, params: EmbeddingParams,
                       years: int = 1) -> list[EmbeddingModel]:
    """One skip-gram model per chronological slice, each with a seed derived
    from params.seed and the slice index."""
    return [
        train_skipgram(docs, replace(params, seed=derive_seed(params.seed, "embed", index)),
                       slice_label)
        for index, (slice_label, docs) in enumerate(slice_corpus(corpus, years))
    ]


def top_k_similar(model: EmbeddingModel, word: str, k: int,
                  matrix: np.ndarray | None = None) -> tuple[set[str], bool]:
    """The k vocabulary words most cosine-similar to ``word`` (query excluded),
    ties broken lexicographically. Returns (words, in_vocab); an
    out-of-vocabulary query yields an empty set, not an error.

    One query is one matrix-vector product in float64; ``matrix`` is
    ``model.vectors`` already cast to float64, for callers that ask one model
    many queries, and is cast here when not given. The row norms and word
    ranks come from the model, and only the words tied at the k-th
    similarity are sorted. When the model's smallest row norm times the
    query's is positive, every product of norms is (rounding is monotonic),
    and the negated similarities take two passes over the vocabulary: the
    product and one division by the negated norms. Otherwise the guarded
    form gives similarity 0 where the product is not positive; of float32
    rows only a zero row gets there, since their float64 norm products are
    at least 2**-298.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if word not in model.vocab:
        return set(), False
    idx = model.vocab[word]
    if k >= len(model.words) - 1:
        return {w for i, w in enumerate(model.words) if i != idx}, True
    if matrix is None:
        matrix = model.vectors.astype(np.float64)
    query = matrix[idx]
    # np.linalg.norm's own arithmetic, without its dispatch
    qnorm = math.sqrt(query.dot(query))
    if model.min_norm * qnorm > 0:
        # x / -b is -(x / b) bit for bit, so this is the guarded form's -sims
        neg = matrix.dot(query)
        neg /= model.norms * -qnorm
    else:
        denom = model.norms * qnorm
        with np.errstate(invalid="ignore", divide="ignore"):
            neg = -np.where(denom > 0, matrix.dot(query) / np.where(denom > 0, denom, 1.0), 0.0)
    # rank by (-similarity, word); the query sorts last and k < |vocab| - 1
    neg[idx] = np.inf
    cutoff = np.partition(neg, k - 1)[k - 1]
    candidates = np.flatnonzero(neg <= cutoff)
    chosen = candidates[np.lexsort((model.ranks[candidates], neg[candidates]))[:k]]
    return {model.words[i] for i in chosen.tolist()}, True


def jaccard(a: set[str], b: set[str]) -> float:
    """|a & b| / |a | b|; by convention 0.0 when both sets are empty."""
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


@dataclass(frozen=True)
class StabilityResult:
    """Min/max/avg Jaccard over consecutive slices; invalid when the word
    never appears in two consecutive vocabularies."""

    minimum: float | None
    maximum: float | None
    average: float | None
    valid: bool

    @classmethod
    def missing(cls) -> "StabilityResult":
        """The one shared missing result."""
        return _MISSING

    @classmethod
    def of(cls, values: Sequence[float]) -> "StabilityResult":
        """Min/max/avg of the consecutive-slice Jaccard similarities, in slice
        order; missing when there are none."""
        if not values:
            return cls.missing()
        return cls(min(values), max(values), math.fsum(values) / len(values), True)


_MISSING = StabilityResult(None, None, None, False)


#: Words whose neighbour sets ``stability_all`` holds at once; each further
#: chunk casts every slice to float64 again.
STABILITY_CHUNK = 1024


def semantic_stability(models: Sequence[EmbeddingModel], word: str, k: int) -> StabilityResult:
    """Stability of ``word`` across chronologically ordered slice models."""
    return stability_all(models, [word], k)[word]


def stability_all(models: Sequence[EmbeddingModel], words: Iterable[str],
                  k: int) -> dict[str, StabilityResult]:
    """Stability of every distinct word in ``words`` across chronologically
    ordered slice models: min/max/avg Jaccard of its top-``k`` neighbour sets
    in consecutive slices; a slice where the word is out of vocabulary
    breaks the chain.

    Words go in chunks of ``STABILITY_CHUNK``, and a chunk goes slice by
    slice: the slice is cast to float64 once for all the chunk's queries (not
    at all when none of its words is in the vocabulary), and each word keeps
    only its neighbour set in the previous slice. Memory thus grows by one
    cast slice and at most ``STABILITY_CHUNK`` neighbour sets.
    """
    if len(models) < 2:
        raise ValueError("semantic stability needs at least 2 slice models")
    words = list(dict.fromkeys(words))
    results: dict[str, StabilityResult] = {}
    for start in range(0, len(words), STABILITY_CHUNK):
        chunk = words[start:start + STABILITY_CHUNK]
        previous: dict[str, set[str] | None] = dict.fromkeys(chunk)
        values: dict[str, list[float]] = {word: [] for word in chunk}
        for model in models:
            matrix = None
            if any(word in model.vocab for word in chunk):
                matrix = model.vectors.astype(np.float64)
            for word in chunk:
                found, in_vocab = top_k_similar(model, word, k, matrix)
                current = found if in_vocab else None
                if current is not None and previous[word] is not None:
                    values[word].append(jaccard(previous[word], current))
                previous[word] = current
            del matrix
        results.update((word, StabilityResult.of(values[word])) for word in chunk)
    return results


def save_model(model: EmbeddingModel, path: str | Path) -> None:
    """Text persistence: header ``|vocab| dim slice_label``, then one
    ``word v1 ... vdim`` line per word at 9 significant digits (lossless
    for float32)."""
    dim = model.vectors.shape[1]
    line = "%s" + " %.9g" * dim + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(model.words)} {dim} {model.slice_label}\n")
        for word, row in zip(model.words, model.vectors):
            fh.write(line % (word, *row.tolist()))


def load_model(path: str | Path) -> EmbeddingModel:
    """Read what save_model writes; CorruptModelError for a header without a
    positive word count and dimension, a row short of or past the declared
    rows, a bad value, or a duplicate word."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        parts = header.split(" ", 2)
        if len(parts) < 2:
            raise CorruptModelError(f"bad embedding header {header!r}")
        try:
            n_vocab, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise CorruptModelError(f"bad embedding header {header!r}") from None
        if n_vocab < 1 or dim < 1:
            raise CorruptModelError(
                f"bad embedding header {header!r}: a model has at least one word "
                "and one dimension")
        slice_label = parts[2] if len(parts) > 2 else ""
        vocab: dict[str, int] = {}
        vectors = np.empty((n_vocab, dim), dtype=np.float32)
        for i in range(n_vocab):
            line = fh.readline().rstrip("\n")
            fields = line.split(" ")
            if len(fields) != dim + 1:
                raise CorruptModelError(f"embedding row {i + 1} has {len(fields) - 1} values, expected {dim}")
            vocab[fields[0]] = i
            try:
                vectors[i] = [float(x) for x in fields[1:]]
            except ValueError:
                raise CorruptModelError(f"embedding row {i + 1} has a non-numeric value") from None
        if fh.readline():
            raise CorruptModelError(
                f"embedding row {n_vocab + 1} is past the {n_vocab} rows the header declares")
        if len(vocab) != n_vocab:
            raise CorruptModelError("duplicate words in embedding file")
        non_finite = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
        if non_finite.size:
            raise CorruptModelError(f"embedding row {non_finite[0] + 1} has a non-finite value")
    return EmbeddingModel(vocab, vectors, slice_label)
