"""Per-time-slice skip-gram embeddings and semantic-stability measures.

Training is plain skip-gram with negative sampling (5 negatives drawn from
the unigram^0.75 distribution, linear learning-rate decay), single-threaded
and seed-deterministic. A model is trained per time slice; a word's
stability across slices is the Jaccard similarity of its top-K neighbour
sets between consecutive slices.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
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
    the row norms and the lexicographic word ranks that neighbour queries
    use can be computed once here and never go stale.
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
        order = sorted(range(len(self.words)), key=self.words.__getitem__)
        self.ranks = np.empty(len(order), dtype=np.intp)
        self.ranks[order] = np.arange(len(order))

    def __contains__(self, word: str) -> bool:
        return word in self.vocab

    def __len__(self) -> int:
        return len(self.vocab)

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self.vocab[word]]


def _sigmoid(x):
    # branch on sign so exp never overflows; a scalar skips the array selects
    if np.ndim(x) == 0:
        if x >= 0:
            return 1.0 / (1.0 + np.exp(-x))
        exp = np.exp(x)
        return exp / (1.0 + exp)
    x = np.asarray(x)
    positive = x >= 0
    exp = np.exp(np.where(positive, -x, x))
    return np.where(positive, 1.0, exp) / (1.0 + exp)


def _sgns_gradients(center_vec, context_vec, negative_vecs):
    """(grad_center, grad_context, grad_negatives) of the SGNS loss for one
    pair, without the loss itself; shared by the trainer and
    sgns_pair_gradients."""
    pos_grad = _sigmoid(context_vec @ center_vec) - 1.0
    neg_grads = _sigmoid(negative_vecs @ center_vec)
    grad_center = pos_grad * context_vec + neg_grads @ negative_vecs
    return grad_center, pos_grad * center_vec, neg_grads[:, None] * center_vec


def sgns_pair_gradients(center_vec, context_vec, negative_vecs):
    """Loss and gradients for one positive pair plus its negative samples.

    Loss is -log sigmoid(u_ctx . v) - sum_k log sigmoid(-u_k . v). Returns
    (loss, grad_center, grad_context, grad_negatives); dtype follows the
    inputs, so the same code drives float32 training and float64 checks.
    """
    loss = (np.logaddexp(0.0, -(context_vec @ center_vec))
            + np.sum(np.logaddexp(0.0, negative_vecs @ center_vec)))
    return (loss, *_sgns_gradients(center_vec, context_vec, negative_vecs))


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
    step = 0
    for _ in range(params.epochs):
        for sent in encoded:
            length = len(sent)
            bounds = [(max(0, i - window), min(length, i + window + 1)) for i in range(length)]
            n_pairs = sum(hi - lo - 1 for lo, hi in bounds)
            draws = iter(np.searchsorted(noise_cdf, rng.random(n_pairs * params.negatives))
                         .reshape(n_pairs, params.negatives))
            for i, (center, (lo, hi)) in enumerate(zip(sent, bounds)):
                lr = max(lr_floor, lr0 * (1.0 - step / total_steps))
                step += 1
                center_vec = center_vecs[center]
                for j in range(lo, hi):
                    if j == i:
                        continue
                    context = sent[j]
                    pair_draws = next(draws)
                    negatives = pair_draws[pair_draws != context]
                    context_vec = context_vecs[context]
                    g_center, g_context, g_neg = _sgns_gradients(
                        center_vec, context_vec, context_vecs[negatives]
                    )
                    center_vec -= lr * g_center
                    context_vec -= lr * g_context
                    np.subtract.at(context_vecs, negatives, lr * g_neg)

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


def top_k_similar(model: EmbeddingModel, word: str, k: int) -> tuple[set[str], bool]:
    """The k vocabulary words most cosine-similar to ``word`` (query excluded),
    ties broken lexicographically. Returns (words, in_vocab); an
    out-of-vocabulary query yields an empty set, not an error.

    One query is one float64 cast of the matrix and one matrix-vector
    product; the row norms and word ranks come from the model, and only
    the words tied at the k-th similarity are sorted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if word not in model.vocab:
        return set(), False
    idx = model.vocab[word]
    if k >= len(model.words) - 1:
        return {w for i, w in enumerate(model.words) if i != idx}, True
    query = model.vectors[idx].astype(np.float64)
    matrix = model.vectors.astype(np.float64)
    qnorm = np.linalg.norm(query)
    denom = model.norms * qnorm
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(denom > 0, matrix @ query / np.where(denom > 0, denom, 1.0), 0.0)
    # rank by (-similarity, word); the query sorts last and k < |vocab| - 1
    neg = -sims
    neg[idx] = np.inf
    cutoff = np.partition(neg, k - 1)[k - 1]
    candidates = np.flatnonzero(neg <= cutoff)
    chosen = candidates[np.lexsort((model.ranks[candidates], neg[candidates]))[:k]]
    return {model.words[i] for i in chosen}, True


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
        return cls(None, None, None, False)


def stability_from_neighbor_sets(neighbor_sets: Sequence[set[str] | None]) -> StabilityResult:
    """Aggregate consecutive-pair Jaccard similarities; None marks a slice
    where the word is out of vocabulary."""
    values = [
        jaccard(neighbor_sets[i], neighbor_sets[i + 1])
        for i in range(len(neighbor_sets) - 1)
        if neighbor_sets[i] is not None and neighbor_sets[i + 1] is not None
    ]
    if not values:
        return StabilityResult.missing()
    return StabilityResult(min(values), max(values), math.fsum(values) / len(values), True)


def semantic_stability(models: Sequence[EmbeddingModel], word: str, k: int) -> StabilityResult:
    """Stability of ``word`` across chronologically ordered slice models."""
    if len(models) < 2:
        raise ValueError("semantic stability needs at least 2 slice models")
    neighbor_sets: list[set[str] | None] = []
    for model in models:
        words, in_vocab = top_k_similar(model, word, k)
        neighbor_sets.append(words if in_vocab else None)
    return stability_from_neighbor_sets(neighbor_sets)


def save_model(model: EmbeddingModel, path: str | Path) -> None:
    """Text persistence: header ``|vocab| dim slice_label``, then one
    ``word v1 ... vdim`` line per word at 9 significant digits (lossless
    for float32)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(model.words)} {model.vectors.shape[1]} {model.slice_label}\n")
        for word, row in zip(model.words, model.vectors):
            values = " ".join(f"{float(x):.9g}" for x in row)
            fh.write(f"{word} {values}\n")


def load_model(path: str | Path) -> EmbeddingModel:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        parts = header.split(" ", 2)
        if len(parts) < 2:
            raise CorruptModelError(f"bad embedding header {header!r}")
        try:
            n_vocab, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise CorruptModelError(f"bad embedding header {header!r}") from None
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
        if len(vocab) != n_vocab:
            raise CorruptModelError("duplicate words in embedding file")
        non_finite = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
        if non_finite.size:
            raise CorruptModelError(f"embedding row {non_finite[0] + 1} has a non-finite value")
    return EmbeddingModel(vocab, vectors, slice_label)
