"""Mention feature vectors: mention-based, document-based and temporal.

Fifteen columns (thirteen features, with the stability triple expanded),
computed per mention against a corpus, a candidate dictionary and the
per-slice embedding models. Word counts are whitespace-delimited; character
positions count code points.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .consensus import AlignedMention, Label, LabelledMention, SystemAnnotation
from .corpus import (
    Corpus,
    Document,
    SentenceSpan,
    count_occurrences,
    document_frequency,
    segment_sentences,
    sentence_containing,
    temporal_document_frequency,
)
from .embeddings import EmbeddingModel, StabilityResult, semantic_stability
from .errors import AllMissingError, MalformedRecordError

#: Canonical column order of the feature table (label column excluded).
FEATURE_COLUMNS = (
    "m_len", "m_words", "m_freq", "m_df", "m_cand", "m_pos", "m_sent",
    "d_words", "d_topic", "d_ents",
    "t_age", "t_df", "t_j_min", "t_j_max", "t_j_avg",
)
CATEGORICAL_COLUMNS = frozenset({"d_topic"})
TEMPORAL_COLUMNS = ("t_age", "t_df", "t_j_min", "t_j_max", "t_j_avg")
#: Placeholder category for missing topics after imputation.
UNKNOWN_TOPIC = "UNKNOWN"

_INT_COLUMNS = frozenset({
    "m_len", "m_words", "m_freq", "m_df", "m_cand", "m_sent",
    "d_words", "d_ents", "t_age", "t_df",
})
_OPTIONAL_COLUMNS = frozenset({"t_j_min", "t_j_max", "t_j_avg", "d_topic"})


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered subset of the active feature columns."""

    columns: tuple[str, ...]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("a schema needs at least one column")
        unknown = [c for c in self.columns if c not in FEATURE_COLUMNS]
        if unknown:
            raise ValueError(f"unknown feature columns {unknown}")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate columns in schema")

    @classmethod
    def all(cls) -> "FeatureSchema":
        return cls(FEATURE_COLUMNS)

    @classmethod
    def candidate_count(cls) -> "FeatureSchema":
        """Single-feature baseline on the number of candidate entities."""
        return cls(("m_cand",))

    @classmethod
    def mention_length(cls) -> "FeatureSchema":
        """Single-feature baseline on the mention length."""
        return cls(("m_len",))

    @classmethod
    def without_temporal(cls) -> "FeatureSchema":
        return cls(tuple(c for c in FEATURE_COLUMNS if c not in TEMPORAL_COLUMNS))

    @classmethod
    def simulation_preset(cls) -> "FeatureSchema":
        """All features minus the temporal ones and the document topic, the
        setting used to train the feedback-routing classifier."""
        return cls(tuple(
            c for c in FEATURE_COLUMNS if c not in TEMPORAL_COLUMNS and c != "d_topic"
        ))

    def categorical(self) -> tuple[str, ...]:
        return tuple(c for c in self.columns if c in CATEGORICAL_COLUMNS)

    def continuous(self) -> tuple[str, ...]:
        return tuple(c for c in self.columns if c not in CATEGORICAL_COLUMNS)


@dataclass(frozen=True)
class FeatureConfig:
    """Corpus-dependent feature settings; defaults follow the production
    configuration (reference KB year 2016, +/-6 month window, top-50
    neighbours, yearly slices)."""

    kb_year: int = 2016
    window_months: int = 6
    top_k: int = 50
    slice_years: int = 1
    token_bounded: bool = False


@dataclass(frozen=True)
class FeatureVector:
    """One mention's feature row. The stability triple is None when the
    mention word is out of vocabulary; d_topic is "" when the document
    carries no topic."""

    m_len: int
    m_words: int
    m_freq: int
    m_df: int
    m_cand: int
    m_pos: float
    m_sent: int
    d_words: int
    d_topic: str
    d_ents: int
    t_age: int
    t_df: int
    t_j_min: float | None
    t_j_max: float | None
    t_j_avg: float | None
    label: Label | None = None

    def __post_init__(self):
        if self.m_words > self.m_len:
            raise ValueError("m_words cannot exceed m_len")
        if not 0.0 <= self.m_pos < 1.0:
            raise ValueError(f"m_pos {self.m_pos} outside [0, 1)")
        if (self.t_j_min is None) != (self.t_j_avg is None) or (self.t_j_max is None) != (self.t_j_avg is None):
            raise ValueError("stability features must be all present or all missing")
        if self.t_j_min is not None and not (self.t_j_min <= self.t_j_avg <= self.t_j_max):
            raise ValueError("stability features must satisfy min <= avg <= max")

    def value(self, column: str):
        return getattr(self, column)

    def missing(self, column: str) -> bool:
        v = getattr(self, column)
        return v is None or (column == "d_topic" and v == "")


class CandidateDictionary:
    """Surface string to candidate-entity count; absent surfaces count 0."""

    def __init__(self, counts: Mapping[str, int],
                 candidate_sets: Mapping[str, frozenset[str]] | None = None):
        for surface, count in counts.items():
            if count < 1:
                raise ValueError(f"candidate count for {surface!r} must be >= 1")
        self._counts = dict(counts)
        self._sets = dict(candidate_sets) if candidate_sets else None

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, surface: str) -> bool:
        return surface in self._counts

    def count(self, surface: str) -> int:
        return self._counts.get(surface, 0)

    def candidates(self, surface: str) -> frozenset[str]:
        if self._sets is None:
            return frozenset()
        return self._sets.get(surface, frozenset())


def load_candidate_dictionary(path: str | Path) -> CandidateDictionary:
    """Read ``surface<TAB>count`` or ``surface<TAB>e1,e2,...`` lines.

    Duplicate surfaces merge by max count (or candidate-set union).
    """
    counts: dict[str, int] = {}
    sets: dict[str, frozenset[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2 or not fields[0]:
                raise MalformedRecordError(lineno, "expected 'surface<TAB>count' or 'surface<TAB>e1,e2,...'")
            surface, payload = fields
            if payload.isdigit():
                count = int(payload)
                if count < 1:
                    raise MalformedRecordError(lineno, f"candidate count must be >= 1, got {count}")
                counts[surface] = max(counts.get(surface, 0), count)
            else:
                ids = frozenset(e for e in payload.split(",") if e)
                if not ids:
                    raise MalformedRecordError(lineno, "empty candidate list")
                merged = sets.get(surface, frozenset()) | ids
                sets[surface] = merged
                counts[surface] = max(counts.get(surface, 0), len(merged))
    return CandidateDictionary(counts, sets or None)


def write_candidate_dictionary(dictionary: CandidateDictionary, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for surface in sorted(dictionary._counts):
            fh.write(f"{surface}\t{dictionary._counts[surface]}\n")


def count_doc_mentions(annotation_sets: Iterable[Iterable[SystemAnnotation]]) -> dict[str, int]:
    """Distinct (offset, surface) mention spans per document over the union
    of every system's annotations; feeds the d_ents feature."""
    spans: dict[str, set[tuple[int, str]]] = {}
    for annotations in annotation_sets:
        for a in annotations:
            spans.setdefault(a.doc_id, set()).add((a.offset, a.surface))
    return {doc_id: len(s) for doc_id, s in spans.items()}


def stability_word(surface: str) -> str:
    """The mention word used for stability lookups: longest by character
    count, lexicographically smallest on ties."""
    words = surface.split()
    if not words:
        return surface
    return min(words, key=lambda w: (-len(w), w))


Mention = AlignedMention | LabelledMention | tuple


def _mention_fields(mention: Mention) -> tuple[str, str, int, Label | None]:
    if isinstance(mention, LabelledMention):
        m = mention.mention
        return m.doc_id, m.surface, m.offset, mention.label
    if isinstance(mention, AlignedMention):
        return mention.doc_id, mention.surface, mention.offset, None
    doc_id, surface, offset = mention
    return doc_id, surface, int(offset), None


class FeatureExtractor:
    """Computes feature vectors against shared immutable inputs.

    Per-corpus quantities (m_df, t_df, stability) are memoized, so batch
    extraction shares one index pass while staying identical to per-mention
    extraction. Each document is segmented and split into words once, on
    its first mention: m_sent is then a bisection over the stored sentence
    spans and d_words a lookup. Safe for concurrent reads once constructed.
    """

    def __init__(
        self,
        corpus: Corpus,
        candidates: CandidateDictionary | None = None,
        models: Sequence[EmbeddingModel] | None = None,
        config: FeatureConfig | None = None,
        doc_mention_counts: Mapping[str, int] | None = None,
    ):
        self.corpus = corpus
        self.candidates = candidates if candidates is not None else CandidateDictionary({})
        self.models = list(models) if models else []
        self.config = config if config is not None else FeatureConfig()
        self.doc_mention_counts = dict(doc_mention_counts) if doc_mention_counts else {}
        self._df_cache: dict[str, int] = {}
        self._tdf_cache: dict[tuple[str, str], int] = {}
        self._stability_cache: dict[str, StabilityResult] = {}
        self._doc_cache: dict[str, tuple[list[SentenceSpan], int]] = {}

    def _document(self, doc: Document) -> tuple[list[SentenceSpan], int]:
        """The document's sentence spans and whitespace word count."""
        if doc.id not in self._doc_cache:
            self._doc_cache[doc.id] = (segment_sentences(doc), len(doc.text.split()))
        return self._doc_cache[doc.id]

    def _df(self, surface: str) -> int:
        if surface not in self._df_cache:
            self._df_cache[surface] = document_frequency(
                self.corpus, surface, self.config.token_bounded
            )
        return self._df_cache[surface]

    def _tdf(self, surface: str, anchor) -> int:
        key = (surface, anchor.isoformat())
        if key not in self._tdf_cache:
            self._tdf_cache[key] = temporal_document_frequency(
                self.corpus, surface, anchor, self.config.window_months, self.config.token_bounded
            )
        return self._tdf_cache[key]

    def _stability(self, surface: str) -> StabilityResult:
        if len(self.models) < 2:
            return StabilityResult.missing()
        word = stability_word(surface)
        if word not in self._stability_cache:
            self._stability_cache[word] = semantic_stability(self.models, word, self.config.top_k)
        return self._stability_cache[word]

    def extract(self, mention: Mention) -> FeatureVector:
        doc_id, surface, offset, mention_label = _mention_fields(mention)
        doc = self.corpus.get(doc_id)
        if offset < 0 or offset + len(surface) > len(doc.text):
            raise ValueError(
                f"mention {surface!r} at {doc_id}:{offset} lies outside the document text"
            )
        spans, d_words = self._document(doc)
        span = sentence_containing(doc, offset, spans)
        stability = self._stability(surface)
        return FeatureVector(
            m_len=len(surface),
            m_words=len(surface.split()),
            m_freq=count_occurrences(doc, surface, self.config.token_bounded),
            m_df=self._df(surface),
            m_cand=self.candidates.count(surface),
            m_pos=offset / len(doc.text),
            m_sent=len(span) if span is not None else 0,
            d_words=d_words,
            d_topic=doc.topic,
            d_ents=self.doc_mention_counts.get(doc_id, 0),
            t_age=self.config.kb_year - doc.publication_date.year,
            t_df=self._tdf(surface, doc.publication_date),
            t_j_min=stability.minimum,
            t_j_max=stability.maximum,
            t_j_avg=stability.average,
            label=mention_label,
        )

    def extract_all(self, mentions: Iterable[Mention]) -> "FeatureTable":
        return FeatureTable([self.extract(m) for m in mentions])


class FeatureTable:
    """Ordered feature rows plus the per-row missing-value masks."""

    def __init__(self, rows: Sequence[FeatureVector],
                 masks: Sequence[frozenset[str]] | None = None):
        self.rows = list(rows)
        if masks is None:
            self.masks = [
                frozenset(c for c in FEATURE_COLUMNS if row.missing(c)) for row in self.rows
            ]
        else:
            if len(masks) != len(self.rows):
                raise ValueError("mask count and row count disagree")
            self.masks = list(masks)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index: int) -> FeatureVector:
        return self.rows[index]

    def labels(self) -> list[Label | None]:
        return [row.label for row in self.rows]

    def column(self, name: str) -> list:
        return [row.value(name) for row in self.rows]

    def impute(self, strategy: str = "mean", constant: float = 0.0,
               stability: bool = True) -> "FeatureTable":
        """Fill missing values: the stability triple per MEAN/CONSTANT policy
        (unless ``stability`` is off, for schemas that exclude it), missing
        topics with the UNKNOWN category. The original missing masks are kept
        on the returned table."""
        if strategy not in ("mean", "constant"):
            raise ValueError(f"unknown imputation strategy {strategy!r}")
        if not self.rows:
            raise ValueError("cannot impute an empty table")
        fills: dict[str, float] = {}
        any_missing = any(row.t_j_min is None for row in self.rows)
        if stability and any_missing:
            for column in ("t_j_min", "t_j_max", "t_j_avg"):
                if strategy == "constant":
                    fills[column] = constant
                    continue
                observed = [v for v in self.column(column) if v is not None]
                if not observed:
                    raise AllMissingError(f"column {column!r} has no observed values to average")
                fills[column] = sum(observed) / len(observed)
        new_rows = []
        for row in self.rows:
            replacements: dict[str, object] = {}
            if fills and row.t_j_min is None:
                replacements = dict(fills)
            if row.d_topic == "":
                replacements["d_topic"] = UNKNOWN_TOPIC
            if replacements:
                row = _replace_row(row, replacements)
            new_rows.append(row)
        return FeatureTable(new_rows, masks=self.masks)

    def write_csv(self, path: str | Path, columns: Sequence[str] | None = None) -> None:
        """Comma-separated table; missing values are empty fields, labels one
        of HARD/MEDIUM/EASY or empty. The default header is the canonical
        15-column one; a schema subset writes a reduced table."""
        if columns is None:
            columns = FEATURE_COLUMNS
        else:
            FeatureSchema(tuple(columns))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(list(columns) + ["label"])
            for row in self.rows:
                record = []
                for column in columns:
                    v = row.value(column)
                    record.append("" if v is None else (repr(v) if isinstance(v, float) else str(v)))
                record.append("" if row.label is None else row.label.value)
                writer.writerow(record)

    @classmethod
    def read_csv(cls, path: str | Path) -> "FeatureTable":
        expected = list(FEATURE_COLUMNS) + ["label"]
        rows = []
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != expected:
                raise MalformedRecordError(1, f"bad header; expected {','.join(expected)}")
            for lineno, record in enumerate(reader, start=2):
                if len(record) != len(expected):
                    raise MalformedRecordError(lineno, f"expected {len(expected)} fields, got {len(record)}")
                values: dict[str, object] = {}
                try:
                    for column, text in zip(FEATURE_COLUMNS, record):
                        if column == "d_topic":
                            values[column] = text
                        elif text == "":
                            if column not in _OPTIONAL_COLUMNS:
                                raise ValueError(f"column {column} cannot be empty")
                            values[column] = None
                        elif column in _INT_COLUMNS:
                            values[column] = int(text)
                        else:
                            values[column] = float(text)
                    label_text = record[-1]
                    values["label"] = Label(label_text) if label_text else None
                    rows.append(FeatureVector(**values))
                except ValueError as exc:
                    raise MalformedRecordError(lineno, str(exc)) from None
        return cls(rows)


def _replace_row(row: FeatureVector, replacements: dict) -> FeatureVector:
    fields = {c: row.value(c) for c in FEATURE_COLUMNS}
    fields.update(replacements)
    return FeatureVector(label=row.label, **fields)


_COLUMN_DEFAULTS = {
    "m_len": 0, "m_words": 0, "m_freq": 0, "m_df": 0, "m_cand": 0, "m_pos": 0.0,
    "m_sent": 0, "d_words": 0, "d_topic": "", "d_ents": 0, "t_age": 0, "t_df": 0,
    "t_j_min": None, "t_j_max": None, "t_j_avg": None,
}


def read_table(path: str | Path) -> tuple[FeatureSchema, FeatureTable]:
    """Read a full or reduced feature CSV.

    The header must be a subset of the canonical columns followed by
    ``label``; columns absent from the file get neutral defaults and the
    returned schema records which columns were actually present.
    """
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "label":
            raise MalformedRecordError(1, "header must end with the label column")
        columns = tuple(header[:-1])
        try:
            schema = FeatureSchema(columns)
        except ValueError as exc:
            raise MalformedRecordError(1, str(exc)) from None
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise MalformedRecordError(lineno, f"expected {len(header)} fields, got {len(record)}")
            values = dict(_COLUMN_DEFAULTS)
            try:
                for column, text in zip(columns, record):
                    if column == "d_topic":
                        values[column] = text
                    elif text == "":
                        if column not in _OPTIONAL_COLUMNS:
                            raise ValueError(f"column {column} cannot be empty")
                        values[column] = None
                    elif column in _INT_COLUMNS:
                        values[column] = int(text)
                    else:
                        values[column] = float(text)
                label_text = record[-1]
                values["label"] = Label(label_text) if label_text else None
                rows.append(FeatureVector(**values))
            except ValueError as exc:
                raise MalformedRecordError(lineno, str(exc)) from None
    return schema, FeatureTable(rows)
