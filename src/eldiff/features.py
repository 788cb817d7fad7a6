"""Mention features: mention-based, document-based and temporal.

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

import numpy as np

from .consensus import LABEL_OF_VALUE, AlignedMention, Label, LabelledMention, SystemAnnotation
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
from .embeddings import EmbeddingModel, StabilityResult, stability_all
from .embeddings import semantic_stability  # noqa: F401  a tracer target of bench/spans.py
from .errors import AllMissingError, MalformedRecordError

#: Canonical column order of the feature table (label column excluded).
FEATURE_COLUMNS = (
    "m_len", "m_words", "m_freq", "m_df", "m_cand", "m_pos", "m_sent",
    "d_words", "d_topic", "d_ents",
    "t_age", "t_df", "t_j_min", "t_j_max", "t_j_avg",
)
CATEGORICAL_COLUMNS = frozenset({"d_topic"})
TEMPORAL_COLUMNS = ("t_age", "t_df", "t_j_min", "t_j_max", "t_j_avg")
#: The semantic-stability triple: all present, or all missing when the
#: mention word is out of vocabulary.
STABILITY_COLUMNS = ("t_j_min", "t_j_max", "t_j_avg")
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
    neighbours)."""

    kb_year: int = 2016
    window_months: int = 6
    top_k: int = 50
    token_bounded: bool = False


def _row_problem(m_len, m_words, m_pos, t_j_min, t_j_max, t_j_avg) -> str | None:
    """The first rule of a feature row that these values break, or None;
    None stands for a missing stability value. ``_check_rows`` checks the
    same rules on whole columns."""
    if m_words > m_len:
        return "m_words cannot exceed m_len"
    if not 0.0 <= m_pos < 1.0:
        return f"m_pos {m_pos} outside [0, 1)"
    if (t_j_min is None) != (t_j_avg is None) or (t_j_max is None) != (t_j_avg is None):
        return "stability features must be all present or all missing"
    if t_j_min is not None and not (t_j_min <= t_j_avg <= t_j_max):
        return "stability features must satisfy min <= avg <= max"
    return None


class CandidateDictionary:
    """Surface string to candidate-entity count; absent surfaces count 0."""

    def __init__(self, counts: Mapping[str, int]):
        for surface, count in counts.items():
            if count < 1:
                raise ValueError(f"candidate count for {surface!r} must be >= 1")
        self._counts = dict(counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, surface: str) -> bool:
        return surface in self._counts

    def count(self, surface: str) -> int:
        return self._counts.get(surface, 0)


def load_candidate_dictionary(path: str | Path) -> CandidateDictionary:
    """Read ``surface<TAB>count`` or ``surface<TAB>e1,e2,...`` lines.

    A payload of decimal digits (``str.isdecimal``) is a count; any other
    payload is a list of entity ids, so a single all-digit id is written
    with a trailing comma (``1984,`` reads as the set {1984}). A list is
    read for its count: the size of the union of every list given for the
    surface. Duplicate surfaces merge by max count.
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
            if payload.isdecimal():
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
    return CandidateDictionary(counts)


def write_candidate_dictionary(dictionary: CandidateDictionary, path: str | Path) -> None:
    """Write one ``surface<TAB>count`` line per surface, in sorted order.

    An empty surface, or one holding a tab, ``\\n`` or ``\\r``, would read
    back as another record or as a malformed line, so it raises ValueError
    before the file is opened.
    """
    surfaces = sorted(dictionary._counts)
    for surface in surfaces:
        if not surface or "\t" in surface or "\n" in surface or "\r" in surface:
            raise ValueError(f"candidate surface {surface!r} cannot be written: it is empty "
                             "or holds a tab or line break")
    with open(path, "w", encoding="utf-8") as fh:
        for surface in surfaces:
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
    """Computes feature tables against shared immutable inputs.

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
        """The mention word's stability, which ``extract_all`` has cached."""
        if len(self.models) < 2:
            return StabilityResult.missing()
        return self._stability_cache[stability_word(surface)]

    def _row(self, mention: Mention) -> tuple:
        """One mention's values in ``FEATURE_COLUMNS`` order, label last."""
        doc_id, surface, offset, mention_label = _mention_fields(mention)
        doc = self.corpus.get(doc_id)
        if offset < 0 or offset + len(surface) > len(doc.text):
            raise ValueError(
                f"mention {surface!r} at {doc_id}:{offset} lies outside the document text"
            )
        spans, d_words = self._document(doc)
        span = sentence_containing(doc, offset, spans)
        stability = self._stability(surface)
        return (
            len(surface),
            len(surface.split()),
            count_occurrences(doc, surface, self.config.token_bounded),
            self._df(surface),
            self.candidates.count(surface),
            offset / len(doc.text),
            len(span) if span is not None else 0,
            d_words,
            doc.topic,
            self.doc_mention_counts.get(doc_id, 0),
            self.config.kb_year - doc.publication_date.year,
            self._tdf(surface, doc.publication_date),
            stability.minimum,
            stability.maximum,
            stability.average,
            mention_label,
        )

    def extract(self, mention: Mention) -> "FeatureTable":
        """The one-row feature table of ``mention``."""
        return self.extract_all([mention])

    def extract_all(self, mentions: Iterable[Mention]) -> "FeatureTable":
        """The feature table of ``mentions``, one row each, in order. The
        stability of every new mention word is computed first, slice by
        slice (``stability_all``)."""
        mentions = list(mentions)
        if len(self.models) >= 2:
            words = dict.fromkeys(stability_word(_mention_fields(m)[1]) for m in mentions)
            new = [word for word in words if word not in self._stability_cache]
            if new:
                self._stability_cache.update(stability_all(self.models, new, self.config.top_k))
        rows = [self._row(mention) for mention in mentions]
        *columns, labels = zip(*rows) if rows else [()] * (len(FEATURE_COLUMNS) + 1)
        return FeatureTable(dict(zip(FEATURE_COLUMNS, columns)), labels)


#: The arguments of ``_row_problem``, in order.
_RULE_COLUMNS = ("m_len", "m_words", "m_pos", *STABILITY_COLUMNS)
_LABELS: dict[str, Label | None] = {"": None, **LABEL_OF_VALUE}


class FeatureTable:
    """A feature table held as columns.

    Each integer column is an int64 array and each float column a float64
    array, NaN where a stability value is missing; ``d_topic`` is a list of
    strings, "" where the topic is missing; the labels are one list. Every
    row obeys the row rules (``_row_problem``), so NaN in a stability column
    always means "missing".
    """

    def __init__(self, columns: Mapping[str, Sequence], labels: Sequence[Label | None]):
        """The table of ``columns``, which maps every feature column to its
        Python values in row order (None where a stability value is missing,
        "" where a topic is), and of one label or None per row. Raises
        ValueError if a column's length differs from the labels' or if a row
        breaks a row rule."""
        labels = list(labels)
        if any(len(columns[c]) != len(labels) for c in FEATURE_COLUMNS):
            raise ValueError("every feature column needs one value per label")
        values = _arrays({c: columns[c] for c in FEATURE_COLUMNS})
        absent = {c: np.array([v is None for v in columns[c]], dtype=bool)
                  for c in STABILITY_COLUMNS}
        _check_rows(values, absent)
        self._values, self._labels = values, labels

    @classmethod
    def _of(cls, values: dict, labels: list) -> "FeatureTable":
        """A table of column arrays that already obey the row rules."""
        table = cls.__new__(cls)
        table._values, table._labels = values, labels
        return table

    def __len__(self) -> int:
        return len(self._labels)

    def _python(self, name: str) -> list:
        """One column as Python values, None where a stability value is missing."""
        values = self._values[name]
        if name == "d_topic":
            return list(values)
        if name in STABILITY_COLUMNS:
            return [None if v != v else v for v in values.tolist()]
        return values.tolist()

    def labels(self) -> list[Label | None]:
        return list(self._labels)

    def column(self, name: str):
        """One column, not to be modified: an int64 or float64 array (NaN
        where missing), or for ``d_topic`` a list of strings."""
        return self._values[name]

    def impute(self, strategy: str = "mean", constant: float = 0.0,
               stability: bool = True) -> "FeatureTable":
        """Fill missing values: the stability triple per MEAN/CONSTANT policy
        (unless ``stability`` is off, for schemas that exclude it), missing
        topics with the UNKNOWN category. A mean adds the observed values as
        Python floats in row order."""
        if strategy not in ("mean", "constant"):
            raise ValueError(f"unknown imputation strategy {strategy!r}")
        if not len(self):
            raise ValueError("cannot impute an empty table")
        values = dict(self._values)
        absent = np.isnan(values["t_j_min"])
        if stability and absent.any():
            fills: dict[str, float] = {}
            for column in STABILITY_COLUMNS:
                if strategy == "constant":
                    fills[column] = constant
                    continue
                observed = values[column][~absent].tolist()
                if not observed:
                    raise AllMissingError(f"column {column!r} has no observed values to average")
                fills[column] = sum(observed) / len(observed)
            row = int(np.argmax(absent))
            problem = _row_problem(*(values[c][row].item() for c in _RULE_COLUMNS[:3]),
                                   *(fills[c] for c in STABILITY_COLUMNS))
            if problem is not None:
                raise ValueError(problem)
            for column, fill in fills.items():
                values[column] = np.where(absent, fill, values[column])
        if "" in values["d_topic"]:
            values["d_topic"] = [UNKNOWN_TOPIC if t == "" else t for t in values["d_topic"]]
        return FeatureTable._of(values, self._labels)

    def write_csv(self, path: str | Path, columns: Sequence[str] | None = None) -> None:
        """Comma-separated table; missing values are empty fields, labels one
        of HARD/MEDIUM/EASY or empty. The default header is the canonical
        15-column one; a schema subset writes a reduced table."""
        if columns is None:
            columns = FEATURE_COLUMNS
        else:
            FeatureSchema(tuple(columns))
        # The csv writer writes None as "", an int with str and a float with
        # repr, which is why the columns go to it as Python values: the repr
        # of a numpy float64 is not that of a float.
        fields = [self._python(c) for c in columns]
        fields.append(["" if lbl is None else lbl.value for lbl in self._labels])
        # the writer quotes a field holding "\n" but not one holding a lone
        # "\r", which a reader takes for a line break
        carriage = "d_topic" in columns and any("\r" in t for t in self._values["d_topic"])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n",
                                quoting=csv.QUOTE_ALL if carriage else csv.QUOTE_MINIMAL)
            writer.writerow(list(columns) + ["label"])
            writer.writerows(zip(*fields))


def _arrays(columns: Mapping[str, Sequence]) -> dict:
    """Column arrays from per-column Python values, None where missing."""
    values = {}
    for name, column in columns.items():
        if name == "d_topic":
            values[name] = list(column)
        else:
            # None becomes NaN in a float64 array
            values[name] = np.array(column, dtype=np.int64 if name in _INT_COLUMNS else np.float64)
    return values


def _check_rows(values: Mapping, absent: Mapping[str, np.ndarray]) -> None:
    """Raise the ValueError of the first row that breaks a row rule
    (``_row_problem``). ``absent`` marks the missing stability values:
    a NaN that was read or computed breaks the rules, a missing value does
    not."""
    lo, hi, avg = (values[c] for c in STABILITY_COLUMNS)
    no_lo, no_hi, no_avg = (absent[c] for c in STABILITY_COLUMNS)
    m_pos = values["m_pos"]
    broken = ((values["m_words"] > values["m_len"]) | ~((0.0 <= m_pos) & (m_pos < 1.0))
              | (no_lo != no_avg) | (no_hi != no_avg) | (~no_lo & ~((lo <= avg) & (avg <= hi))))
    if broken.any():
        row = int(np.argmax(broken))
        raise ValueError(_row_problem(*(
            None if c in absent and absent[c][row] else values[c][row].item()
            for c in _RULE_COLUMNS
        )))


_COLUMN_DEFAULTS = {
    "m_len": 0, "m_words": 0, "m_freq": 0, "m_df": 0, "m_cand": 0, "m_pos": 0.0,
    "m_sent": 0, "d_words": 0, "d_topic": "", "d_ents": 0, "t_age": 0, "t_df": 0,
    "t_j_min": None, "t_j_max": None, "t_j_avg": None,
}
_INT64_RANGE = range(-2 ** 63, 2 ** 63)


def read_table(path: str | Path) -> tuple[FeatureSchema, FeatureTable]:
    """Read a full or reduced feature CSV.

    The header must be a subset of the canonical columns followed by
    ``label``; columns absent from the file get neutral defaults and the
    returned schema records which columns were actually present. The file
    is parsed column by column, and every record must obey the row rules
    (``_row_problem``). A malformed file fails at its first bad record, with
    that record's line number (records are counted, the header being
    line 1).
    """
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
        records = list(reader)
    try:
        return schema, _parse_columns(records, columns, len(header))
    except (ValueError, OverflowError, KeyError):
        # the column parse only says that some record is bad
        for lineno, record in enumerate(records, start=2):
            problem = _record_problem(record, columns, len(header))
            if problem is not None:
                raise MalformedRecordError(lineno, problem) from None
        raise


def _parse_columns(records: list[list[str]], columns: tuple[str, ...],
                   width: int) -> FeatureTable:
    """The table of ``records``, parsed column by column. Raises ValueError,
    OverflowError or KeyError if any record is malformed."""
    n = len(records)
    if any(len(record) != width for record in records):
        raise ValueError("records of different widths")
    fields = list(zip(*records)) if records else [()] * width
    values = _arrays({c: [_COLUMN_DEFAULTS[c]] * n for c in FEATURE_COLUMNS if c not in columns})
    absent = {c: np.ones(n, dtype=bool) for c in STABILITY_COLUMNS}
    for name, texts in zip(columns, fields):
        if name == "d_topic":
            values[name] = list(texts)
        elif name in _INT_COLUMNS:
            values[name] = np.array(list(map(int, texts)), dtype=np.int64)
        elif name in STABILITY_COLUMNS:
            absent[name] = np.array([t == "" for t in texts], dtype=bool)
            values[name] = np.array([float(t) if t else np.nan for t in texts], dtype=np.float64)
        else:
            values[name] = np.array(list(map(float, texts)), dtype=np.float64)
    labels = [_LABELS[t] for t in fields[-1]]
    _check_rows(values, absent)
    return FeatureTable._of(values, labels)


def _record_problem(record: list[str], columns: tuple[str, ...], width: int) -> str | None:
    """Why one record is not a feature row, or None: the first of its fields
    that fails to parse, else its label, else the first row rule it breaks."""
    if len(record) != width:
        return f"expected {width} fields, got {len(record)}"
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
                if values[column] not in _INT64_RANGE:
                    raise ValueError(f"column {column} value outside the int64 range")
            else:
                values[column] = float(text)
        if record[-1] not in _LABELS:
            raise ValueError(f"bad label {record[-1]!r}")
    except ValueError as exc:
        return str(exc)
    return _row_problem(*(values[c] for c in _RULE_COLUMNS))
