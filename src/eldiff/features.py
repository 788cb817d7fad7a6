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
from typing import Iterable, Mapping, NoReturn, Sequence

import numpy as np

from . import consensus
from .consensus import CLASS_ORDER, MentionCodes
from .consensus import plain_digits, read_tsv, write_tsv
from .corpus import (
    Corpus,
    Document,
    count_occurrences,
    document_frequency,
    segment_sentences,
    temporal_document_frequency,
)
# tracer targets of bench/spans.py that nothing in this module calls
from .corpus import sentence_containing  # noqa: F401
from .embeddings import EmbeddingModel, StabilityResult, stability_all
from .embeddings import semantic_stability  # noqa: F401
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


@dataclass(frozen=True)
class FeatureConfig:
    """Corpus-dependent feature settings; defaults follow the production
    configuration (reference KB year 2016, +/-6 month window, top-50
    neighbours)."""

    kb_year: int = 2016
    window_months: int = 6
    top_k: int = 50


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


def load_candidate_dictionary(path: str | Path) -> dict[str, int]:
    """Read ``surface<TAB>count`` lines: each surface's number of candidate
    entities, ASCII digits with no leading zero (``plain_digits``), at least
    1. A repeated surface keeps its largest count; an absent one has none."""
    counts: dict[str, int] = {}
    for lineno, (surface, payload) in read_tsv(path, 2):
        if not surface:
            raise MalformedRecordError(lineno, "empty surface")
        if not plain_digits(payload):
            raise MalformedRecordError(lineno, f"bad candidate count {payload!r}")
        count = int(payload)
        if count < 1:
            raise MalformedRecordError(lineno, f"candidate count must be >= 1, got {count}")
        counts[surface] = max(counts.get(surface, 0), count)
    return counts


def write_candidate_dictionary(counts: Mapping[str, int], path: str | Path) -> None:
    """Write one ``surface<TAB>count`` line per surface, in sorted order.

    An empty surface, or a count that is not an ``int`` of at least 1 (``0``,
    ``True``, ``2.0``), would not read back as written, so it raises
    ValueError before the file is opened.
    """
    if "" in counts:
        raise ValueError("candidate surface '' cannot be written: it is empty")
    for surface, count in counts.items():
        if type(count) is not int or count < 1:
            raise ValueError(f"candidate count for {surface!r} must be an int >= 1, "
                             f"got {count!r}")
    write_tsv(((surface, str(counts[surface])) for surface in sorted(counts)), path)


def count_doc_mentions(paths: Iterable[str | Path]) -> dict[str, int]:
    """Distinct (offset, surface) mention spans per document over the union
    of the dumps at ``paths``, for d_ents: each dump is read into code
    columns (``read_annotations``), and each distinct (doc_id, offset,
    surface) key gets one code in a ``MentionCodes``."""
    codes = MentionCodes()
    for path in paths:
        # looked up on the module, where bench/spans.py's tracer wraps it
        consensus.read_annotations(path, codes)
    return codes.doc_counts()


def stability_word(surface: str) -> str:
    """The mention word used for stability lookups: longest by character
    count, lexicographically smallest on ties."""
    words = surface.split()
    if not words:
        return surface
    return min(words, key=lambda w: (-len(w), w))


class FeatureExtractor:
    """Computes feature tables against shared immutable inputs. Mentions are
    given as key codes of a ``MentionCodes``.

    Each feature is computed once at its grain and gathered per row: per
    surface m_len, m_words, m_cand, m_df and the stability triple; per
    document d_words, d_topic, d_ents, t_age and the sentence spans; per
    distinct (document, surface) pair m_freq and t_df. Only m_pos and m_sent
    are per mention, each one operation on whole columns. m_df and t_df are
    answered by the corpus's token index, and each mention word's stability
    is computed once per extractor.
    """

    def __init__(
        self,
        corpus: Corpus,
        candidates: Mapping[str, int] | None = None,
        models: Sequence[EmbeddingModel] | None = None,
        config: FeatureConfig | None = None,
        doc_mention_counts: Mapping[str, int] | None = None,
    ):
        self.corpus = corpus
        self.candidates = candidates if candidates is not None else {}
        self.models = list(models) if models else []
        self.config = config if config is not None else FeatureConfig()
        self.doc_mention_counts = dict(doc_mention_counts) if doc_mention_counts else {}
        self._stability_cache: dict[str, StabilityResult] = {}

    def extract(self, mention: tuple[str, int, str]) -> "FeatureTable":
        """The one-row feature table of ``mention``, a key ``(doc_id, offset,
        surface)`` with a non-negative offset, with no label."""
        doc_id, offset, surface = mention
        codes = MentionCodes()
        key = codes.key(doc_id, str(offset), surface, 1)
        return self.extract_all(codes, np.array([key]), [-1])

    def extract_all(self, codes: MentionCodes, keys: np.ndarray,
                    labels: Sequence[int]) -> "FeatureTable":
        """The feature table of the mentions with key codes ``keys`` in
        ``codes``, one row each, in order, with the class indices ``labels``
        (-1 for none).

        The stability of every new mention word is computed first, slice by
        slice (``stability_all``). Then the first mention in row order that
        names no document raises KeyError, and the first that lies outside
        its document's text or has an empty surface raises ValueError.
        """
        doc, offset, surface = (column[keys] for column in codes.columns())
        # the rows' documents and surfaces, each coded by its rank among them
        doc_codes, doc = np.unique(doc, return_inverse=True)
        surface_codes, surface = np.unique(surface, return_inverse=True)
        doc_names, surface_names = list(codes.docs), list(codes.surfaces)
        names = [doc_names[d] for d in doc_codes.tolist()]
        surfaces = [surface_names[s] for s in surface_codes.tolist()]
        stabilities = self._stabilities(surfaces)

        docs = [self.corpus._by_id.get(name) for name in names]
        text_length = np.array([len(d.text) if d else -1 for d in docs], dtype=np.int64)
        m_len = np.array([len(s) for s in surfaces], dtype=np.int64)
        # offsets that overflow int64 are Python ints, and always outside
        bad = ((text_length[doc] < 0) | (m_len[surface] == 0)
               | (offset + m_len[surface] > text_length[doc]).astype(bool))
        if bad.any():
            row = int(np.argmax(bad))
            self._refuse(names[doc[row]], int(offset[row]), surfaces[surface[row]])
        offset = offset.astype(np.int64)
        config = self.config

        pairs, pair = np.unique(doc * len(surfaces) + surface, return_inverse=True)
        pair_docs, pair_surfaces = (part.tolist() for part in np.divmod(pairs, len(surfaces)))
        per_pair = {
            "m_freq": [count_occurrences(docs[d], surfaces[s])
                       for d, s in zip(pair_docs, pair_surfaces)],
            "t_df": [temporal_document_frequency(self.corpus, surfaces[s],
                                                 docs[d].publication_date, config.window_months)
                     for d, s in zip(pair_docs, pair_surfaces)],
        }
        per_surface = {
            "m_len": m_len,
            "m_words": [len(s.split()) for s in surfaces],
            "m_df": [document_frequency(self.corpus, s) for s in surfaces],
            "m_cand": [self.candidates.get(s, 0) for s in surfaces],
            **{c: [getattr(r, a) for r in stabilities]
               for c, a in zip(STABILITY_COLUMNS, ("minimum", "maximum", "average"))},
        }
        per_doc = {
            "d_words": [len(d.text.split()) for d in docs],
            "d_ents": [self.doc_mention_counts.get(name, 0) for name in names],
            "t_age": [config.kb_year - d.publication_date.year for d in docs],
        }
        values = {}
        for grain, index in ((per_pair, pair), (per_surface, surface), (per_doc, doc)):
            for name, column in _arrays(grain).items():
                values[name] = column[index]
        values["d_topic"] = np.array([d.topic for d in docs], dtype=object)[doc].tolist()
        values["m_pos"] = offset / text_length[doc]
        values["m_sent"] = _sentence_lengths(docs, text_length, doc, offset)
        absent = {c: np.array([v is None for v in per_surface[c]], dtype=bool)[surface]
                  for c in STABILITY_COLUMNS}
        _check_rows(values, absent)
        if len(labels) != len(keys):
            raise ValueError("every feature column needs one value per label")
        return FeatureTable._of({c: values[c] for c in FEATURE_COLUMNS}, _class_indices(labels))

    def _stabilities(self, surfaces: list[str]) -> list[StabilityResult]:
        """Each surface's stability, computing every new mention word's."""
        if len(self.models) < 2:
            return [StabilityResult.missing()] * len(surfaces)
        words = [stability_word(s) for s in surfaces]
        new = [word for word in dict.fromkeys(words) if word not in self._stability_cache]
        if new:
            self._stability_cache.update(stability_all(self.models, new, self.config.top_k))
        return [self._stability_cache[word] for word in words]

    def _refuse(self, doc_id: str, offset: int, surface: str) -> NoReturn:
        """Raise the error of a mention that names no document, lies outside
        its document's text or has an empty surface."""
        doc = self.corpus.get(doc_id)
        if offset + len(surface) > len(doc.text):
            raise ValueError(
                f"mention {surface!r} at {doc_id}:{offset} lies outside the document text"
            )
        raise ValueError("surface must be non-empty")


def _sentence_lengths(docs: Sequence[Document], text_length: np.ndarray,
                      doc: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """m_sent: the length of the sentence span covering each row's offset in
    its document, 0 on a sentence mark. The documents' spans are laid end to
    end, so one bisection over their starts finds every row's span."""
    base = np.cumsum(text_length) - text_length
    # a sentinel span that holds no position keeps every bisection in range
    starts, ends = [-1], [-1]
    for at, d in zip(base.tolist(), docs):
        for span in segment_sentences(d):
            starts.append(at + span.start)
            ends.append(at + span.end)
    starts, ends = np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)
    position = base[doc] + offset
    i = np.searchsorted(starts, position, side="right") - 1
    return np.where(position < ends[i], ends[i] - starts[i], 0)


#: The arguments of ``_row_problem``, in order.
_RULE_COLUMNS = ("m_len", "m_words", "m_pos", *STABILITY_COLUMNS)
#: Class index by label text, "" for none (-1), and the texts by class index.
_CLASSES = {**{lbl.value: c for c, lbl in enumerate(CLASS_ORDER)}, "": -1}
_LABEL_TEXTS = tuple(_CLASSES)


class FeatureTable:
    """A feature table held as columns.

    Each integer column is an int64 array and each float column a float64
    array, NaN where a stability value is missing; ``d_topic`` is a list of
    strings, "" where the topic is missing; the labels are one int8 column
    of class indices, -1 where a row has none. Every row obeys the row rules
    (``_row_problem``), so NaN in a stability column always means "missing".
    """

    def __init__(self, columns: Mapping[str, Sequence], labels: Sequence[int]):
        """The table of ``columns``, which maps every feature column to its
        Python values in row order (None where a stability value is missing,
        "" where a topic is), and of one class index or -1 per row. Raises
        ValueError if a column's length differs from the labels', if a label
        is no class index or -1, or if a row breaks a row rule."""
        labels = np.asarray(labels)
        if any(len(columns[c]) != len(labels) for c in FEATURE_COLUMNS):
            raise ValueError("every feature column needs one value per label")
        labels = _class_indices(labels)
        values = _arrays({c: columns[c] for c in FEATURE_COLUMNS})
        absent = {c: np.array([v is None for v in columns[c]], dtype=bool)
                  for c in STABILITY_COLUMNS}
        _check_rows(values, absent)
        self._values, self._labels = values, labels

    @classmethod
    def _of(cls, values: dict, labels: np.ndarray) -> "FeatureTable":
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

    def labels(self) -> np.ndarray:
        """The class-index column, -1 where a row has none; not to be modified."""
        return self._labels

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
        fields.append([_LABEL_TEXTS[c] for c in self._labels.tolist()])
        # the writer quotes a field holding "\n" but not one holding a lone
        # "\r", which a reader takes for a line break
        carriage = "d_topic" in columns and any("\r" in t for t in self._values["d_topic"])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n",
                                quoting=csv.QUOTE_ALL if carriage else csv.QUOTE_MINIMAL)
            writer.writerow(list(columns) + ["label"])
            writer.writerows(zip(*fields))


def _class_indices(labels: Sequence[int]) -> np.ndarray:
    """``labels`` as an int8 column, refusing any that is no class index or -1."""
    labels = np.asarray(labels)
    if not np.isin(labels, range(-1, len(CLASS_ORDER))).all():
        raise ValueError("a label is a class index or -1 for none")
    return labels.astype(np.int8)


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
    labels = np.array([_CLASSES[t] for t in fields[-1]], dtype=np.int8)
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
        if record[-1] not in _CLASSES:
            raise ValueError(f"bad label {record[-1]!r}")
    except ValueError as exc:
        return str(exc)
    return _row_problem(*(values[c] for c in _RULE_COLUMNS))
