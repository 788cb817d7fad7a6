"""Document collection: loading, sentence segmentation, and frequency queries.

The canonical corpus interchange format is JSON lines (UTF-8), one document
per line with fields ``id``, ``date`` (ISO-8601 ``YYYY-MM-DD``), ``topic``
(may be empty) and ``text``. All offsets throughout the toolkit count
Unicode code points, never bytes, so positions agree between ingestion and
annotation alignment.
"""

from __future__ import annotations

import bisect
import calendar
import datetime as dt
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DuplicateIdError, MalformedRecordError

#: Sentence boundary characters. Spans lie strictly between two marks.
SENTENCE_MARKS = frozenset(".!?;")
#: A sentence span is a maximal run of characters that are not marks.
_SENTENCE = re.compile("[^" + re.escape("".join(sorted(SENTENCE_MARKS))) + "]+")


@dataclass(frozen=True)
class Document:
    """One corpus item. ``topic`` is the raw metadata label, "" if absent."""

    id: str
    publication_date: dt.date
    topic: str
    text: str

    def __post_init__(self):
        if not self.text:
            raise ValueError(f"document {self.id!r} has empty text")


@dataclass(frozen=True)
class SentenceSpan:
    """Half-open character span [start, end), boundary marks excluded."""

    start: int
    end: int

    def __len__(self) -> int:
        return self.end - self.start


class Corpus:
    """Immutable, ordered document collection with an id index.

    The token index behind the frequency queries is built on first use.
    """

    def __init__(self, documents: Iterable[Document]):
        self._documents: list[Document] = list(documents)
        self._index: _TokenIndex | None = None
        self._by_id: dict[str, Document] = {}
        for doc in self._documents:
            if doc.id in self._by_id:
                raise DuplicateIdError(doc.id)
            self._by_id[doc.id] = doc

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    def get(self, doc_id: str) -> Document:
        try:
            return self._by_id[doc_id]
        except KeyError:
            raise KeyError(f"unknown document id {doc_id!r}") from None

    def _token_index(self) -> "_TokenIndex":
        if self._index is None:
            self._index = _TokenIndex(self._documents)
        return self._index


def load_corpus(path: str | Path) -> Corpus:
    """Read a JSON-lines corpus file.

    Raises MalformedRecordError (with line number) for unparseable lines,
    including an ``id``, ``text`` or ``topic`` that is not a string (a
    ``null`` or absent topic reads as ""), and DuplicateIdError for repeated
    ids. Blank lines are rejected, not skipped: the format is strictly one
    record per line.
    """
    documents = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecordError(lineno, f"invalid JSON: {exc.msg}") from None
            if not isinstance(record, dict):
                raise MalformedRecordError(lineno, "record is not an object")
            try:
                doc_id = record["id"]
                date_str = record["date"]
                text = record["text"]
            except KeyError as exc:
                raise MalformedRecordError(lineno, f"missing field {exc.args[0]!r}") from None
            topic = "" if record.get("topic") is None else record["topic"]
            for name, value in (("id", doc_id), ("text", text), ("topic", topic)):
                if not isinstance(value, str):
                    raise MalformedRecordError(
                        lineno, f"field {name!r} must be a string, not {type(value).__name__}")
            try:
                date = dt.date.fromisoformat(date_str)
            except (TypeError, ValueError):
                raise MalformedRecordError(lineno, f"bad date {date_str!r}") from None
            if doc_id in seen:
                raise DuplicateIdError(doc_id, lineno)
            seen.add(doc_id)
            try:
                documents.append(Document(id=doc_id, publication_date=date, topic=topic, text=text))
            except ValueError as exc:
                raise MalformedRecordError(lineno, str(exc)) from None
    return Corpus(documents)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the canonical JSON-lines format."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus:
            record = {
                "id": doc.id,
                "date": doc.publication_date.isoformat(),
                "topic": doc.topic,
                "text": doc.text,
            }
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def segment_sentences(doc: Document) -> list[SentenceSpan]:
    """Split a document into spans strictly between sentence marks.

    Boundaries are exactly the occurrences of ".", "!", "?" and ";"; the
    document start and end act as virtual boundaries. Boundary characters
    belong to no span, and empty spans between adjacent marks are dropped.
    """
    return [SentenceSpan(m.start(), m.end()) for m in _SENTENCE.finditer(doc.text)]


def sentence_containing(doc: Document, offset: int,
                        spans: Sequence[SentenceSpan]) -> SentenceSpan | None:
    """The sentence span covering ``offset``, or None if the offset falls on
    a boundary mark (no span contains it).

    ``spans`` is ``segment_sentences(doc)`` computed once by the caller; the
    span is found by bisection instead of segmenting the document again.
    """
    i = bisect.bisect_right(spans, offset, key=lambda span: span.start) - 1
    if i >= 0 and offset < spans[i].end:
        return spans[i]
    return None


def count_occurrences(doc: Document, surface: str) -> int:
    """Non-overlapping, case-sensitive exact matches of ``surface`` in the
    document text, scanned left to right, with no token-boundary
    requirement."""
    if not surface:
        raise ValueError("surface must be non-empty")
    return doc.text.count(surface)


#: A token is a maximal run of word characters; ``\w`` accepts exactly the
#: letters, digits and ``_`` (``str.isalnum() or == "_"``), which a test
#: checks on every code point.
_TOKEN = re.compile(r"\w+")
#: Joins the index vocabulary into one string; never a word character.
_SEP = "\n"


class _TokenIndex:
    """The documents holding each whole token, per queried surface the
    sorted publication dates of the documents that contain it, and per
    queried anchor date and window the window's bounds.

    A surface's word-character runs narrow down where it can occur. A run
    with a non-word character before it inside the surface starts a text
    token, and one with a non-word character after it ends a text token.
    So an interior run is a whole text token, a leading run a suffix, a
    trailing run a prefix and a lone run any substring of one. The rarest
    run's documents are confirmed by a substring search, except for a
    surface that is one run, which every candidate contains. A surface
    without word characters is checked against every document.
    """

    def __init__(self, documents: Sequence[Document]):
        # numbered in date order, so ascending candidates give sorted dates
        self._documents = sorted(documents, key=lambda doc: doc.publication_date)
        postings: dict[str, list[int]] = {}
        for i, doc in enumerate(self._documents):
            for token in dict.fromkeys(_TOKEN.findall(doc.text)):
                postings.setdefault(token, []).append(i)
        self._postings = postings
        self._vocabulary = _SEP + _SEP.join(postings) + _SEP
        self._dates: dict[str, list[dt.date]] = {}
        self._windows: dict[tuple[dt.date, int], tuple[dt.date, dt.date]] = {}

    def dates(self, surface: str) -> list[dt.date]:
        """Sorted publication dates of the documents where
        ``count_occurrences(doc, surface) >= 1``."""
        dates = self._dates.get(surface)
        if dates is None:
            dates = self._dates[surface] = self._find(surface)
        return dates

    def window(self, anchor: dt.date, months: int) -> tuple[dt.date, dt.date]:
        """The inclusive bounds ``anchor`` -/+ ``months`` calendar months."""
        bounds = self._windows.get((anchor, months))
        if bounds is None:
            bounds = self._windows[anchor, months] = (shift_months(anchor, -months),
                                                      shift_months(anchor, months))
        return bounds

    def _find(self, surface: str) -> list[dt.date]:
        docs = self._documents
        runs = list(_TOKEN.finditer(surface))
        if not runs:
            candidates = range(len(docs))
        else:
            candidates = min(
                (self._holding(m.group(), m.start() > 0, m.end() < len(surface))
                 for m in runs),
                key=len,
            )
            if runs[0].group() == surface:
                return [docs[i].publication_date for i in candidates]
        return [docs[i].publication_date for i in candidates if surface in docs[i].text]

    def _holding(self, run: str, starts: bool, ends: bool) -> Sequence[int]:
        """Ascending numbers of the documents with a token that ``run``
        matches: whole if it ``starts`` and ``ends`` one, else as a prefix,
        a suffix or any substring."""
        if starts and ends:
            return self._postings.get(run, [])
        vocabulary = self._vocabulary
        pattern = (_SEP if starts else "") + run + (_SEP if ends else "")
        lists = []
        at = vocabulary.find(pattern)
        while at >= 0:
            # the run begins after the pattern's leading separator, if any
            begin = vocabulary.rfind(_SEP, 0, at + starts) + 1
            end = vocabulary.find(_SEP, at + 1)
            lists.append(self._postings[vocabulary[begin:end]])
            at = vocabulary.find(pattern, end)
        if len(lists) == 1:
            return lists[0]
        return sorted(set().union(*lists))


def document_frequency(corpus: Corpus, surface: str) -> int:
    """Number of documents containing at least one occurrence of ``surface``
    (``count_occurrences(doc, surface) >= 1``), answered from the corpus's
    token index."""
    if not surface:
        raise ValueError("surface must be non-empty")
    return len(corpus._token_index().dates(surface))


def shift_months(day: dt.date, months: int) -> dt.date:
    """Shift a date by whole calendar months, clamping the day-of-month."""
    month_index = day.year * 12 + (day.month - 1) + months
    year, month = divmod(month_index, 12)
    month += 1
    last = calendar.monthrange(year, month)[1]
    return dt.date(year, month, min(day.day, last))


def temporal_document_frequency(
    corpus: Corpus, surface: str, anchor: dt.date, window_months: int = 6
) -> int:
    """document_frequency restricted to publication dates within
    [anchor - window, anchor + window], boundaries inclusive.

    The window is a positive number of calendar months. The count is two
    bisections of the dates the token index holds for ``surface``, between
    the bounds it holds for the anchor and window.
    """
    if not surface:
        raise ValueError("surface must be non-empty")
    if window_months <= 0:
        raise ValueError("window_months must be positive")
    index = corpus._token_index()
    lo, hi = index.window(anchor, window_months)
    dates = index.dates(surface)
    return bisect.bisect_right(dates, hi) - bisect.bisect_left(dates, lo)


@dataclass
class GeneratorConfig:
    """Settings for the synthetic corpus generator.

    ``topics`` maps each topic label to its vocabulary; a document draws all
    of its words from the vocabulary of its own topic, so disjoint
    vocabularies yield cleanly separated clusters.
    """

    n_docs: int = 100
    start_date: dt.date = dt.date(1990, 1, 1)
    end_date: dt.date = dt.date(1999, 12, 31)
    topics: Mapping[str, Sequence[str]] = field(
        default_factory=lambda: {
            "SPORTS": ["match", "team", "league", "goal", "season", "coach", "title"],
            "POLITICS": ["vote", "senate", "policy", "minister", "reform", "bill", "party"],
        }
    )
    sentences_per_doc: tuple[int, int] = (2, 6)
    words_per_sentence: tuple[int, int] = (4, 10)


def generate_synthetic_corpus(config: GeneratorConfig, seed: int) -> Corpus:
    """Deterministically generate a corpus from vocabulary clusters.

    Dates are uniform over the configured range; the same seed always yields
    a byte-identical corpus.
    """
    for topic, vocab in config.topics.items():
        if not vocab:
            raise ValueError(f"topic {topic!r} has an empty vocabulary")
    if not config.topics:
        raise ValueError("at least one topic with vocabulary is required")
    rng = np.random.default_rng(seed)
    topics = list(config.topics)
    n_days = (config.end_date - config.start_date).days
    marks = [".", "!", "?", ";"]
    documents = []
    for i in range(config.n_docs):
        topic = topics[int(rng.integers(len(topics)))]
        vocab = list(config.topics[topic])
        date = config.start_date + dt.timedelta(days=int(rng.integers(n_days + 1)))
        n_sentences = int(rng.integers(config.sentences_per_doc[0], config.sentences_per_doc[1] + 1))
        sentences = []
        for _ in range(n_sentences):
            n_words = int(rng.integers(config.words_per_sentence[0], config.words_per_sentence[1] + 1))
            words = [vocab[int(rng.integers(len(vocab)))] for _ in range(n_words)]
            sentences.append(" ".join(words) + marks[int(rng.integers(len(marks)))])
        documents.append(
            Document(
                id=f"doc{i:05d}",
                publication_date=date,
                topic=topic,
                text=" ".join(sentences),
            )
        )
    return Corpus(documents)
