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
    """Immutable, ordered document collection with id and date indexes.

    All query methods are read-only and safe to call from multiple threads.
    The token index behind the frequency queries is built on first use; two
    threads that race there build equal indexes.
    """

    def __init__(self, documents: Iterable[Document]):
        self._documents: list[Document] = list(documents)
        self._index: _TokenIndex | None = None
        self._by_id: dict[str, Document] = {}
        self._by_date: dict[dt.date, list[str]] = {}
        for doc in self._documents:
            if doc.id in self._by_id:
                raise DuplicateIdError(doc.id)
            self._by_id[doc.id] = doc
            self._by_date.setdefault(doc.publication_date, []).append(doc.id)

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    @property
    def date_index(self) -> Mapping[dt.date, Sequence[str]]:
        return self._by_date

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

    Raises MalformedRecordError (with line number) for unparseable lines and
    DuplicateIdError for repeated ids. Blank lines are rejected, not skipped:
    the format is strictly one record per line.
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
            topic = record.get("topic", "")
            try:
                date = dt.date.fromisoformat(date_str)
            except (TypeError, ValueError):
                raise MalformedRecordError(lineno, f"bad date {date_str!r}") from None
            if doc_id in seen:
                raise DuplicateIdError(doc_id, lineno)
            seen.add(doc_id)
            try:
                documents.append(Document(id=doc_id, publication_date=date, topic=topic or "", text=text))
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


def sentence_containing(
    doc: Document, offset: int, spans: Sequence[SentenceSpan] | None = None
) -> SentenceSpan | None:
    """The sentence span covering ``offset``, or None if the offset falls on
    a boundary mark (no span contains it).

    ``spans`` is ``segment_sentences(doc)`` computed once by the caller; the
    span is then found by bisection instead of segmenting the document again.
    """
    if spans is None:
        spans = segment_sentences(doc)
    i = bisect.bisect_right(spans, offset, key=lambda span: span.start) - 1
    if i >= 0 and offset < spans[i].end:
        return spans[i]
    return None


def _scan_occurrences(text: str, surface: str, token_bounded: bool) -> int:
    count = 0
    i = 0
    n = len(surface)
    while True:
        i = text.find(surface, i)
        if i < 0:
            return count
        if token_bounded:
            before_ok = i == 0 or not _is_word_char(text[i - 1])
            after_ok = i + n == len(text) or not _is_word_char(text[i + n])
            if not (before_ok and after_ok):
                i += 1
                continue
        count += 1
        i += n


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def count_occurrences(doc: Document, surface: str, token_bounded: bool = False) -> int:
    """Non-overlapping, case-sensitive exact matches of ``surface`` in the
    document text, scanned left to right.

    With ``token_bounded`` the match must not be flanked by word characters;
    the default places no boundary requirement.
    """
    if not surface:
        raise ValueError("surface must be non-empty")
    if not token_bounded:
        return doc.text.count(surface)
    return _scan_occurrences(doc.text, surface, token_bounded=True)


#: A token is a maximal run of word characters; ``\w`` accepts exactly the
#: characters ``_is_word_char`` does.
_TOKEN = re.compile(r"\w+")
#: Joins the index vocabulary into one string; never a word character.
_SEP = "\n"


class _TokenIndex:
    """The documents holding each whole token, and per queried surface the
    sorted publication dates of the documents that contain it.

    A surface's word-character runs narrow down where it can occur. A run
    with a non-word character before it inside the surface starts a text
    token, and one with a non-word character after it ends a text token;
    ``token_bounded`` makes the surface's own edges count as such characters.
    So an interior run is a whole text token, a leading run a suffix, a
    trailing run a prefix and a lone run any substring of one. The rarest
    run's documents are confirmed with ``count_occurrences``, except for a
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
        self._dates: dict[tuple[str, bool], list[dt.date]] = {}

    def dates(self, surface: str, token_bounded: bool) -> list[dt.date]:
        """Sorted publication dates of the documents where
        ``count_occurrences(doc, surface, token_bounded) >= 1``."""
        key = (surface, token_bounded)
        dates = self._dates.get(key)
        if dates is None:
            dates = self._dates[key] = self._find(surface, token_bounded)
        return dates

    def _find(self, surface: str, token_bounded: bool) -> list[dt.date]:
        docs = self._documents
        runs = list(_TOKEN.finditer(surface))
        if not runs:
            candidates = range(len(docs))
        else:
            candidates = min(
                (self._holding(m.group(), token_bounded or m.start() > 0,
                               token_bounded or m.end() < len(surface)) for m in runs),
                key=len,
            )
            if runs[0].group() == surface:
                return [docs[i].publication_date for i in candidates]
        return [docs[i].publication_date for i in candidates
                if count_occurrences(docs[i], surface, token_bounded) >= 1]

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


def document_frequency(corpus: Corpus, surface: str, token_bounded: bool = False) -> int:
    """Number of documents containing at least one occurrence of ``surface``
    (``count_occurrences(doc, surface, token_bounded) >= 1``), answered from
    the corpus's token index."""
    if not surface:
        raise ValueError("surface must be non-empty")
    return len(corpus._token_index().dates(surface, token_bounded))


def shift_months(day: dt.date, months: int) -> dt.date:
    """Shift a date by whole calendar months, clamping the day-of-month."""
    month_index = day.year * 12 + (day.month - 1) + months
    year, month = divmod(month_index, 12)
    month += 1
    last = calendar.monthrange(year, month)[1]
    return dt.date(year, month, min(day.day, last))


def temporal_document_frequency(
    corpus: Corpus,
    surface: str,
    anchor: dt.date,
    window_months: int | None = 6,
    token_bounded: bool = False,
) -> int:
    """document_frequency restricted to publication dates within
    [anchor - window, anchor + window], boundaries inclusive.

    The window is measured in calendar months; ``None`` means unbounded,
    which reduces to plain document_frequency. The count is two bisections
    of the dates the token index holds for ``surface``.
    """
    if not surface:
        raise ValueError("surface must be non-empty")
    if window_months is None:
        return document_frequency(corpus, surface, token_bounded)
    if window_months <= 0:
        raise ValueError("window_months must be positive")
    lo = shift_months(anchor, -window_months)
    hi = shift_months(anchor, window_months)
    dates = corpus._token_index().dates(surface, token_bounded)
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
    id_prefix: str = "doc"


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
                id=f"{config.id_prefix}{i:05d}",
                publication_date=date,
                topic=topic,
                text=" ".join(sentences),
            )
        )
    return Corpus(documents)
