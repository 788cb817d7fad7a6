"""Corpus loading, sentence segmentation and frequency queries."""

import datetime as dt
import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eldiff.corpus import (
    Corpus,
    Document,
    GeneratorConfig,
    SentenceSpan,
    count_occurrences,
    document_frequency,
    generate_synthetic_corpus,
    load_corpus,
    segment_sentences,
    sentence_containing,
    shift_months,
    temporal_document_frequency,
    write_corpus,
)
from eldiff.corpus import _TOKEN, _is_word_char
from eldiff.errors import DuplicateIdError, MalformedRecordError


def _doc(text, doc_id="d", date=dt.date(2000, 1, 1), topic=""):
    return Document(doc_id, date, topic, text)


class TestLoadCorpus:
    def test_three_valid_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "a", "date": "1999-01-02", "topic": "X", "text": "one"}\n'
            '{"id": "b", "date": "1999-01-03", "topic": "", "text": "two"}\n'
            '{"id": "c", "date": "1999-01-04", "text": "three"}\n',
            encoding="utf-8",
        )
        corpus = load_corpus(path)
        assert len(corpus) == 3
        assert [d.id for d in corpus] == ["a", "b", "c"]
        assert corpus.get("c").topic == ""

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(load_corpus(path)) == 0

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = '{"id": "d1", "date": "1999-01-02", "text": "x"}\n'
        path.write_text(record + record, encoding="utf-8")
        with pytest.raises(DuplicateIdError, match="d1"):
            load_corpus(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "a", "date": "1999-01-02", "text": "x"}\nnot json\n', encoding="utf-8"
        )
        with pytest.raises(MalformedRecordError, match="line 2"):
            load_corpus(path)

    def test_bad_date_and_missing_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "date": "99/01/02", "text": "x"}\n', encoding="utf-8")
        with pytest.raises(MalformedRecordError, match="line 1"):
            load_corpus(path)
        path.write_text('{"id": "a", "date": "1999-01-02"}\n', encoding="utf-8")
        with pytest.raises(MalformedRecordError, match="text"):
            load_corpus(path)

    def test_roundtrip(self, tmp_path, tiny_corpus):
        path = tmp_path / "c.jsonl"
        write_corpus(tiny_corpus, path)
        again = load_corpus(path)
        assert [d.id for d in again] == [d.id for d in tiny_corpus]
        assert again.get("d1").text == tiny_corpus.get("d1").text

    def test_date_index_covers_documents(self, tiny_corpus):
        ids = [i for ids in tiny_corpus.date_index.values() for i in ids]
        assert sorted(ids) == ["d1", "d2", "d3"]


class TestSegmentSentences:
    def test_two_marks_two_spans(self):
        doc = _doc("A b. C d!")
        spans = segment_sentences(doc)
        assert [(s.start, s.end) for s in spans] == [(0, 3), (4, 8)]
        assert [doc.text[s.start:s.end] for s in spans] == ["A b", " C d"]

    def test_no_marks_single_span(self):
        doc = _doc("no marks at all")
        spans = segment_sentences(doc)
        assert [(s.start, s.end) for s in spans] == [(0, len(doc.text))]

    def test_empty_middle_span_omitted(self):
        # hand enumeration: marks at offsets 1 and 2; spans [0,1) and [3,4)
        doc = _doc("x;;y")
        spans = segment_sentences(doc)
        assert [(s.start, s.end) for s in spans] == [(0, 1), (3, 4)]

    def test_leading_and_trailing_marks(self):
        doc = _doc(". abc?")
        spans = segment_sentences(doc)
        assert [doc.text[s.start:s.end] for s in spans] == [" abc"]

    def test_tiling_invariant(self, tiny_corpus):
        # span lengths plus boundary marks tile the text exactly
        for doc in tiny_corpus:
            spans = segment_sentences(doc)
            marks = sum(1 for ch in doc.text if ch in ".!?;")
            assert sum(len(s) for s in spans) + marks == len(doc.text)

    def test_sentence_containing(self):
        doc = _doc("A b. C d!")
        assert sentence_containing(doc, 5) == segment_sentences(doc)[1]
        assert sentence_containing(doc, 3) is None  # offset on the mark itself


def _segment_by_loop(text):
    """Reference segmentation: one pass over the characters, a span closed
    at every mark, empty spans dropped."""
    spans = []
    start = 0
    for i, ch in enumerate(text):
        if ch in ".!?;":
            if i > start:
                spans.append(SentenceSpan(start, i))
            start = i + 1
    if len(text) > start:
        spans.append(SentenceSpan(start, len(text)))
    return spans


def _containing_by_scan(spans, offset):
    for span in spans:
        if span.start <= offset < span.end:
            return span
    return None


_HOSTILE_TEXTS = [
    "A b. C d!", "no marks at all", "x;;y", ". abc?", ".", "?!;.", "..a..", "a",
    ";lead", "trail;", "a.b!c?d;e", "\U0001d518\U0001f600.\U0001f600 x;\n\ty",
    "\U0001f600", " . ", "line one.\nline two!\r\nthree",
]


def _random_texts(seed, count=200):
    rng = np.random.default_rng(seed)
    alphabet = list("ab .!?;\n") + ["\U0001f600", "\U0001d518", "\u00e9", "\t"]
    return ["".join(alphabet[i] for i in rng.integers(len(alphabet), size=int(rng.integers(1, 40))))
            for _ in range(count)]


class TestSentenceIndex:
    """The regular-expression segmentation and the bisected lookup equal the
    per-character loop and the linear scan they replace."""

    def test_segmentation_matches_character_loop(self):
        for text in _HOSTILE_TEXTS + _random_texts(3):
            assert segment_sentences(_doc(text)) == _segment_by_loop(text), text

    def test_indexed_lookup_matches_linear_scan_at_every_offset(self):
        for text in _HOSTILE_TEXTS + _random_texts(4, count=50):
            doc = _doc(text)
            spans = segment_sentences(doc)
            reference = _segment_by_loop(text)
            for offset in range(-1, len(text) + 2):
                expected = _containing_by_scan(reference, offset)
                assert sentence_containing(doc, offset, spans) == expected, (text, offset)
                assert sentence_containing(doc, offset) == expected, (text, offset)


class TestCountOccurrences:
    def test_basic(self):
        assert count_occurrences(_doc("aa aa"), "aa") == 2

    def test_non_overlapping(self):
        assert count_occurrences(_doc("aaa"), "aa") == 1

    def test_case_sensitive(self):
        assert count_occurrences(_doc("Bonn"), "bonn") == 0

    def test_empty_surface_rejected(self):
        with pytest.raises(ValueError):
            count_occurrences(_doc("x"), "")

    def test_token_bounded_mode(self):
        doc = _doc("par is in Paris, Parisian par")
        assert count_occurrences(doc, "par", token_bounded=False) == 2
        assert count_occurrences(doc, "par", token_bounded=True) == 2
        assert count_occurrences(doc, "Paris", token_bounded=True) == 1


def scan_document_frequency(corpus, surface, token_bounded=False):
    """Oracle: the scan ``document_frequency`` did before the token index."""
    if not surface:
        raise ValueError("surface must be non-empty")
    return sum(1 for doc in corpus if count_occurrences(doc, surface, token_bounded) >= 1)


def scan_temporal_document_frequency(corpus, surface, anchor, window_months=6,
                                     token_bounded=False):
    """Oracle: the scan ``temporal_document_frequency`` did before the token
    index."""
    if not surface:
        raise ValueError("surface must be non-empty")
    if window_months is None:
        return scan_document_frequency(corpus, surface, token_bounded)
    if window_months <= 0:
        raise ValueError("window_months must be positive")
    lo = shift_months(anchor, -window_months)
    hi = shift_months(anchor, window_months)
    count = 0
    for date, doc_ids in corpus.date_index.items():
        if lo <= date <= hi:
            for doc_id in doc_ids:
                if count_occurrences(corpus.get(doc_id), surface, token_bounded) >= 1:
                    count += 1
    return count


class TestDocumentFrequency:
    def test_doc_level_counting(self, tiny_corpus):
        assert document_frequency(tiny_corpus, "Paris") == 2
        assert document_frequency(tiny_corpus, "senate") == 1
        assert document_frequency(tiny_corpus, "absent-word") == 0

    def test_multiple_occurrences_count_once(self):
        corpus = Corpus([_doc("w w w w w w w", "only")])
        assert document_frequency(corpus, "w") == 1

    @pytest.mark.parametrize("surface, token_bounded, expected", [
        ("ew Yor", False, 2),  # partial first and last tokens
        ("ew Yor", True, 0),
        ("Paris", False, 3),  # "Parisian" holds it too
        ("Paris", True, 2),
        ("aris", False, 3),  # a lone run matches inside a token
        ("...", False, 2),  # no word character: every document is checked
        ("...", True, 0),  # each run of dots follows a word character
        ("match. The", False, 1),  # spans a sentence mark
        ("Paris, New", False, 1),
        ("Paris, New", True, 1),
        ("York.", False, 2),  # a trailing mark: "York" must end a token
        ("ian p", False, 1),
        ("is", True, 0),
    ])
    def test_named_surfaces(self, surface, token_bounded, expected):
        corpus = Corpus([
            _doc("We met in Paris, New York... and Bonn.", "a", dt.date(2000, 1, 1)),
            _doc("A Parisian paper; New Yorkers read it... York.", "b", dt.date(2000, 3, 1)),
            _doc("Paris won the match. The team left Paris!", "c", dt.date(2001, 1, 1)),
        ])
        assert document_frequency(corpus, surface, token_bounded) == expected
        assert scan_document_frequency(corpus, surface, token_bounded) == expected

    def test_queries_repeat(self, tiny_corpus):
        for _ in range(2):
            assert document_frequency(tiny_corpus, "Paris") == 2
            assert document_frequency(tiny_corpus, "Paris", token_bounded=True) == 2
            assert temporal_document_frequency(tiny_corpus, "Paris", dt.date(2000, 5, 1), 1) == 1

    def test_empty_corpus(self):
        assert document_frequency(Corpus([]), "x") == 0
        assert temporal_document_frequency(Corpus([]), "x", dt.date(2000, 1, 1)) == 0

    def test_empty_surface_rejected(self, tiny_corpus):
        with pytest.raises(ValueError):
            document_frequency(tiny_corpus, "")
        with pytest.raises(ValueError):
            temporal_document_frequency(tiny_corpus, "", dt.date(2000, 1, 1))


def test_token_pattern_matches_word_chars_on_every_code_point():
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(_TOKEN.findall(chars)) == "".join(c for c in chars if _is_word_char(c))
    assert re.fullmatch(r"\w", "_") and not re.fullmatch(r"\w", "\u0301")


#: Letters, digits, "_", space, punctuation, sentence marks, "é", "ß", a
#: combining acute accent, an astral letter and an astral symbol.
_ALPHABET = "abAB01_ ,-'.!?;éß\u0301\U0001D400\U0001F600"
_texts = st.text(alphabet=_ALPHABET, min_size=1, max_size=30)


@st.composite
def corpora_and_queries(draw):
    texts = draw(st.lists(_texts, min_size=1, max_size=8))
    days = draw(st.lists(st.integers(0, 3 * 365), min_size=len(texts), max_size=len(texts)))
    corpus = Corpus(_doc(text, f"d{i}", dt.date(2000, 1, 1) + dt.timedelta(days=day))
                    for i, (text, day) in enumerate(zip(texts, days)))
    queries = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            text = draw(st.sampled_from(texts))
            start = draw(st.integers(0, len(text) - 1))
            surface = text[start:draw(st.integers(start + 1, len(text)))]
        else:
            surface = draw(st.text(alphabet=_ALPHABET, min_size=1, max_size=6))
        anchor = dt.date(2000, 1, 1) + dt.timedelta(days=draw(st.integers(-200, 4 * 365)))
        window = draw(st.one_of(st.none(), st.integers(1, 24)))
        queries.append((surface, anchor, window))
    return corpus, queries


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=corpora_and_queries(), token_bounded=st.booleans())
def test_index_answers_equal_the_scans(case, token_bounded):
    corpus, queries = case
    for surface, anchor, window in queries:
        assert document_frequency(corpus, surface, token_bounded) == \
            scan_document_frequency(corpus, surface, token_bounded), surface
        assert temporal_document_frequency(corpus, surface, anchor, window, token_bounded) == \
            scan_temporal_document_frequency(corpus, surface, anchor, window, token_bounded), \
            (surface, anchor, window)


class TestTemporalDocumentFrequency:
    def test_hand_enumerated_window(self):
        # docs at anchor-5 months (inside) and anchor+7 months (outside)
        anchor = dt.date(2000, 6, 15)
        corpus = Corpus([
            _doc("target here", "a", dt.date(2000, 1, 15)),
            _doc("target here", "b", dt.date(2001, 1, 15)),
        ])
        assert temporal_document_frequency(corpus, "target", anchor, 6) == 1

    def test_inclusive_boundary(self):
        anchor = dt.date(2000, 6, 15)
        corpus = Corpus([_doc("target", "a", dt.date(2000, 12, 15))])
        assert temporal_document_frequency(corpus, "target", anchor, 6) == 1

    def test_empty_window(self):
        anchor = dt.date(1990, 6, 15)
        corpus = Corpus([_doc("target", "a", dt.date(2000, 1, 1))])
        assert temporal_document_frequency(corpus, "target", anchor, 6) == 0

    def test_unbounded_equals_document_frequency(self, tiny_corpus):
        for surface in ("Paris", "vote", "the"):
            assert temporal_document_frequency(
                tiny_corpus, surface, dt.date(2000, 1, 1), None
            ) == document_frequency(tiny_corpus, surface)

    def test_window_monotonicity(self, tiny_corpus):
        anchor = dt.date(2000, 6, 1)
        previous = 0
        for months in (1, 3, 6, 12, 24, 48):
            current = temporal_document_frequency(tiny_corpus, "Paris", anchor, months)
            assert current >= previous
            previous = current

    def test_shift_months_clamps_day(self):
        assert shift_months(dt.date(2000, 8, 31), -6) == dt.date(2000, 2, 29)
        assert shift_months(dt.date(2000, 1, 31), 1) == dt.date(2000, 2, 29)
        assert shift_months(dt.date(2000, 6, 15), 7) == dt.date(2001, 1, 15)


class TestSyntheticCorpus:
    def test_deterministic(self):
        config = GeneratorConfig(n_docs=50)
        a = generate_synthetic_corpus(config, seed=7)
        b = generate_synthetic_corpus(config, seed=7)
        assert [(d.id, d.publication_date, d.topic, d.text) for d in a] == [
            (d.id, d.publication_date, d.topic, d.text) for d in b
        ]

    def test_dates_within_range(self):
        config = GeneratorConfig(
            n_docs=100, start_date=dt.date(1990, 1, 1), end_date=dt.date(1992, 12, 31)
        )
        corpus = generate_synthetic_corpus(config, seed=3)
        for doc in corpus:
            assert config.start_date <= doc.publication_date <= config.end_date

    def test_disjoint_vocabularies_stay_disjoint(self):
        config = GeneratorConfig(
            n_docs=60,
            topics={"A": ["alpha", "apex", "arrow"], "B": ["bravo", "basin", "baker"]},
        )
        corpus = generate_synthetic_corpus(config, seed=11)
        vocab = {"A": {"alpha", "apex", "arrow"}, "B": {"bravo", "basin", "baker"}}
        seen_topics = set()
        for doc in corpus:
            seen_topics.add(doc.topic)
            words = {w.strip(".!?;") for w in doc.text.split()}
            other = "B" if doc.topic == "A" else "A"
            assert not words & vocab[other]
        assert seen_topics == {"A", "B"}

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(GeneratorConfig(topics={"A": []}), seed=1)
