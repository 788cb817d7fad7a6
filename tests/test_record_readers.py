"""The annotation, label and predictions readers against the record-by-record
readers they replaced, hostile round trips of the tab-separated formats, and
the one line format they share."""

import itertools
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from consensus_oracle import (
    LabelledMention,
    annotation_records,
    oracle_read_annotations,
    write_label_records,
)
from eldiff.cli import CliError
from eldiff.consensus import (
    Label,
    SystemAnnotation,
    normalize_entity,
    read_redirects,
    write_annotations,
    write_tsv,
)
from eldiff.errors import MalformedRecordError
from eldiff.features import load_candidate_dictionary
from simulate_oracle import (
    gold_entries,
    labelled_records,
    oracle_read_labels,
    prediction_entries,
)

# --- oracles: the readers as they were before the records became tuples ----------
# Each builds its records through the checking constructors and turns the
# first ValueError into the error it reports. The annotation oracle,
# ``oracle_read_annotations``, is kept with the record path of ``label``, and
# the labels oracle, ``oracle_read_labels``, with the simulation's.


def oracle_read_gold(path, redirect_map=None):
    """The gold reader as it was: every line read into a ``SystemAnnotation``
    first, then copied into the mapping. A conflicting duplicate names the
    line it is on."""
    annotations = oracle_read_annotations(path, redirect_map=redirect_map)
    with open(path, encoding="utf-8") as fh:
        linenos = [lineno for lineno, line in enumerate(fh, start=1) if line.rstrip("\n")]
    entries = {}
    for lineno, a in zip(linenos, annotations, strict=True):
        key = (a.doc_id, a.offset, a.surface)
        if key in entries and entries[key] != a.entity_id:
            raise MalformedRecordError(lineno, f"conflicting gold entries for mention {key}")
        entries[key] = a.entity_id
    return entries


def oracle_read_predictions(path):
    predictions = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) < 4:
                raise CliError(f"predictions line {lineno}: expected at least 4 fields")
            doc_id, offset, surface, label = fields[:4]
            predictions[(doc_id, int(offset), surface)] = Label(label)
    return predictions


def outcome(reader, *args, **kwargs):
    """The records and their types, or the error's type, message and line."""
    try:
        records = reader(*args, **kwargs)
    except (MalformedRecordError, CliError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    if isinstance(records, dict):
        return records
    return records, [type(r) for r in records]


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


# --- annotation dumps -----------------------------------------------------------------

GOOD_ANNOTATION = "d1\t10\tParis\tparis france"
BAD_ANNOTATIONS = {
    "three fields": "d1\t10\tParis",
    "five fields": "d1\t10\tParis\tE\textra",
    "bad offset": "d1\tten\tParis\tE",
    "empty offset": "d1\t\tParis\tE",
    "negative offset": "d1\t-3\tParis\tE",
    "signed offset": "d1\t+7\tParis\tE",
    "padded offset": "d1\t 7 \tParis\tE",
    "zero-padded offset": "d1\t007\tParis\tE",
    "offset with an underscore": "d1\t1_000\tParis\tE",
    "offset in Arabic-Indic digits": "d1\t\u0663\tParis\tE",
    "whitespace-only entity": "d1\t3\tParis\t \x0b ",
    "negative offset and empty entity": "d1\t-3\tParis\t",
    "redirect to an empty id": "d1\t3\tParis\tGone",
}
REDIRECTS = {"Gone": ""}


class TestAnnotationOracle:
    @pytest.mark.parametrize("kind", sorted(BAD_ANNOTATIONS))
    def test_records_or_error_match(self, tmp_path, kind):
        path = write_lines(tmp_path / "sys.tsv",
                           [GOOD_ANNOTATION, "", GOOD_ANNOTATION, BAD_ANNOTATIONS[kind]])
        expected = outcome(oracle_read_annotations, path, redirect_map=REDIRECTS)
        assert outcome(annotation_records, path, redirect_map=REDIRECTS) == expected

    @pytest.mark.parametrize("first, second",
                             list(itertools.product(sorted(BAD_ANNOTATIONS), repeat=2)))
    def test_earliest_bad_line_wins(self, tmp_path, first, second):
        path = write_lines(tmp_path / "sys.tsv", [GOOD_ANNOTATION, BAD_ANNOTATIONS[first],
                                                  GOOD_ANNOTATION, BAD_ANNOTATIONS[second]])
        expected = outcome(oracle_read_annotations, path, redirect_map=REDIRECTS)
        assert expected[2] == 2
        assert outcome(annotation_records, path, redirect_map=REDIRECTS) == expected

    def test_generated_dump_matches(self, tmp_path):
        lines = [f"doc{i % 7}\t{i * 3}\tw{i % 5} x\t{' e ' if i % 4 else 'E'}{i % 11}"
                 for i in range(300)]
        path = write_lines(tmp_path / "alpha.tsv", lines)
        redirects = {"E3": "E4", "E_5": "Other"}
        for kwargs in ({}, {"redirect_map": redirects}):
            assert outcome(annotation_records, path, **kwargs) == \
                outcome(oracle_read_annotations, path, **kwargs)


    @pytest.mark.parametrize("valid", ["d1\t10\tParis\tParis", "d1\t10\t \tParis",
                                       "d1\t10\tParis\tGone"])
    def test_empty_id_after_a_valid_line_with_the_same_text(self, tmp_path, valid):
        # each raw id is normalized once per file; the empty one still fails
        # on its own line
        path = write_lines(tmp_path / "sys.tsv", [valid, valid, "d1\t10\tParis\t "])
        expected = outcome(oracle_read_annotations, path)
        assert expected[:2] == (MalformedRecordError, "line 3: empty entity id")
        assert outcome(annotation_records, path) == expected


class TestGoldOracle:
    @pytest.mark.parametrize("kind", sorted(BAD_ANNOTATIONS))
    def test_entries_or_error_match(self, tmp_path, kind):
        path = write_lines(tmp_path / "gold.tsv",
                           [GOOD_ANNOTATION, "", GOOD_ANNOTATION, BAD_ANNOTATIONS[kind]])
        expected = outcome(oracle_read_gold, path, redirect_map=REDIRECTS)
        assert outcome(gold_entries, path, redirect_map=REDIRECTS) == expected

    @pytest.mark.parametrize("last, line_number", [("d2\t1\tBonn\tBonn", 2),
                                                   (BAD_ANNOTATIONS["bad offset"], 3)])
    def test_conflicting_duplicate(self, tmp_path, last, line_number):
        # a bad line anywhere in the file wins over a conflict before it
        path = write_lines(tmp_path / "gold.tsv",
                           [GOOD_ANNOTATION, "d1\t10\tParis\tLyon", last])
        expected = outcome(oracle_read_gold, path)
        assert expected[0] is MalformedRecordError and expected[2] == line_number
        assert outcome(gold_entries, path) == expected

    def test_generated_gold_matches(self, tmp_path):
        lines = [f"doc{i % 7}\t{i * 3}\tw{i % 5} x\t{' e ' if i % 4 else 'E'}{i % 11}"
                 for i in range(300)]
        path = write_lines(tmp_path / "gold.tsv", lines + lines[:50])
        for kwargs in ({}, {"redirect_map": {"E3": "E4"}}):
            expected = outcome(oracle_read_gold, path, **kwargs)
            assert len(expected) == 300
            assert outcome(gold_entries, path, **kwargs) == expected


# --- label files ----------------------------------------------------------------------

GOOD_LABEL = "d1\t10\tParis\tMEDIUM\tE1,E1,E2"
BAD_LABELS = {
    "four fields": "d1\t10\tParis\tEASY",
    "six fields": "d1\t10\tParis\tEASY\tE1,E1\textra",
    "bad offset": "d1\tzz\tParis\tEASY\tE1,E1",
    "bad label": "d1\t10\tParis\tHARDX\tE1,E2",
    "lower-case label": "d1\t10\tParis\thard\tE1,E2",
    "empty label": "d1\t10\tParis\t\tE1,E2",
    "a single entity": "d1\t10\tParis\tEASY\tE1",
    "no entity": "d1\t10\tParis\tEASY\t",
}


class TestLabelOracle:
    @pytest.mark.parametrize("kind", sorted(BAD_LABELS))
    def test_records_or_error_match(self, tmp_path, kind):
        path = write_lines(tmp_path / "labels.tsv",
                           [GOOD_LABEL, "", GOOD_LABEL, BAD_LABELS[kind]])
        expected = outcome(oracle_read_labels, path)
        assert expected[0] is MalformedRecordError and expected[2] == 4
        assert outcome(labelled_records, path) == expected

    @pytest.mark.parametrize("first, second",
                             list(itertools.product(sorted(BAD_LABELS), repeat=2)))
    def test_earliest_bad_line_wins(self, tmp_path, first, second):
        path = write_lines(tmp_path / "labels.tsv",
                           [GOOD_LABEL, BAD_LABELS[first], GOOD_LABEL, BAD_LABELS[second]])
        expected = outcome(oracle_read_labels, path)
        assert expected[2] == 2
        assert outcome(labelled_records, path) == expected

    def test_zero_padded_offset_is_refused(self, tmp_path):
        # read as 7, it would be written back as "7": the file would not
        # round-trip byte for byte
        lines = ["d1\t0\tParis\tEASY\tE1,E1", "d1\t007\tParis\tEASY\tE1,E1"]
        path = write_lines(tmp_path / "labels.tsv", lines[:1])
        write_label_records(labelled_records(path), tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_text(encoding="utf-8") == lines[0] + "\n"
        path = write_lines(tmp_path / "labels.tsv", lines)
        assert outcome(labelled_records, path) == (
            MalformedRecordError, "line 2: bad offset '007'", 2)

    def test_generated_file_matches(self, tmp_path):
        lines = [f"doc{i % 7}\t{i * 3}\tw{i % 5}\t{('HARD', 'MEDIUM', 'EASY')[i % 3]}"
                 f"\tE{i % 4},E{i % 3},E{i % 2}" for i in range(300)]
        path = write_lines(tmp_path / "labels.tsv", lines)
        records = labelled_records(path)
        assert outcome(labelled_records, path) == outcome(oracle_read_labels, path)
        assert records[0][:3] == ("doc0", "w0", 0)


# --- predictions files ------------------------------------------------------------------

GOOD_PREDICTION = "d1\t10\tParis\tHARD\t0.5\t0.25\t0.25"


class TestPredictionsOracle:
    def test_records_match(self, tmp_path):
        lines = [f"doc{i % 7}\t{i}\tw{i % 5}\t{('HARD', 'MEDIUM', 'EASY')[i % 3]}\t0.1\t0.2\t0.7"
                 for i in range(50)]
        path = write_lines(tmp_path / "predictions.tsv", [*lines, "", "d\t1\tx\tEASY"])
        assert outcome(prediction_entries, path) == outcome(oracle_read_predictions, path)

    def test_field_count_error_names_its_line(self, tmp_path):
        path = write_lines(tmp_path / "predictions.tsv", [GOOD_PREDICTION, "d1\t10\tParis"])
        # the old reader said "predictions line 2: ..." in a CliError
        assert outcome(prediction_entries, path) == (
            MalformedRecordError, "line 2: expected at least 4 tab-separated fields, got 3", 2)

    @pytest.mark.parametrize("line, message", [
        ("d1\tzz\tParis\tHARD", "line 2: bad offset 'zz'"),
        ("d1\t10\tParis\tHARDX", "line 2: bad label 'HARDX'"),
    ])
    def test_bad_value_names_its_line(self, tmp_path, line, message):
        path = write_lines(tmp_path / "predictions.tsv", [GOOD_PREDICTION, line, "d1\tyy\tx\tEASY"])
        # the old reader raised a bare ValueError that named no line
        assert outcome(oracle_read_predictions, path)[0] is ValueError
        assert outcome(prediction_entries, path) == (MalformedRecordError, message, 2)

    def test_zero_padded_offset_is_refused(self, tmp_path):
        path = write_lines(tmp_path / "predictions.tsv",
                           ["d1\t0\tParis\tHARD", "d1\t007\tParis\tHARD"])
        # the old reader read it as offset 7
        assert ("d1", 7, "Paris") in oracle_read_predictions(path)
        assert outcome(prediction_entries, path) == (
            MalformedRecordError, "line 2: bad offset '007'", 2)


# --- the records themselves ---------------------------------------------------------------


class TestRecords:
    def test_constructors_keep_their_checks(self):
        with pytest.raises(ValueError, match="negative offset -1 in 'd'"):
            SystemAnnotation("d", "x", -1, "E")
        with pytest.raises(ValueError, match="empty entity id at 'd':0"):
            SystemAnnotation("d", "x", 0, "")
        with pytest.raises(ValueError, match="at least 2 systems"):
            LabelledMention("d", "x", 0, ("E",), Label.EASY)

    def test_records_are_tuples(self):
        annotation = SystemAnnotation("d", "xy", 3, "E")
        assert annotation == ("d", "xy", 3, "E")
        labelled = LabelledMention("d", "xy", 3, ("E", "F"), Label.HARD)
        assert labelled == ("d", "xy", 3, ("E", "F"), Label.HARD)
        assert LabelledMention._fields == ("doc_id", "surface", "offset", "entities", "label")
        with pytest.raises(AttributeError):
            annotation.offset = 4


# --- hostile round trips --------------------------------------------------------------------
# Fields may hold tabs and line breaks too: the writers must refuse those record
# sets, naming the field and leaving no file, and round-trip every other one.

BREAKS = ["\t", "\n", "\r"]
HOSTILE = ["1984", "\x0b", "\x1c", "\x85", "\u2028", "\u2029", "\U0001F600", "\U00010348",
           " ", "a b"]
# about one piece in twenty holds a tab or line break
pieces = st.one_of(
    st.sampled_from(HOSTILE * 3 + BREAKS),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=4),
)
field_text = st.lists(pieces, max_size=4).map("".join)
offsets = st.integers(min_value=0, max_value=10 ** 12)
HOSTILE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                            suppress_health_check=[HealthCheck.function_scoped_fixture])


def first_unwritable(fields):
    """The first of the fields that holds a tab or line break, or None."""
    return next((f for f in fields if any(b in f for b in BREAKS)), None)


def refused(write, records, path, fields):
    """Whether ``write`` had to refuse the records: if one of their fields
    holds a tab or line break, it raises ValueError naming the first such
    field and leaves no file at the path."""
    path.unlink(missing_ok=True)
    bad = first_unwritable(fields)
    if bad is None:
        return False
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        write(records, path)
    assert not path.exists()
    return True


@st.composite
def annotations(draw):
    return SystemAnnotation(draw(field_text), draw(field_text), draw(offsets),
                            draw(field_text.filter(bool)))


@st.composite
def labelled_mentions(draw):
    ids = st.lists(pieces, max_size=4).map("".join).map(lambda s: s.replace(",", ""))
    entities = tuple(draw(st.lists(ids, min_size=2, max_size=4)))
    return LabelledMention(draw(field_text), draw(field_text), draw(offsets), entities,
                           draw(st.sampled_from(list(Label))))


def expected_gold_or_error(entries):
    """The normalized entries, or the error of the first line whose id
    normalizes to nothing."""
    expected = {}
    for lineno, (key, entity) in enumerate(sorted(entries.items()), start=1):
        try:
            expected[key] = normalize_entity(entity)
        except ValueError:
            return MalformedRecordError, f"line {lineno}: empty entity id", lineno
    return expected


@HOSTILE_SETTINGS
@given(records=st.lists(annotations(), max_size=8))
def test_annotation_dump_roundtrip(tmp_path, records):
    path = tmp_path / "sys.tsv"
    if refused(write_annotations, records, path,
               [f for a in records for f in (a.doc_id, a.surface, a.entity_id)]):
        return
    write_annotations(records, path)
    expected = []
    for lineno, a in enumerate(records, start=1):
        try:
            expected.append(a._replace(entity_id=normalize_entity(a.entity_id)))
        except ValueError:
            with pytest.raises(MalformedRecordError, match=f"^line {lineno}: empty entity id$"):
                annotation_records(path)
            return
    assert annotation_records(path) == expected


@HOSTILE_SETTINGS
@given(records=st.lists(labelled_mentions(), max_size=8))
def test_label_file_roundtrip(tmp_path, records):
    path = tmp_path / "labels.tsv"
    if refused(write_label_records, records, path,
               [f for lm in records for f in (lm.doc_id, lm.surface, ",".join(lm.entities))]):
        return
    write_label_records(records, path)
    again = labelled_records(path)
    assert again == records
    assert all(type(lm) is LabelledMention for lm in again)


def write_predictions(records, path):
    """The predictions layout ``predict`` writes, through the shared writer."""
    write_tsv([(doc_id, str(offset), surface, label.value, *(f"{p:.9g}" for p in probs))
               for (doc_id, offset, surface), label, probs in records], path)


@HOSTILE_SETTINGS
@given(records=st.lists(st.tuples(st.tuples(field_text, offsets, field_text),
                                  st.sampled_from(list(Label)),
                                  st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)),
                        max_size=8))
def test_predictions_file_roundtrip(tmp_path, records):
    path = tmp_path / "predictions.tsv"
    if refused(write_predictions, records, path,
               [f for (doc_id, _, surface), _, _ in records for f in (doc_id, surface)]):
        return
    write_predictions(records, path)
    # a later prediction for the same key wins
    assert prediction_entries(path) == {key: label for key, label, _ in records}


def write_gold(entries, path):
    """The gold file as ``gen-synthetic`` writes it."""
    write_annotations([SystemAnnotation(doc_id, surface, offset, entity)
                       for (doc_id, offset, surface), entity in sorted(entries.items())], path)


@HOSTILE_SETTINGS
@given(entries=st.dictionaries(st.tuples(field_text, offsets, field_text),
                               field_text.filter(bool), max_size=8))
def test_gold_file_roundtrip(tmp_path, entries):
    path = tmp_path / "gold.tsv"
    if refused(write_gold, entries, path,
               [f for (doc_id, _, surface), entity in sorted(entries.items())
                for f in (doc_id, surface, entity)]):
        return
    write_gold(entries, path)
    assert outcome(gold_entries, path) == expected_gold_or_error(entries)


# --- one line format ----------------------------------------------------------------------------

SHORT_LINES = {
    "annotations": (annotation_records, GOOD_ANNOTATION, "4"),
    "gold": (gold_entries, GOOD_ANNOTATION, "4"),
    "labels": (labelled_records, GOOD_LABEL, "5"),
    "predictions": (prediction_entries, GOOD_PREDICTION, "at least 4"),
    "candidates": (load_candidate_dictionary, "Paris\t3", "2"),
    "redirects": (read_redirects, "Obama\tBarack Obama", "2"),
}


@pytest.mark.parametrize("kind", sorted(SHORT_LINES))
def test_short_line_names_its_line_in_every_format(tmp_path, kind):
    reader, good, expected = SHORT_LINES[kind]
    path = write_lines(tmp_path / f"{kind}.tsv", [good, good.split("\t")[0], good])
    with pytest.raises(MalformedRecordError) as exc:
        reader(path)
    assert exc.value.line_number == 2
    assert str(exc.value) == f"line 2: expected {expected} tab-separated fields, got 1"


OFFSET_LINES = {
    "annotations": (annotation_records, "d1\t{}\tParis\tE"),
    "gold": (gold_entries, "d1\t{}\tParis\tE"),
    "labels": (labelled_records, "d1\t{}\tParis\tEASY\tE1,E1"),
    "predictions": (prediction_entries, "d1\t{}\tParis\tHARD\t1\t0\t0"),
}


@pytest.mark.parametrize("offset", ["-1", "+7", " 7 ", "7\x0b", "1_000", "\u0663", "\U0001D7D5",
                                    "007", "00"])
@pytest.mark.parametrize("kind", sorted(OFFSET_LINES))
def test_offset_is_ascii_digits_in_every_format(tmp_path, kind, offset):
    # int() reads each of these as a number that writes back as other text
    reader, line = OFFSET_LINES[kind]
    path = write_lines(tmp_path / f"{kind}.tsv",
                       [line.format("0"), line.format("1234567890"), line.format(offset)])
    with pytest.raises(MalformedRecordError) as exc:
        reader(path)
    assert str(exc.value) == f"line 3: bad offset {offset!r}"


def test_writer_checks_and_joins_every_chunk(tmp_path):
    rows = [(f"d{i}", str(i), "x", "E") for i in range(10000)]
    path = tmp_path / "big.tsv"
    write_tsv(rows, path)
    assert path.read_text(encoding="utf-8") == "".join("\t".join(r) + "\n" for r in rows)
    path.unlink()
    rows[9000] = ("d", "1", "x\ry", "E")
    with pytest.raises(ValueError, match=r"^row 9001: field 'x\\ry' "):
        write_tsv(rows, path)
    assert not path.exists()
