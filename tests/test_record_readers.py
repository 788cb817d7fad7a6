"""The annotation, label and predictions readers against the record-by-record
readers they replaced, and hostile round trips of the two text formats."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eldiff.cli import CliError, _read_predictions
from eldiff.consensus import (
    AlignedMention,
    Label,
    LabelledMention,
    SystemAnnotation,
    normalize_entity,
    read_annotations,
    read_labels,
    write_annotations,
    write_labels,
)
from eldiff.errors import MalformedRecordError

# --- oracles: the readers as they were before the records became tuples ----------
# Each builds its records through the checking constructors and turns the
# first ValueError into the error it reports.


def oracle_read_annotations(path, system_id=None, redirect_map=None, normalize=True):
    if system_id is None:
        system_id = path.stem
    annotations = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise MalformedRecordError(lineno, f"expected 4 tab-separated fields, got {len(fields)}")
            doc_id, offset_str, surface, entity = fields
            try:
                offset = int(offset_str)
            except ValueError:
                raise MalformedRecordError(lineno, f"bad offset {offset_str!r}") from None
            if normalize:
                try:
                    entity = normalize_entity(entity, redirect_map)
                except ValueError:
                    raise MalformedRecordError(lineno, "empty entity id") from None
            try:
                annotations.append(SystemAnnotation(system_id, doc_id, surface, offset, entity))
            except ValueError as exc:
                raise MalformedRecordError(lineno, str(exc)) from None
    return annotations


def oracle_read_labels(path):
    labelled = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise MalformedRecordError(lineno, f"expected 5 tab-separated fields, got {len(fields)}")
            doc_id, offset_str, surface, label_str, entities_str = fields
            try:
                offset = int(offset_str)
            except ValueError:
                raise MalformedRecordError(lineno, f"bad offset {offset_str!r}") from None
            try:
                lbl = Label(label_str)
            except ValueError:
                raise MalformedRecordError(lineno, f"bad label {label_str!r}") from None
            entities = tuple(entities_str.split(","))
            try:
                mention = AlignedMention(doc_id, surface, offset, entities)
            except ValueError as exc:
                raise MalformedRecordError(lineno, str(exc)) from None
            labelled.append(LabelledMention(mention, lbl))
    return labelled


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
    return records, [type(r) for r in records], [type(r[0]) for r in records
                                                 if isinstance(r, LabelledMention)]


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
    "whitespace-only entity": "d1\t3\tParis\t \x0b ",
    "negative offset and empty entity": "d1\t-3\tParis\t",
    "redirect to an empty id": "d1\t3\tParis\tGone",
}
REDIRECTS = {"Gone": ""}


class TestAnnotationOracle:
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("kind", sorted(BAD_ANNOTATIONS))
    def test_records_or_error_match(self, tmp_path, kind, normalize):
        path = write_lines(tmp_path / "sys.tsv",
                           [GOOD_ANNOTATION, "", GOOD_ANNOTATION, BAD_ANNOTATIONS[kind]])
        expected = outcome(oracle_read_annotations, path, redirect_map=REDIRECTS,
                           normalize=normalize)
        assert outcome(read_annotations, path, redirect_map=REDIRECTS,
                       normalize=normalize) == expected

    @pytest.mark.parametrize("first, second",
                             list(itertools.product(sorted(BAD_ANNOTATIONS), repeat=2)))
    def test_earliest_bad_line_wins(self, tmp_path, first, second):
        path = write_lines(tmp_path / "sys.tsv", [GOOD_ANNOTATION, BAD_ANNOTATIONS[first],
                                                  GOOD_ANNOTATION, BAD_ANNOTATIONS[second]])
        expected = outcome(oracle_read_annotations, path, redirect_map=REDIRECTS)
        assert expected[2] == 2
        assert outcome(read_annotations, path, redirect_map=REDIRECTS) == expected

    def test_generated_dump_matches(self, tmp_path):
        lines = [f"doc{i % 7}\t{i * 3}\tw{i % 5} x\t{' e ' if i % 4 else 'E'}{i % 11}"
                 for i in range(300)]
        path = write_lines(tmp_path / "alpha.tsv", lines)
        redirects = {"E3": "E4", "E_5": "Other"}
        for kwargs in ({}, {"redirect_map": redirects}, {"normalize": False},
                       {"system_id": "named"}):
            assert outcome(read_annotations, path, **kwargs) == \
                outcome(oracle_read_annotations, path, **kwargs)


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
        assert outcome(read_labels, path) == expected

    @pytest.mark.parametrize("first, second",
                             list(itertools.product(sorted(BAD_LABELS), repeat=2)))
    def test_earliest_bad_line_wins(self, tmp_path, first, second):
        path = write_lines(tmp_path / "labels.tsv",
                           [GOOD_LABEL, BAD_LABELS[first], GOOD_LABEL, BAD_LABELS[second]])
        expected = outcome(oracle_read_labels, path)
        assert expected[2] == 2
        assert outcome(read_labels, path) == expected

    def test_generated_file_matches(self, tmp_path):
        lines = [f"doc{i % 7}\t{i * 3}\tw{i % 5}\t{('HARD', 'MEDIUM', 'EASY')[i % 3]}"
                 f"\tE{i % 4},E{i % 3},E{i % 2}" for i in range(300)]
        path = write_lines(tmp_path / "labels.tsv", lines)
        records = read_labels(path)
        assert outcome(read_labels, path) == outcome(oracle_read_labels, path)
        assert records[0].key == ("doc0", 0, "w0")


# --- predictions files ------------------------------------------------------------------

GOOD_PREDICTION = "d1\t10\tParis\tHARD\t0.5\t0.25\t0.25"


class TestPredictionsOracle:
    def test_records_match(self, tmp_path):
        lines = [f"doc{i % 7}\t{i}\tw{i % 5}\t{('HARD', 'MEDIUM', 'EASY')[i % 3]}\t0.1\t0.2\t0.7"
                 for i in range(50)]
        path = write_lines(tmp_path / "predictions.tsv", [*lines, "", "d\t1\tx\tEASY"])
        assert outcome(_read_predictions, path) == outcome(oracle_read_predictions, path)

    def test_field_count_error_names_its_line(self, tmp_path):
        path = write_lines(tmp_path / "predictions.tsv", [GOOD_PREDICTION, "d1\t10\tParis"])
        # the old reader said "predictions line 2: ..." in a CliError
        assert outcome(_read_predictions, path) == (
            MalformedRecordError, "line 2: expected at least 4 fields", 2)

    @pytest.mark.parametrize("line, message", [
        ("d1\tzz\tParis\tHARD", "line 2: bad offset 'zz'"),
        ("d1\t10\tParis\tHARDX", "line 2: bad label 'HARDX'"),
    ])
    def test_bad_value_names_its_line(self, tmp_path, line, message):
        path = write_lines(tmp_path / "predictions.tsv", [GOOD_PREDICTION, line, "d1\tyy\tx\tEASY"])
        # the old reader raised a bare ValueError that named no line
        assert outcome(oracle_read_predictions, path)[0] is ValueError
        assert outcome(_read_predictions, path) == (MalformedRecordError, message, 2)


# --- the records themselves ---------------------------------------------------------------


class TestRecords:
    def test_constructors_keep_their_checks(self):
        with pytest.raises(ValueError, match="negative offset -1 in 'd'"):
            SystemAnnotation("s", "d", "x", -1, "E")
        with pytest.raises(ValueError, match="empty entity id at 'd':0"):
            SystemAnnotation("s", "d", "x", 0, "")
        with pytest.raises(ValueError, match="at least 2 systems"):
            AlignedMention("d", "x", 0, ("E",))

    def test_records_are_tuples(self):
        annotation = SystemAnnotation("s", "d", "xy", 3, "E")
        assert annotation == ("s", "d", "xy", 3, "E") and annotation.span == (3, 5)
        mention = AlignedMention("d", "xy", 3, ("E", "F"))
        labelled = LabelledMention(mention, Label.HARD)
        assert labelled == (("d", "xy", 3, ("E", "F")), Label.HARD)
        assert labelled.key == mention.key == ("d", 3, "xy")
        with pytest.raises(AttributeError):
            annotation.offset = 4


# --- hostile round trips --------------------------------------------------------------------

HOSTILE = ["1984", "\x0b", "\x1c", "\x85", "\u2028", "\u2029", "\U0001F600", "\U00010348",
           " ", "a b"]
pieces = st.one_of(
    st.sampled_from(HOSTILE),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\t\n\r"), max_size=4),
)
field_text = st.lists(pieces, max_size=4).map("".join)
offsets = st.integers(min_value=0, max_value=10 ** 12)


@st.composite
def annotations(draw):
    return SystemAnnotation("sys", draw(field_text), draw(field_text), draw(offsets),
                            draw(field_text.filter(bool)))


@st.composite
def labelled_mentions(draw):
    ids = st.lists(pieces, max_size=4).map("".join).map(lambda s: s.replace(",", ""))
    entities = tuple(draw(st.lists(ids, min_size=2, max_size=4)))
    mention = AlignedMention(draw(field_text), draw(field_text), draw(offsets), entities)
    return LabelledMention(mention, draw(st.sampled_from(list(Label))))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(annotations(), max_size=8))
def test_annotation_dump_roundtrip(tmp_path, records):
    path = tmp_path / "sys.tsv"
    write_annotations(records, path)
    assert read_annotations(path, system_id="sys", normalize=False) == records
    expected = []
    for lineno, a in enumerate(records, start=1):
        try:
            expected.append(a._replace(entity_id=normalize_entity(a.entity_id)))
        except ValueError:
            with pytest.raises(MalformedRecordError, match=f"^line {lineno}: empty entity id$"):
                read_annotations(path, system_id="sys")
            return
    assert read_annotations(path, system_id="sys") == expected


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(labelled_mentions(), max_size=8))
def test_label_file_roundtrip(tmp_path, records):
    path = tmp_path / "labels.tsv"
    write_labels(records, path)
    again = read_labels(path)
    assert again == records
    assert all(type(lm) is LabelledMention and type(lm.mention) is AlignedMention
               for lm in again)
