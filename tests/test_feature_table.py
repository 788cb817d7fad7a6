"""The columnar feature table: bit-level details of imputation and writing,
the first-error rule of the reader, and hostile round trips."""

import csv
import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eldiff.cli import EXIT_ERROR, main
from eldiff.consensus import LABEL_OF_VALUE, Label
from eldiff.errors import MalformedRecordError
from eldiff.features import (
    FEATURE_COLUMNS,
    STABILITY_COLUMNS,
    FeatureSchema,
    FeatureTable,
    _row_problem,
    read_table,
)

INT_COLUMNS = {"m_len", "m_words", "m_freq", "m_df", "m_cand", "m_sent",
               "d_words", "d_ents", "t_age", "t_df"}
OPTIONAL_COLUMNS = {"t_j_min", "t_j_max", "t_j_avg", "d_topic"}
DEFAULTS = {
    "m_len": 0, "m_words": 0, "m_freq": 0, "m_df": 0, "m_cand": 0, "m_pos": 0.0,
    "m_sent": 0, "d_words": 0, "d_topic": "", "d_ents": 0, "t_age": 0, "t_df": 0,
    "t_j_min": None, "t_j_max": None, "t_j_avg": None,
}


def rowwise_read_errors(path):
    """The row-at-a-time reader the columnar one replaced, as the oracle for
    error messages and line numbers: each record parsed on its own and
    checked by the row rules."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        columns = tuple(header[:-1])
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise MalformedRecordError(lineno, f"expected {len(header)} fields, got {len(record)}")
            values = dict(DEFAULTS)
            try:
                for column, text in zip(columns, record):
                    if column == "d_topic":
                        values[column] = text
                    elif text == "":
                        if column not in OPTIONAL_COLUMNS:
                            raise ValueError(f"column {column} cannot be empty")
                        values[column] = None
                    elif column in INT_COLUMNS:
                        values[column] = int(text)
                    else:
                        values[column] = float(text)
                label_text = record[-1]
                if label_text and label_text not in LABEL_OF_VALUE:
                    raise ValueError(f"bad label {label_text!r}")
                problem = _row_problem(*(values[c] for c in ("m_len", "m_words", "m_pos",
                                                             *STABILITY_COLUMNS)))
                if problem is not None:
                    raise ValueError(problem)
            except ValueError as exc:
                raise MalformedRecordError(lineno, str(exc)) from None


BASE = dict(
    m_len=5, m_words=1, m_freq=1, m_df=1, m_cand=2, m_pos=0.1, m_sent=20,
    d_words=50, d_topic="SPORTS", d_ents=3, t_age=16, t_df=1,
    t_j_min=0.2, t_j_max=0.6, t_j_avg=0.4, label=Label.EASY,
)


def _table(rows=1, **columns):
    """A table of ``rows`` rows of the base values, except that a column
    given here holds its value in every row, or its list of values."""
    columns = {c: v if isinstance(v, list) else [v] * rows
               for c, v in {**BASE, **columns}.items()}
    return FeatureTable(columns, columns["label"])


def _python(table):
    """The columns of ``table`` as Python values, None where a stability
    value is missing, and its labels."""
    columns = {c: list(table.column(c)) if c == "d_topic" else table.column(c).tolist()
               for c in FEATURE_COLUMNS}
    for c in STABILITY_COLUMNS:
        columns[c] = [None if math.isnan(v) else v for v in columns[c]]
    return {**columns, "label": table.labels()}


GOOD = "5,1,1,1,2,0.1,20,50,SPORTS,3,16,1,0.2,0.6,0.4,EASY"
HEADER = ",".join(FEATURE_COLUMNS) + ",label"


def _with(**changes):
    fields = dict(zip(FEATURE_COLUMNS + ("label",), GOOD.split(",")))
    fields.update(changes)
    return ",".join(fields[c] for c in FEATURE_COLUMNS + ("label",))


BAD_LINES = {
    "fields": "1,2,3",
    "empty int": _with(m_freq=""),
    "bad int": _with(m_df="3.5"),
    "bad float": _with(m_pos="x"),
    "empty m_pos": _with(m_pos=""),
    "bad label": _with(label="HARDER"),
    "words over len": _with(m_words="9", m_len="3"),
    "m_pos one": _with(m_pos="1.0"),
    "m_pos nan": _with(m_pos="nan"),
    "partial triple": _with(t_j_max=""),
    "unordered triple": _with(t_j_min="0.9"),
    "nan triple": _with(t_j_min="nan", t_j_max="nan", t_j_avg="nan"),
}


class TestReadErrors:
    @pytest.mark.parametrize("kind", sorted(BAD_LINES))
    def test_message_and_line_match_the_rowwise_reader(self, tmp_path, kind):
        path = tmp_path / "f.csv"
        path.write_text("\n".join([HEADER, GOOD, GOOD, BAD_LINES[kind], GOOD]) + "\n",
                        encoding="utf-8")
        with pytest.raises(MalformedRecordError) as expected:
            rowwise_read_errors(path)
        with pytest.raises(MalformedRecordError) as got:
            read_table(path)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("line 4: ")

    @pytest.mark.parametrize("first", sorted(BAD_LINES))
    @pytest.mark.parametrize("second", ["fields", "bad int", "partial triple", "words over len"])
    def test_earliest_bad_line_wins(self, tmp_path, first, second):
        path = tmp_path / "f.csv"
        path.write_text("\n".join([HEADER, GOOD, BAD_LINES[first], GOOD, BAD_LINES[second]])
                        + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError) as expected:
            rowwise_read_errors(path)
        with pytest.raises(MalformedRecordError) as got:
            read_table(path)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("line 3: ")

    def test_bad_label_worded_as_the_other_readers(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("\n".join([HEADER, GOOD, BAD_LINES["bad label"]]) + "\n",
                        encoding="utf-8")
        with pytest.raises(MalformedRecordError, match=r"^line 3: bad label 'HARDER'$"):
            read_table(path)

    def test_reduced_table_checks_rules_against_defaults(self, tmp_path):
        # absent m_len defaults to 0, so m_words 2 breaks m_words <= m_len
        path = tmp_path / "f.csv"
        path.write_text("m_words,label\n0,EASY\n2,HARD\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError, match="line 3: m_words cannot exceed m_len"):
            read_table(path)

    def test_empty_table(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(HEADER + "\n", encoding="utf-8")
        schema, table = read_table(path)
        assert schema.columns == FEATURE_COLUMNS
        assert len(table) == 0
        assert _python(table) == {c: [] for c in FEATURE_COLUMNS + ("label",)}


class TestImputeBits:
    def test_mean_adds_python_floats_in_row_order(self):
        values = [0.96, 0.72, 0.54, 0.28, 0.16, 0.97, 0.52, 0.12, 0.62, 0.78, 0.61, 0.92]
        # the pairwise sum in np.mean rounds differently on this column
        assert np.mean(values) != sum(values) / len(values)
        triple = values + [None]
        table = _table(len(triple), t_j_min=triple, t_j_max=triple, t_j_avg=triple)
        filled = [table.impute("mean").column(c)[-1] for c in STABILITY_COLUMNS]
        assert filled == [sum(values) / len(values)] * 3

    def test_nan_constant_breaks_the_row_rules(self):
        table = _table(2, t_j_min=[0.2, None], t_j_max=[0.6, None], t_j_avg=[0.4, None])
        with pytest.raises(ValueError, match="min <= avg <= max"):
            table.impute("constant", constant=math.nan)

    def test_constant_fills_only_what_is_missing(self):
        table = _table(2, d_topic=["", "SPORTS"], t_j_min=[0.2, None], t_j_max=[0.6, None],
                       t_j_avg=[0.4, None]).impute("constant", constant=0.5)
        assert table.column("d_topic") == ["UNKNOWN", "SPORTS"]
        assert table.column("t_j_avg").tolist() == [0.4, 0.5]


class TestWriteBits:
    def test_floats_are_written_as_python_reprs(self, tmp_path):
        # repr(np.float64(x)) is "np.float64(x)" on numpy 2, not repr(x)
        m_pos = 0.1 + 0.2
        path = tmp_path / "f.csv"
        _table(m_pos=m_pos, t_j_min=1 / 3, t_j_max=2 / 3, t_j_avg=0.5).write_csv(path)
        record = path.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert record[5] == repr(m_pos) == "0.30000000000000004"
        assert record[12:15] == [repr(1 / 3), repr(2 / 3), "0.5"]

    def test_imputed_table_writes_its_fills(self, tmp_path):
        path = tmp_path / "f.csv"
        table = _table(2, t_j_min=[0.2, None], t_j_max=[0.6, None], t_j_avg=[0.4, None],
                       d_topic=["SPORTS", ""])
        table.impute("mean").write_csv(path)
        record = path.read_text(encoding="utf-8").splitlines()[2].split(",")
        assert record[8] == "UNKNOWN" and record[12:15] == ["0.2", "0.6", "0.4"]


# --- hostile round trips ---------------------------------------------------------

PRESETS = {
    "all": FeatureSchema.all(),
    "candidate_count": FeatureSchema.candidate_count(),
    "mention_length": FeatureSchema.mention_length(),
    "without_temporal": FeatureSchema.without_temporal(),
    "simulation": FeatureSchema.simulation_preset(),
}

topics = st.one_of(
    st.just(""),
    st.sampled_from(["1984", "007", "Washington,_D.C.", 'say "hi"', "a,b\"c", "\U0001F600x",
                     "\U00010348", " padded ", "a\rb", "a\nb", "a\r\nb"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
)
unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
counts = st.integers(min_value=0, max_value=2 ** 40)


@st.composite
def feature_columns(draw):
    """Every feature column's values and the labels of up to 8 rows; a
    stability triple is all None or sorted as min, avg, max."""
    n = draw(st.integers(min_value=0, max_value=8))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    m_len = column(st.integers(min_value=0, max_value=10 ** 6))
    triples = column(st.one_of(st.none(), st.lists(st.floats(min_value=0.0, max_value=1.0),
                                                   min_size=3, max_size=3)))
    lo, avg, hi = ([sorted(t)[i] if t else None for t in triples] for i in range(3))
    return {
        "m_len": m_len, "m_words": [draw(st.integers(min_value=0, max_value=v)) for v in m_len],
        "m_freq": column(counts), "m_df": column(counts), "m_cand": column(counts),
        "m_pos": column(unit), "m_sent": column(counts), "d_words": column(counts),
        "d_topic": column(topics), "d_ents": column(counts),
        "t_age": column(st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)),
        "t_df": column(counts), "t_j_min": lo, "t_j_max": hi, "t_j_avg": avg,
        "label": column(st.one_of(st.none(), st.sampled_from(list(Label)))),
    }


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=feature_columns(), preset=st.sampled_from(sorted(PRESETS)))
def test_write_read_roundtrip(tmp_path, values, preset):
    columns = PRESETS[preset].columns
    path = tmp_path / f"{preset}.csv"
    FeatureTable(values, values["label"]).write_csv(path, columns=columns)
    schema, table = read_table(path)
    assert schema.columns == columns
    assert table.labels() == values["label"]
    read = _python(table)
    for column in columns:
        # a missing value reads back as None, or "" for a topic
        assert read[column] == values[column]
    if columns == FEATURE_COLUMNS:
        assert read == values


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=st.one_of(st.integers(max_value=-(2 ** 63) - 1), st.integers(min_value=2 ** 63),
                       st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)),
       column=st.sampled_from(sorted(INT_COLUMNS - {"m_len", "m_words"})),
       line=st.integers(min_value=0, max_value=3))
def test_int_outside_int64_reads_back_or_fails_with_its_line(tmp_path, value, column, line):
    records = [GOOD] * 4
    records[line] = _with(**{column: str(value)})
    path = tmp_path / "f.csv"
    path.write_text("\n".join([HEADER, *records]) + "\n", encoding="utf-8")
    try:
        _, table = read_table(path)
    except MalformedRecordError as exc:
        assert not -(2 ** 63) <= value < 2 ** 63
        assert str(exc) == f"line {line + 2}: column {column} value outside the int64 range"
    else:
        assert table.column(column).tolist()[line] == value


def test_cli_names_the_line_of_an_int_beyond_float_range(tmp_path, caplog):
    # such a count once reached the encoder, whose float() raised OverflowError
    path = tmp_path / "f.csv"
    path.write_text(f"m_len,m_cand,label\n3,1,EASY\n4,1{'0' * 400},HARD\n5,2,HARD\n",
                    encoding="utf-8")
    with caplog.at_level(logging.ERROR, logger="eldiff"):
        status = main(["train", "--features", str(path), "--variant", "decision_tree",
                       "--out", str(tmp_path)])
    assert status == EXIT_ERROR
    assert "line 3: column m_cand value outside the int64 range" in caplog.text


def test_lone_carriage_return_in_a_topic_roundtrips(tmp_path):
    # csv quotes a field holding "\n" but not one holding only "\r"
    table = _table(2, d_topic=["a\rb", "plain"], label=[Label.EASY, None])
    path = tmp_path / "f.csv"
    table.write_csv(path)
    assert _python(read_table(path)[1]) == _python(table)
    plain = tmp_path / "plain.csv"
    _table(d_topic="a\nb").write_csv(plain)
    assert plain.read_text(encoding="utf-8").splitlines()[1].startswith("5,1,")
