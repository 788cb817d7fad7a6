"""Feature extraction, imputation and the table format."""

import datetime as dt
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from consensus_oracle import SystemAnnotation, annotation_rows, oracle_count_doc_mentions
from consensus_oracle import oracle_read_annotations
from features_oracle import coded
from eldiff.consensus import CLASS_INDEX, Label, write_annotations
from eldiff.corpus import Corpus, Document
from eldiff.embeddings import EmbeddingModel
from eldiff.errors import AllMissingError, MalformedRecordError
from eldiff.features import (
    FEATURE_COLUMNS,
    STABILITY_COLUMNS,
    FeatureConfig,
    FeatureExtractor,
    FeatureSchema,
    FeatureTable,
    count_doc_mentions,
    load_candidate_dictionary,
    read_table,
    stability_word,
    write_candidate_dictionary,
)


BASE = dict(
    m_len=5, m_words=1, m_freq=1, m_df=1, m_cand=2, m_pos=0.1, m_sent=20,
    d_words=50, d_topic="SPORTS", d_ents=3, t_age=16, t_df=1,
    t_j_min=0.2, t_j_max=0.6, t_j_avg=0.4, label=CLASS_INDEX[Label.EASY],
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
    return {**columns, "label": table.labels().tolist()}


def _row(table, index=0):
    return {c: values[index] for c, values in _python(table).items()}


class TestTableConstructor:
    @pytest.mark.parametrize("columns, message", [
        (dict(m_words=9, m_len=3), "m_words cannot exceed m_len"),
        (dict(m_pos=1.5), "m_pos 1.5 outside [0, 1)"),
        (dict(t_j_min=0.9, t_j_max=0.1, t_j_avg=0.5), "min <= avg <= max"),
        (dict(t_j_min=None, t_j_max=0.5, t_j_avg=0.5), "all present or all missing"),
    ])
    def test_row_rules_enforced(self, columns, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            _table(**columns)

    def test_columns_and_labels_must_agree_in_length(self):
        columns = {c: [v] * 2 for c, v in BASE.items()}
        with pytest.raises(ValueError, match="one value per label"):
            FeatureTable(columns, [CLASS_INDEX[Label.EASY]])

    @pytest.mark.parametrize("label", [3, -2, 1.5, None, Label.EASY])
    def test_label_must_be_a_class_index_or_none(self, label):
        # -2 would write as EASY, the last label text but one
        with pytest.raises(ValueError, match="a label is a class index or -1 for none"):
            _table(label=label)


class TestSchema:
    def test_baselines(self):
        assert FeatureSchema.candidate_count().columns == ("m_cand",)
        assert FeatureSchema.mention_length().columns == ("m_len",)

    def test_simulation_preset_drops_temporal_and_topic(self):
        columns = FeatureSchema.simulation_preset().columns
        assert set(columns) == {
            "m_len", "m_words", "m_freq", "m_df", "m_cand", "m_pos", "m_sent",
            "d_words", "d_ents",
        }

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError):
            FeatureSchema(("m_len", "bogus"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FeatureSchema(())


class TestCandidateDictionary:
    def test_count_lines(self, tmp_path):
        path = tmp_path / "cand.tsv"
        path.write_text("Paris\t26\nBonn\t3\n", encoding="utf-8")
        d = load_candidate_dictionary(path)
        assert d.get("Paris", 0) == 26
        assert d.get("absent", 0) == 0

    def test_duplicate_merged_by_max(self, tmp_path):
        path = tmp_path / "cand.tsv"
        path.write_text("X\t3\nX\t5\n", encoding="utf-8")
        assert load_candidate_dictionary(path).get("X", 0) == 5

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "cand.tsv"
        path.write_text("just-one-field\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError, match="line 1"):
            load_candidate_dictionary(path)

    def test_zero_count_refused(self, tmp_path):
        path = tmp_path / "cand.tsv"
        path.write_text("X\t0\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError, match="must be >= 1") as caught:
            load_candidate_dictionary(path)
        assert caught.value.line_number == 1

    @pytest.mark.parametrize("count", ["٣", "١٢", "007", "00", "０", "1٢"])
    def test_count_follows_the_offsets_rule(self, tmp_path, count):
        # int() takes every script's digits and a leading zero: "٣" would
        # read as 3 and "007" as 7, which the writer writes back as other text
        path = tmp_path / "cand.tsv"
        path.write_text(f"Z\t12\nX\t{count}\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError, match=f"bad candidate count '{count}'") as caught:
            load_candidate_dictionary(path)
        assert caught.value.line_number == 2

    @pytest.mark.parametrize("payload", ["E1,E2,E3", "E1,,E2,E1", "1984,", "²"])
    def test_id_lists_refused(self, tmp_path, payload):
        # m_cand needs only a count, and a list cannot hold ids with commas
        path = tmp_path / "cand.tsv"
        path.write_text(f"Year\t1984\nX\t{payload}\nZ\t12\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError,
                           match=f"^line 2: bad candidate count '{payload}'$") as caught:
            load_candidate_dictionary(path)
        assert caught.value.line_number == 2

    @pytest.mark.parametrize("surface", ["", "a\tb", "a\nb", "a\rb", "Paris\r"])
    def test_writer_refuses_what_it_cannot_read_back(self, tmp_path, surface):
        path = tmp_path / "cand.tsv"
        with pytest.raises(ValueError, match=re.escape(repr(surface))):
            write_candidate_dictionary({"Bonn": 2, surface: 1}, path)
        assert not path.exists()

    @pytest.mark.parametrize("count", [0, -1, True, 2.0])
    def test_writer_refuses_counts_that_read_back_otherwise(self, tmp_path, count):
        # "True", "2.0", "-1" and "0" are not counts the reader takes
        path = tmp_path / "cand.tsv"
        with pytest.raises(ValueError, match=f"'Paris' must be an int >= 1, got {count!r}"):
            write_candidate_dictionary({"Bonn": 2, "Paris": count}, path)
        assert not path.exists()


HOSTILE_SURFACES = ["1984", ",", "a,b", "\x0b", "\x1c", "\x85", "\u2028", "\u2029",
                    "\U0001F600", "\U00010348", " ", "²"]
surfaces = st.lists(st.one_of(
    st.sampled_from(HOSTILE_SURFACES),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\t\n\r"), max_size=4),
), min_size=1, max_size=4).map("".join).filter(bool)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(counts=st.dictionaries(surfaces, st.integers(1, 10 ** 12), max_size=8))
def test_candidate_dictionary_roundtrip(tmp_path, counts):
    path = tmp_path / "cand.tsv"
    write_candidate_dictionary(counts, path)
    assert load_candidate_dictionary(path) == counts


class TestStabilityWord:
    def test_longest_word(self):
        assert stability_word("John McCain") == "McCain"

    def test_tie_breaks_lexicographically(self):
        assert stability_word("delta alpha") == "alpha"

    def test_single_word(self):
        assert stability_word("Paris") == "Paris"


class TestExtract:
    @pytest.fixture
    def corpus(self):
        return Corpus([
            Document("doc1", dt.date(2000, 5, 1), "SPORTS", "x" * 250 + "Paris" + "y" * 745),
            Document("doc2", dt.date(2000, 7, 1), "", "Paris met John McCain. Paris left!"),
            Document("doc3", dt.date(2004, 1, 1), "WORLD", "Nothing relevant here"),
        ])

    @pytest.fixture
    def extractor(self, corpus):
        candidates = {"Paris": 26, "John McCain": 2}
        counts = {"doc1": 4, "doc2": 2}
        return FeatureExtractor(corpus, candidates, [], FeatureConfig(), counts)

    def test_normalised_position(self, extractor):
        row = _row(extractor.extract(("doc1", 250, "Paris")))
        assert row["m_pos"] == 0.25

    def test_position_at_document_start_is_exactly_zero(self, extractor):
        assert _row(extractor.extract(("doc2", 0, "Paris")))["m_pos"] == 0.0

    def test_age_against_reference_kb(self, extractor):
        # kb year 2016, publication year 2000 -> age 16
        row = _row(extractor.extract(("doc1", 250, "Paris")))
        assert row["t_age"] == 16

    def test_word_and_char_counts(self, extractor):
        row = _row(extractor.extract(("doc2", 10, "John McCain")))
        assert row["m_words"] == 2
        assert row["m_len"] == 11

    def test_frequency_features(self, extractor):
        row = _row(extractor.extract(("doc2", 0, "Paris")))
        assert row["m_freq"] == 2
        assert row["m_df"] == 2
        assert row["m_cand"] == 26
        assert row["t_df"] == 2  # both Paris docs inside +/-6 months

    def test_sentence_length(self, extractor):
        # first sentence of doc2 is "Paris met John McCain" (21 chars)
        row = _row(extractor.extract(("doc2", 0, "Paris")))
        assert row["m_sent"] == 21

    def test_document_features(self, extractor):
        row = _row(extractor.extract(("doc2", 0, "Paris")))
        assert row["d_words"] == 6
        assert row["d_topic"] == ""
        assert row["d_ents"] == 2

    def test_memoised_sentence_and_word_counts_match_linear_scan(self, corpus):
        # every offset of documents with adjacent, leading and trailing marks
        # and astral code points, visited in interleaved document order
        marks = ".!?;"

        def sentence_length(text, offset):
            if text[offset] in marks:
                return 0
            lo = hi = offset
            while lo > 0 and text[lo - 1] not in marks:
                lo -= 1
            while hi < len(text) and text[hi] not in marks:
                hi += 1
            return hi - lo

        docs = list(corpus) + [
            Document("doc4", dt.date(2001, 1, 1), "", ";;\U0001f600 a.b!! c\U0001d518 d?"),
            Document("doc5", dt.date(2001, 2, 1), "", ".x\ty;\nz w."),
        ]
        extractor = FeatureExtractor(Corpus(docs), None, [], FeatureConfig())
        longest = max(len(doc.text) for doc in docs)
        for offset in range(longest):
            for doc in docs:
                if offset < len(doc.text):
                    row = _row(extractor.extract((doc.id, offset, doc.text[offset])))
                    assert row["m_sent"] == sentence_length(doc.text, offset), (doc.id, offset)
                    assert row["d_words"] == len(doc.text.split())

    def test_stability_missing_without_models(self, extractor):
        row = _row(extractor.extract(("doc1", 250, "Paris")))
        assert row["t_j_min"] is row["t_j_max"] is row["t_j_avg"] is None

    def test_stability_with_models(self, corpus):
        vocab = {"Paris": 0, "x": 1, "y": 2}
        vectors = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]], dtype=np.float32)
        models = [EmbeddingModel(vocab, vectors, str(y)) for y in (1999, 2000)]
        extractor = FeatureExtractor(corpus, None, models, FeatureConfig(top_k=2))
        row = _row(extractor.extract(("doc1", 250, "Paris")))
        assert (row["t_j_min"], row["t_j_max"], row["t_j_avg"]) == (1.0, 1.0, 1.0)

    def test_unknown_doc_rejected(self, extractor):
        with pytest.raises(KeyError):
            extractor.extract(("nope", 0, "Paris"))

    def test_offset_beyond_text_rejected(self, extractor):
        with pytest.raises(ValueError):
            extractor.extract(("doc3", 1000, "here"))

    def test_label_carried_from_labelled_mention(self, extractor):
        mention = ("doc1", 250, "Paris")
        medium = CLASS_INDEX[Label.MEDIUM]
        assert extractor.extract_all(*coded([mention]), [medium]).labels().tolist() == [medium]
        assert extractor.extract(mention).labels().tolist() == [-1]

    def test_every_mention_form_gives_one_row(self, extractor):
        labels = [-1, CLASS_INDEX[Label.HARD]]
        table = extractor.extract_all(*coded([("doc2", 23, "Paris")] * 2), labels)
        rows = [_row(table, index) for index in range(2)]
        assert [row.pop("label") for row in rows] == labels
        assert rows[0] == rows[1]

    def test_batch_equals_one_by_one(self, extractor):
        mentions = [("doc2", 0, "Paris"), ("doc1", 250, "Paris"), ("doc2", 23, "Paris")]
        table = extractor.extract_all(*coded(mentions), [-1] * 3)
        assert len(table) == 3
        for index, mention in enumerate(mentions):
            assert _row(table, index) == _row(extractor.extract(mention))

    def test_property_run_rows_satisfy_invariants(self, corpus):
        rng = np.random.default_rng(0)
        extractor = FeatureExtractor(corpus, None, [], FeatureConfig())
        docs = list(corpus)
        mentions = []
        for _ in range(2000):
            doc = docs[int(rng.integers(len(docs)))]
            offset = int(rng.integers(0, len(doc.text) - 1))
            length = int(rng.integers(1, min(6, len(doc.text) - offset) + 1))
            mentions.append((doc.id, offset, doc.text[offset:offset + length]))
        table = extractor.extract_all(*coded(mentions), [-1] * len(mentions))
        assert len(table) == 2000
        m_pos = table.column("m_pos")
        assert ((0 <= m_pos) & (m_pos < 1)).all()
        assert (table.column("m_words") <= table.column("m_len")).all()
        assert (table.column("m_freq") >= 1).all()  # the surface occurs at its own offset
        assert (table.column("m_df") >= 1).all()


class TestCountDocMentions:
    def test_union_of_distinct_spans(self, tmp_path):
        a = [SystemAnnotation("d1", "X", 0, "E"), SystemAnnotation("d1", "Y", 5, "E")]
        b = [SystemAnnotation("d1", "X", 0, "E"), SystemAnnotation("d2", "Z", 1, "E")]
        counts = oracle_count_doc_mentions([a, b])
        assert counts == {"d1": 2, "d2": 1}
        paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
        for records, path in zip((a, b), paths):
            write_annotations(annotation_rows(records), path)
        assert count_doc_mentions(paths) == counts


def dump_outcome(count, paths):
    """The counts, or the error's type, message and line."""
    try:
        return count(paths)
    except MalformedRecordError as exc:
        return type(exc), str(exc), exc.line_number


def count_records(paths):
    return oracle_count_doc_mentions(oracle_read_annotations(p) for p in paths)


SPAN_DOCS = ["d1", "D1", "1984", "\U0001F600"]
SPAN_SURFACES = ["Paris", "paris", "a b", "", "\U00010348"]
dump_lines = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(SPAN_DOCS), st.integers(0, 12).map(str),
                  st.sampled_from(SPAN_SURFACES), st.sampled_from(["E", "e f", "Ent"]))
        .map("\t".join),
        st.just(""),
    ),
    max_size=12,
)
BAD_DUMP_LINES = ["d1\t007\tParis\tE", "d1\t-1\tParis\tE", "d1\t3\tParis\t",
                  "d1\t3\tParis\t \x0b", "d1\t3\tParis", "d1\t3\tParis\tE\tx"]


class TestCountDumpMentions:
    """The span count from dump columns against oracle_count_doc_mentions
    over the record reader's records: the same counts, or the same first
    error."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dumps=st.lists(dump_lines, min_size=1, max_size=3),
           bad=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 12),
                                     st.sampled_from(BAD_DUMP_LINES)))
    def test_matches_counts_over_records(self, tmp_path, dumps, bad):
        if bad is not None:
            which, where, line = bad
            if which < len(dumps):
                dumps[which] = dumps[which][:where] + [line] + dumps[which][where:]
        paths = []
        for i, lines in enumerate(dumps):
            path = tmp_path / f"sys{i}.tsv"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            paths.append(path)
        expected = dump_outcome(count_records, paths)
        assert dump_outcome(count_doc_mentions, paths) == expected

    @pytest.mark.parametrize("line, message", [
        ("d1\t03\tParis\tE", "line 2: bad offset '03'"),
        ("d1\t3\tParis\t  ", "line 2: empty entity id"),
        ("d1\t3\tParis", "line 2: expected 4 tab-separated fields, got 3"),
    ])
    def test_error_names_its_line_after_a_valid_twin(self, tmp_path, line, message):
        # the first line's span and entity were checked; the second's are not theirs
        path = tmp_path / "sys.tsv"
        path.write_text(f"d1\t3\tParis\tE\n{line}\n", encoding="utf-8")
        expected = (MalformedRecordError, message, 2)
        assert dump_outcome(count_records, [path]) == expected
        assert dump_outcome(count_doc_mentions, [path]) == expected


class TestImpute:
    def test_mean_fills_stability(self):
        table = _table(3, t_j_min=[1.0, None, 3.0 / 10], t_j_max=[1.0, None, 5.0 / 10],
                       t_j_avg=[1.0, None, 4.0 / 10]).impute("mean")
        assert table.column("t_j_min")[1] == pytest.approx((1.0 + 0.3) / 2)
        assert table.column("t_j_max")[1] == pytest.approx((1.0 + 0.5) / 2)

    def test_constant_fill(self):
        table = _table(t_j_min=None, t_j_max=None, t_j_avg=None).impute("constant", constant=0.0)
        assert [table.column(c)[0] for c in STABILITY_COLUMNS] == [0.0, 0.0, 0.0]

    def test_all_missing_mean_errors(self):
        with pytest.raises(AllMissingError):
            _table(3, t_j_min=None, t_j_max=None, t_j_avg=None).impute("mean")

    def test_missing_topic_becomes_unknown(self):
        table = _table(d_topic="").impute("constant")
        assert table.column("d_topic")[0] == "UNKNOWN"

    def test_stability_disabled_skips_numeric_fill(self):
        table = _table(t_j_min=None, t_j_max=None, t_j_avg=None).impute("mean", stability=False)
        assert _row(table)["t_j_min"] is None


class TestTableIO:
    def test_header_is_canonical(self, tmp_path):
        path = tmp_path / "f.csv"
        _table().write_csv(path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == (
            "m_len,m_words,m_freq,m_df,m_cand,m_pos,m_sent,d_words,d_topic,"
            "d_ents,t_age,t_df,t_j_min,t_j_max,t_j_avg,label"
        )

    def test_roundtrip_with_missing_values(self, tmp_path):
        table = _table(3, t_j_min=[0.2, None, 0.2], t_j_max=[0.6, None, 0.6],
                       t_j_avg=[0.4, None, 0.4], d_topic=["SPORTS", "", "SPORTS"],
                       label=[CLASS_INDEX[Label.EASY], -1, CLASS_INDEX[Label.HARD]],
                       m_pos=[0.1, 0.1, 0.123456789])
        path = tmp_path / "f.csv"
        table.write_csv(path)
        _, again = read_table(path)
        assert _python(again) == _python(table)

    def test_reduced_table_roundtrip(self, tmp_path):
        path = tmp_path / "f.csv"
        _table().write_csv(path, columns=("m_cand",))
        schema, table = read_table(path)
        assert schema.columns == ("m_cand",)
        assert table.column("m_cand").tolist() == [2]
        assert table.labels().tolist() == [CLASS_INDEX[Label.EASY]]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("m_len,nope,label\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError):
            read_table(path)
