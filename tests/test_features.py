"""Feature extraction, imputation and the table format."""

import datetime as dt

import numpy as np
import pytest

from eldiff.consensus import AlignedMention, Label, LabelledMention, SystemAnnotation
from eldiff.corpus import Corpus, Document
from eldiff.embeddings import EmbeddingModel
from eldiff.errors import AllMissingError, MalformedRecordError
from eldiff.features import (
    CandidateDictionary,
    FeatureConfig,
    FeatureExtractor,
    FeatureSchema,
    FeatureTable,
    FeatureVector,
    count_doc_mentions,
    load_candidate_dictionary,
    read_table,
    stability_word,
)


def _fv(**overrides):
    base = dict(
        m_len=5, m_words=1, m_freq=1, m_df=1, m_cand=2, m_pos=0.1, m_sent=20,
        d_words=50, d_topic="SPORTS", d_ents=3, t_age=16, t_df=1,
        t_j_min=0.2, t_j_max=0.6, t_j_avg=0.4, label=Label.EASY,
    )
    base.update(overrides)
    return FeatureVector(**base)


class TestFeatureVector:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            _fv(m_words=9, m_len=3)
        with pytest.raises(ValueError):
            _fv(m_pos=1.5)
        with pytest.raises(ValueError):
            _fv(t_j_min=0.9, t_j_max=0.1, t_j_avg=0.5)
        with pytest.raises(ValueError):
            _fv(t_j_min=None, t_j_max=0.5, t_j_avg=0.5)

    def test_missing_mask(self):
        row = _fv(t_j_min=None, t_j_max=None, t_j_avg=None, d_topic="")
        assert row.missing("t_j_avg") and row.missing("d_topic")
        assert not row.missing("m_len")


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
        assert d.count("Paris") == 26
        assert d.count("absent") == 0

    def test_id_list_lines(self, tmp_path):
        path = tmp_path / "cand.tsv"
        path.write_text("Paris\tE1,E2,E3\n", encoding="utf-8")
        d = load_candidate_dictionary(path)
        assert d.count("Paris") == 3
        assert d.candidates("Paris") == frozenset({"E1", "E2", "E3"})

    def test_duplicate_merged_by_max(self, tmp_path):
        path = tmp_path / "cand.tsv"
        path.write_text("X\t3\nX\t5\n", encoding="utf-8")
        assert load_candidate_dictionary(path).count("X") == 5

    def test_duplicate_sets_merged_by_union(self, tmp_path):
        path = tmp_path / "cand.tsv"
        path.write_text("X\tE1,E2\nX\tE2,E3\n", encoding="utf-8")
        d = load_candidate_dictionary(path)
        assert d.candidates("X") == frozenset({"E1", "E2", "E3"})
        assert d.count("X") == 3

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "cand.tsv"
        path.write_text("just-one-field\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError, match="line 1"):
            load_candidate_dictionary(path)


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
        candidates = CandidateDictionary({"Paris": 26, "John McCain": 2})
        counts = {"doc1": 4, "doc2": 2}
        return FeatureExtractor(corpus, candidates, [], FeatureConfig(), counts)

    def test_normalised_position(self, extractor):
        row = extractor.extract(("doc1", "Paris", 250))
        assert row.m_pos == 0.25

    def test_position_at_document_start_is_exactly_zero(self, extractor):
        assert extractor.extract(("doc2", "Paris", 0)).m_pos == 0.0

    def test_age_against_reference_kb(self, extractor):
        # kb year 2016, publication year 2000 -> age 16
        row = extractor.extract(("doc1", "Paris", 250))
        assert row.t_age == 16

    def test_word_and_char_counts(self, extractor):
        row = extractor.extract(("doc2", "John McCain", 10))
        assert row.m_words == 2
        assert row.m_len == 11

    def test_frequency_features(self, extractor):
        row = extractor.extract(("doc2", "Paris", 0))
        assert row.m_freq == 2
        assert row.m_df == 2
        assert row.m_cand == 26
        assert row.t_df == 2  # both Paris docs inside +/-6 months

    def test_sentence_length(self, extractor):
        # first sentence of doc2 is "Paris met John McCain" (21 chars)
        row = extractor.extract(("doc2", "Paris", 0))
        assert row.m_sent == 21

    def test_document_features(self, extractor):
        row = extractor.extract(("doc2", "Paris", 0))
        assert row.d_words == 6
        assert row.d_topic == ""
        assert row.d_ents == 2

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
                    row = extractor.extract((doc.id, doc.text[offset], offset))
                    assert row.m_sent == sentence_length(doc.text, offset), (doc.id, offset)
                    assert row.d_words == len(doc.text.split())

    def test_stability_missing_without_models(self, extractor):
        row = extractor.extract(("doc1", "Paris", 250))
        assert row.t_j_min is None and row.missing("t_j_avg")

    def test_stability_with_models(self, corpus):
        vocab = {"Paris": 0, "x": 1, "y": 2}
        vectors = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]], dtype=np.float32)
        models = [EmbeddingModel(vocab, vectors, str(y)) for y in (1999, 2000)]
        extractor = FeatureExtractor(corpus, None, models, FeatureConfig(top_k=2))
        row = extractor.extract(("doc1", "Paris", 250))
        assert (row.t_j_min, row.t_j_max, row.t_j_avg) == (1.0, 1.0, 1.0)

    def test_unknown_doc_rejected(self, extractor):
        with pytest.raises(KeyError):
            extractor.extract(("nope", "Paris", 0))

    def test_offset_beyond_text_rejected(self, extractor):
        with pytest.raises(ValueError):
            extractor.extract(("doc3", "here", 1000))

    def test_label_carried_from_labelled_mention(self, extractor):
        lm = LabelledMention(AlignedMention("doc1", "Paris", 250, ("a", "b")), Label.MEDIUM)
        assert extractor.extract(lm).label is Label.MEDIUM

    def test_batch_equals_one_by_one(self, extractor):
        mentions = [("doc2", "Paris", 0), ("doc1", "Paris", 250), ("doc2", "Paris", 23)]
        table = extractor.extract_all(mentions)
        assert len(table) == 3
        for row, mention in zip(table, mentions):
            assert row == extractor.extract(mention)

    def test_property_run_rows_satisfy_invariants(self, corpus):
        rng = np.random.default_rng(0)
        extractor = FeatureExtractor(corpus, None, [], FeatureConfig())
        docs = list(corpus)
        mentions = []
        for _ in range(2000):
            doc = docs[int(rng.integers(len(docs)))]
            offset = int(rng.integers(0, len(doc.text) - 1))
            length = int(rng.integers(1, min(6, len(doc.text) - offset) + 1))
            mentions.append((doc.id, doc.text[offset:offset + length], offset))
        table = extractor.extract_all(mentions)
        for row in table:
            assert 0 <= row.m_pos < 1
            assert row.m_words <= row.m_len
            assert row.m_freq >= 1  # the surface occurs at its own offset
            assert row.m_df >= 1


class TestCountDocMentions:
    def test_union_of_distinct_spans(self):
        a = [SystemAnnotation("a", "d1", "X", 0, "E"), SystemAnnotation("a", "d1", "Y", 5, "E")]
        b = [SystemAnnotation("b", "d1", "X", 0, "E"), SystemAnnotation("b", "d2", "Z", 1, "E")]
        counts = count_doc_mentions([a, b])
        assert counts == {"d1": 2, "d2": 1}


class TestImpute:
    def test_mean_fills_stability(self):
        rows = [
            _fv(t_j_min=1.0, t_j_max=1.0, t_j_avg=1.0),
            _fv(t_j_min=None, t_j_max=None, t_j_avg=None),
            _fv(t_j_min=3.0 / 10, t_j_max=5.0 / 10, t_j_avg=4.0 / 10),
        ]
        table = FeatureTable(rows).impute("mean")
        filled = table[1]
        assert filled.t_j_min == pytest.approx((1.0 + 0.3) / 2)
        assert filled.t_j_max == pytest.approx((1.0 + 0.5) / 2)
        # the mask still marks the originally missing entries
        assert "t_j_min" in table.masks[1]
        assert "t_j_min" not in table.masks[0]

    def test_constant_fill(self):
        rows = [_fv(t_j_min=None, t_j_max=None, t_j_avg=None)]
        table = FeatureTable(rows).impute("constant", constant=0.0)
        assert (table[0].t_j_min, table[0].t_j_max, table[0].t_j_avg) == (0.0, 0.0, 0.0)

    def test_all_missing_mean_errors(self):
        rows = [_fv(t_j_min=None, t_j_max=None, t_j_avg=None) for _ in range(3)]
        with pytest.raises(AllMissingError):
            FeatureTable(rows).impute("mean")

    def test_missing_topic_becomes_unknown(self):
        table = FeatureTable([_fv(d_topic="")]).impute("constant")
        assert table[0].d_topic == "UNKNOWN"

    def test_stability_disabled_skips_numeric_fill(self):
        rows = [_fv(t_j_min=None, t_j_max=None, t_j_avg=None)]
        table = FeatureTable(rows).impute("mean", stability=False)
        assert table[0].t_j_min is None


class TestTableIO:
    def test_header_is_canonical(self, tmp_path):
        path = tmp_path / "f.csv"
        FeatureTable([_fv()]).write_csv(path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == (
            "m_len,m_words,m_freq,m_df,m_cand,m_pos,m_sent,d_words,d_topic,"
            "d_ents,t_age,t_df,t_j_min,t_j_max,t_j_avg,label"
        )

    def test_roundtrip_with_missing_values(self, tmp_path):
        rows = [
            _fv(),
            _fv(t_j_min=None, t_j_max=None, t_j_avg=None, d_topic="", label=None),
            _fv(label=Label.HARD, m_pos=0.123456789),
        ]
        path = tmp_path / "f.csv"
        FeatureTable(rows).write_csv(path)
        again = FeatureTable.read_csv(path)
        assert list(again) == rows

    def test_reduced_table_roundtrip(self, tmp_path):
        path = tmp_path / "f.csv"
        FeatureTable([_fv()]).write_csv(path, columns=("m_cand",))
        schema, table = read_table(path)
        assert schema.columns == ("m_cand",)
        assert table[0].m_cand == 2
        assert table[0].label is Label.EASY

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("m_len,nope,label\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError):
            read_table(path)
