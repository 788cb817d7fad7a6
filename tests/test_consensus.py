"""Alignment and consensus difficulty labelling."""

import itertools
import logging
from collections import Counter

import numpy as np
import pytest

from consensus_oracle import LabelledMention, align_records, annotation_records
from consensus_oracle import write_label_records
from eldiff.consensus import (
    CLASS_INDEX,
    CLASS_ORDER,
    AlignPolicy,
    Label,
    MentionCodes,
    SystemAnnotation,
    class_distribution,
    label,
    normalize_entity,
    read_annotations,
    read_labels,
)
from eldiff.errors import MalformedRecordError


def _ann(doc, offset, surface, entity):
    return SystemAnnotation(doc, surface, offset, entity)


def _key(mention):
    return mention.doc_id, mention.offset, mention.surface


class TestNormalizeEntity:
    def test_spaces_and_case(self):
        assert normalize_entity("barack obama") == "Barack_obama"

    def test_redirect_one_hop(self):
        redirects = {"Obama": "Barack_Obama", "Barack_Obama": "Somewhere_Else"}
        assert normalize_entity("Obama", redirects) == "Barack_Obama"

    def test_identity_with_empty_map(self):
        assert normalize_entity("X", {}) == "X"

    def test_trims(self):
        assert normalize_entity("  new york  ") == "New_york"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_entity("   ")


class TestAlign:
    def test_three_systems_exact(self):
        sets = [
            [_ann("d1", 10, "Paris", f"E{i}")]
            for i, s in enumerate(["a", "b", "c"])
        ]
        aligned = align_records(sets, AlignPolicy.EXACT)
        assert len(aligned) == 1
        assert aligned[0].entities == ("E0", "E1", "E2")
        assert _key(aligned[0]) == ("d1", 10, "Paris")

    def test_policy_contrast_on_boundary_disagreement(self):
        a = [_ann("d1", 10, "Paris", "E1")]
        b = [_ann("d1", 11, "aris", "E2")]
        assert align_records([a, b], AlignPolicy.EXACT) == []
        overlap = align_records([a, b], AlignPolicy.OVERLAP)
        assert len(overlap) == 1
        # representative span comes from the first system
        assert _key(overlap[0]) == ("d1", 10, "Paris")

    def test_mention_missing_from_one_system_excluded(self):
        a = [_ann("d1", 10, "Paris", "E1"), _ann("d1", 40, "Bonn", "E9")]
        b = [_ann("d1", 10, "Paris", "E1"), _ann("d1", 40, "Bonn", "E9")]
        c = [_ann("d1", 10, "Paris", "E1")]
        aligned = align_records([a, b, c], AlignPolicy.EXACT)
        assert [m.surface for m in aligned] == ["Paris"]

    def test_fewer_than_two_systems_rejected(self):
        with pytest.raises(ValueError):
            align_records([[_ann("d1", 0, "X", "E")]], AlignPolicy.EXACT)

    def test_output_ordered_by_doc_and_offset(self):
        a = [_ann("d2", 5, "x", "E"), _ann("d1", 9, "y", "E"), _ann("d1", 2, "z", "E")]
        b = [_ann("d1", 2, "z", "E"), _ann("d1", 9, "y", "E"), _ann("d2", 5, "x", "E")]
        aligned = align_records([a, b], AlignPolicy.EXACT)
        assert [(m.doc_id, m.offset) for m in aligned] == [("d1", 2), ("d1", 9), ("d2", 5)]

    def test_greedy_one_to_one_under_overlap(self):
        # two anchor mentions but only one overlapping annotation in system b
        a = [_ann("d1", 10, "Paris", "E1"), _ann("d1", 12, "ris", "E2")]
        b = [_ann("d1", 11, "aris", "E3")]
        aligned = align_records([a, b], AlignPolicy.OVERLAP)
        assert len(aligned) == 1
        assert aligned[0].offset == 10

    def test_conflicting_duplicates_warned_and_first_entity_kept(self, caplog):
        a = [_ann("d", 0, "X", "E1"), _ann("d", 0, "X", "E2"),
             _ann("d", 0, "X", "E3"), _ann("d", 5, "Y", "E4"),
             _ann("d", 5, "Y", "E4")]
        b = [_ann("d", 0, "X", "E1"), _ann("d", 5, "Y", "E5"),
             _ann("d", 5, "Y", "E4")]
        with caplog.at_level(logging.WARNING, logger="eldiff"):
            assert [m.entities for m in align_records([a, b])] == [("E1", "E1"), ("E4", "E5")]
            assert [m.entities for m in align_records([a[:1] + a[3:], b[:2]])] == [
                ("E1", "E1"), ("E4", "E5")]
        assert [r.getMessage() for r in caplog.records] == [
            "2 (document, offset, surface) keys are linked to different entities by the same "
            "system; exact alignment keeps each key's first entity"]

    def test_overlap_policy_warns_about_conflicting_duplicates(self, caplog):
        a = [_ann("d1", 0, "X", "E1"), _ann("d1", 0, "X", "E9")]
        b = [_ann("d1", 0, "X", "E1"), _ann("d1", 1, "X", "E2")]
        with caplog.at_level(logging.WARNING, logger="eldiff"):
            aligned = align_records([a, b], AlignPolicy.OVERLAP)
        assert [(m.offset, m.entities) for m in aligned] == [(0, ("E1", "E1"))]
        assert [r.getMessage() for r in caplog.records] == [
            "1 (document, offset, surface) keys are linked to different entities by the same "
            "system; overlap alignment tries each key's first entity first"]

    def test_exact_groups_survive_overlap_policy(self):
        # system b has an earlier overlapping span and an identical twin;
        # the identical twin must be preferred
        a = [_ann("d1", 10, "Paris", "E1")]
        b = [_ann("d1", 8, "in Pa", "E2"), _ann("d1", 10, "Paris", "E3")]
        aligned = align_records([a, b], AlignPolicy.OVERLAP)
        assert aligned[0].entities == ("E1", "E3")

    def test_exact_subset_of_overlap_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            sets = []
            for system in ("a", "b", "c"):
                annotations = []
                for _ in range(rng.integers(3, 10)):
                    offset = int(rng.integers(0, 40))
                    surface = "m" * int(rng.integers(2, 6))
                    annotations.append(_ann("d1", offset, surface, "E"))
                sets.append(annotations)
            exact_keys = {_key(m) for m in align_records(sets, AlignPolicy.EXACT)}
            overlap_keys = {_key(m) for m in align_records(sets, AlignPolicy.OVERLAP)}
            assert exact_keys <= overlap_keys

    @pytest.mark.parametrize("policy", list(AlignPolicy))
    def test_every_record_is_labelled_by_its_entities(self, policy):
        rng = np.random.default_rng(6)
        labels = Counter()
        for _ in range(200):
            sets = []
            for _ in range(int(rng.integers(2, 5))):
                sets.append([_ann(f"d{int(rng.integers(2))}", int(rng.integers(0, 12)),
                                  "m" * int(rng.integers(1, 4)), f"E{int(rng.integers(3))}")
                             for _ in range(int(rng.integers(1, 8)))])
            for record in align_records(sets, policy):
                assert type(record) is LabelledMention
                assert record.label is label(record.entities)
                assert len(record.entities) == len(sets)
                labels[record.label] += 1
        assert set(labels) == set(Label)


class TestLabel:
    def test_all_equal_is_easy(self):
        assert label(("Q1", "Q1", "Q1")) is Label.EASY

    def test_all_distinct_is_hard(self):
        assert label(("Q1", "Q2", "Q3")) is Label.HARD

    def test_two_of_three_is_medium(self):
        assert label(("Q1", "Q1", "Q2")) is Label.MEDIUM

    def test_generalizes_beyond_three(self):
        assert label(("a", "b", "c", "d")) is Label.HARD
        assert label(("a", "a", "b", "c")) is Label.MEDIUM
        assert label(("a", "a", "a", "a")) is Label.EASY

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        entities = ["E1", "E1", "E2", "E3", "E3", "E3"]
        for _ in range(50):
            n = int(rng.integers(2, 6))
            chosen = [entities[int(rng.integers(len(entities)))] for _ in range(n)]
            reference = label(tuple(chosen))
            for perm in itertools.permutations(chosen):
                assert label(perm) is reference

    def test_entity_renaming_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            triple = tuple(f"E{int(rng.integers(4))}" for _ in range(3))
            renamed = tuple(t.replace("E", "Entity_") for t in triple)
            assert label(triple) is label(renamed)

    def test_distinct_count_matches_the_largest_group_rule(self):
        def by_largest_group(entities):
            top = max(Counter(entities).values())
            if top == len(entities):
                return Label.EASY
            return Label.HARD if top == 1 else Label.MEDIUM

        for n in range(2, 6):
            for entities in itertools.product("abcde"[:n], repeat=n):
                assert label(entities) is by_largest_group(entities)

    def test_partition_property(self):
        # every mention gets exactly one label; the three sets partition the input
        rng = np.random.default_rng(2)
        mentions = [tuple(f"E{int(rng.integers(3))}" for _ in range(3)) for _ in range(2000)]
        labels = [label(entities) for entities in mentions]
        assert len(labels) == len(mentions)
        by_class = {lbl: [m for m, got in zip(mentions, labels) if got is lbl] for lbl in Label}
        assert sum(len(v) for v in by_class.values()) == len(mentions)


class TestClassDistribution:
    def test_counts_and_fractions(self):
        labels = np.array([CLASS_INDEX[lbl] for lbl in
                           [Label.EASY, Label.EASY, Label.HARD, Label.MEDIUM]], dtype=np.int8)
        dist = class_distribution(labels)
        assert dist.counts == {Label.HARD: 1, Label.MEDIUM: 1, Label.EASY: 2}
        assert dist.fractions == {Label.HARD: 0.25, Label.MEDIUM: 0.25, Label.EASY: 0.5}
        assert abs(sum(dist.fractions.values()) - 1.0) < 1e-12

    def test_empty_input_flagged(self):
        dist = class_distribution(np.empty(0, dtype=np.int8))
        assert dist.total == 0
        assert dist.fractions is None
        assert all(c == 0 for c in dist.counts.values())


class TestAnnotationIO:
    def test_read_write_roundtrip(self, tmp_path):
        path = tmp_path / "sys.tsv"
        path.write_text("d1\t10\tParis\tparis france\nd2\t0\tBonn\tBonn\n", encoding="utf-8")
        annotations = annotation_records(path)
        assert annotations[0].entity_id == "Paris_france"
        assert annotations[1].offset == 0

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "sys.tsv"
        path.write_text("d1\t10\tParis\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError, match="line 1"):
            read_annotations(path, MentionCodes())

    def test_bad_offset(self, tmp_path):
        path = tmp_path / "sys.tsv"
        path.write_text("d1\tten\tParis\tE\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError, match="offset"):
            read_annotations(path, MentionCodes())

    def test_labels_roundtrip(self, tmp_path):
        labelled = [
            LabelledMention("d1", "Paris", 10, ("E1", "E1", "E2"), Label.MEDIUM),
            LabelledMention("d2", "Bonn", 4, ("E1", "E2", "E3"), Label.HARD),
        ]
        path = tmp_path / "labels.tsv"
        write_label_records(labelled, path)
        codes = MentionCodes()
        rows = read_labels(path, codes)
        assert codes.mentions() == [("d1", 10, "Paris"), ("d2", 4, "Bonn")]
        assert rows.keys.tolist() == [0, 1]
        assert [CLASS_ORDER[c] for c in rows.labels.tolist()] == [Label.MEDIUM, Label.HARD]
        names = list(codes.entities)
        assert [tuple(names[e] for e in rows.entities[t]) for t in rows.tuples.tolist()] == [
            ("E1", "E1", "E2"), ("E1", "E2", "E3")]
