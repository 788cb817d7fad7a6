"""The sweep-line overlap alignment, on code columns and on records,
against the greedy rescan it replaced.

``greedy_align_overlap`` is the earlier quadratic implementation, kept
verbatim as the oracle: every other system's sorted annotations are rescanned
from the start for each anchor.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from consensus_oracle import (
    LabelledMention,
    align_records,
    annotation_records,
    oracle_align_overlap,
)
from eldiff.consensus import AlignPolicy, SystemAnnotation, label


def _align_overlap(annotation_sets):
    """The column alignment, checked against the record sweep it replaced."""
    aligned = align_records(annotation_sets, AlignPolicy.OVERLAP)
    assert aligned == oracle_align_overlap(annotation_sets)
    return aligned

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _span(a):
    return a.offset, a.offset + len(a.surface)


def _spans_overlap(a, b):
    return a[0] < b[1] and b[0] < a[1]


def greedy_align_overlap(annotation_sets):
    by_doc = {}
    n = len(annotation_sets)
    for sys_idx, annotations in enumerate(annotation_sets):
        for a in annotations:
            by_doc.setdefault(a.doc_id, [[] for _ in range(n)])[sys_idx].append(a)
    aligned = []
    for doc_id in sorted(by_doc):
        per_system = [sorted(annos, key=lambda a: (a.offset, len(a.surface), a.surface))
                      for annos in by_doc[doc_id]]
        used = [set() for _ in range(n)]
        for anchor in per_system[0]:
            chosen = [anchor]
            for sys_idx in range(1, n):
                candidate = None
                for pos, a in enumerate(per_system[sys_idx]):
                    if pos in used[sys_idx]:
                        continue
                    if a.offset == anchor.offset and a.surface == anchor.surface:
                        candidate = pos
                        break
                if candidate is None:
                    for pos, a in enumerate(per_system[sys_idx]):
                        if pos in used[sys_idx]:
                            continue
                        if all(_spans_overlap(_span(a), _span(c)) for c in chosen):
                            candidate = pos
                            break
                if candidate is None:
                    chosen = None
                    break
                chosen.append(per_system[sys_idx][candidate])
                used[sys_idx].add(candidate)
            if chosen is None:
                continue
            entities = tuple(a.entity_id for a in chosen)
            aligned.append(LabelledMention(doc_id, anchor.surface, anchor.offset, entities,
                                           label(entities)))
    aligned.sort(key=lambda m: (m.doc_id, m.offset, m.surface))
    return aligned


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("seed", [7, 1013])
def test_route_fixture_matches_greedy(tmp_path, seed):
    workloads = _load_workloads()
    paths = workloads.write_inputs(tmp_path, seed, workloads.SIZES["route"]["full"], wide=False)
    dumps = [annotation_records(paths[s]) for s in workloads.SYSTEMS]
    expected = greedy_align_overlap(dumps)
    assert len(expected) > 1000
    assert _align_overlap(dumps) == expected


# empty surfaces, nested and crossing spans; few offsets, so keys repeat
SURFACES = ("", "a", "ab", "abc", "b", "bcd", "abcdef", "zz")


def _random_sets(rng):
    sets = []
    for _ in range(int(rng.integers(2, 5))):
        annotations = []
        for _ in range(int(rng.integers(0, 9))):
            annotations.append(SystemAnnotation(
                ("d1", "d2")[int(rng.integers(0, 2))],
                SURFACES[int(rng.integers(0, len(SURFACES)))],
                int(rng.integers(0, 10)),
                f"E{int(rng.integers(0, 3))}",
            ))
        sets.append(annotations)
    return sets


def test_random_sets_match_greedy():
    rng = np.random.default_rng(20240601)
    aligned = 0
    for _ in range(3000):
        sets = _random_sets(rng)
        expected = greedy_align_overlap(sets)
        assert _align_overlap(sets) == expected, sets
        aligned += len(expected)
    assert aligned > 1000


def test_used_candidate_stays_used_after_a_later_system_fails():
    # the anchor at 0 takes b's only span, then finds nothing in c; the anchor
    # at 1 can no longer use b's span
    a = [SystemAnnotation("d", "xx", 0, "E"), SystemAnnotation("d", "xx", 1, "E")]
    b = [SystemAnnotation("d", "xxx", 0, "E")]
    c = [SystemAnnotation("d", "x", 2, "E")]
    assert greedy_align_overlap([a, b, c]) == []
    assert _align_overlap([a, b, c]) == []


def test_exact_twin_wins_over_earlier_overlap():
    a = [SystemAnnotation("d", "abc", 2, "E1")]
    b = [SystemAnnotation("d", "abcdef", 0, "E2"), SystemAnnotation("d", "abc", 2, "E3")]
    expected = [LabelledMention("d", "abc", 2, ("E1", "E3"), label(("E1", "E3")))]
    assert greedy_align_overlap([a, b]) == expected
    assert _align_overlap([a, b]) == expected
