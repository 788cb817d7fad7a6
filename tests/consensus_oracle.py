"""The record path of ``label``, kept as the oracle for its code columns.

``oracle_read_annotations`` reads a dump as the record reader did, one
``SystemAnnotation`` per line. ``oracle_align`` is ``align`` as it was on
those records: a dict of slots per key for EXACT, the sweep over
per-document record lists for OVERLAP, each emitting one ``LabelledMention``
per aligned mention. ``oracle_label`` is ``cmd_label`` on records, and
``oracle_count_doc_mentions`` is ``count_doc_mentions`` on them. The
adapters turn record sets into the columns that ``align`` takes and the rows
that ``write_annotations`` writes, and ``align``'s rows back into the
records they stand for.
"""

import re
from collections import namedtuple
from itertools import chain

import numpy as np

from eldiff.consensus import (
    CLASS_INDEX,
    CLASS_ORDER,
    AlignPolicy,
    KeyedRows,
    LabelledRows,
    MentionCodes,
    align,
    label,
    normalize_entity,
    read_annotations,
    read_redirects,
    write_labels,
    write_tsv,
)
from eldiff.corpus import load_corpus
from eldiff.errors import MalformedRecordError


class SystemAnnotation(namedtuple("SystemAnnotation", "doc_id surface offset entity_id")):
    """One entity link emitted by one system, the immutable tuple
    ``(doc_id, surface, offset, entity_id)``, with a non-negative offset and
    a non-empty entity id."""

    __slots__ = ()

    def __new__(cls, doc_id, surface, offset, entity_id):
        if offset < 0:
            raise ValueError(f"negative offset {offset} in {doc_id!r}")
        if not entity_id:
            raise ValueError(f"empty entity id at {doc_id!r}:{offset}")
        return tuple.__new__(cls, (doc_id, surface, offset, entity_id))


class LabelledMention(namedtuple("LabelledMention", "doc_id surface offset entities label")):
    """A mention recognised by all systems, with one entity per system and
    its difficulty label: one labels line, the immutable tuple
    ``(doc_id, surface, offset, entities, label)``."""

    __slots__ = ()

    def __new__(cls, doc_id, surface, offset, entities, label):
        if len(entities) < 2:
            raise ValueError("an aligned mention needs entities from at least 2 systems")
        return tuple.__new__(cls, (doc_id, surface, offset, entities, label))


def oracle_offset(text, lineno):
    if not re.fullmatch("0|[1-9][0-9]*", text):
        raise MalformedRecordError(lineno, f"bad offset {text!r}")
    return int(text)


# --- adapters: record sets as columns and rows as records --------------------------


def annotation_records(path, redirect_map=None):
    """``read_annotations``' columns as one ``SystemAnnotation`` a line."""
    codes = MentionCodes()
    dump = read_annotations(path, codes, redirect_map)
    names = list(codes.entities)
    return [SystemAnnotation(doc_id, surface, offset, names[e]) for (doc_id, offset, surface), e
            in zip(codes.mentions(dump.keys.tolist()), dump.values.tolist())]


def annotation_rows(annotations):
    """Records as the rows ``write_annotations`` writes."""
    return [(a.doc_id, a.offset, a.surface, a.entity_id) for a in annotations]


def dumps_of(annotation_sets):
    """Record sets as ``KeyedRows`` against one new ``MentionCodes``."""
    codes = MentionCodes()
    entities = codes.entities
    dumps = [KeyedRows(np.array([codes.key(a.doc_id, str(a.offset), a.surface, 0)
                                   for a in annotations], dtype=np.intp),
                         np.array([entities.setdefault(a.entity_id, len(entities))
                                   for a in annotations], dtype=np.intp))
             for annotations in annotation_sets]
    return dumps, codes


def row_records(rows, codes):
    """``LabelledRows`` as one ``LabelledMention`` a row."""
    names = list(codes.entities)
    return [LabelledMention(doc_id, surface, offset, tuple(names[e] for e in rows.entities[t]),
                            CLASS_ORDER[c])
            for (doc_id, offset, surface), c, t in zip(codes.mentions(rows.keys.tolist()),
                                                       rows.labels.tolist(), rows.tuples.tolist())]


def rows_of(labelled):
    """``LabelledMention`` records as ``LabelledRows`` against one new
    ``MentionCodes``: one entity tuple per record."""
    codes = MentionCodes()
    entities = codes.entities
    rows = LabelledRows(
        np.array([codes.key(lm.doc_id, str(lm.offset), lm.surface, 0) for lm in labelled],
                 dtype=np.intp),
        np.array([CLASS_INDEX[lm.label] for lm in labelled], dtype=np.int8),
        np.arange(len(labelled), dtype=np.intp),
        [tuple(entities.setdefault(e, len(entities)) for e in lm.entities) for lm in labelled])
    return rows, codes


def write_label_records(labelled, path):
    """``write_labels`` on records."""
    write_labels(*rows_of(labelled), path)


def align_records(annotation_sets, policy=AlignPolicy.EXACT):
    """``align`` on record sets, its rows as records."""
    dumps, codes = dumps_of(annotation_sets)
    return row_records(align(dumps, codes, policy), codes)


# --- the record path ------------------------------------------------------------------


def oracle_read_annotations(path, redirect_map=None):
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
            offset = oracle_offset(offset_str, lineno)
            try:
                entity = normalize_entity(entity, redirect_map)
            except ValueError:
                raise MalformedRecordError(lineno, "empty entity id") from None
            try:
                annotations.append(SystemAnnotation(doc_id, surface, offset, entity))
            except ValueError as exc:
                raise MalformedRecordError(lineno, str(exc)) from None
    return annotations


def oracle_count_doc_mentions(annotation_sets):
    """Distinct (offset, surface) mention spans per document over the union
    of every system's annotations, for d_ents."""
    spans = {}
    for a in chain.from_iterable(annotation_sets):
        spans.setdefault(a.doc_id, set()).add((a.offset, a.surface))
    return {doc_id: len(s) for doc_id, s in spans.items()}


def oracle_conflicts(annotation_sets):
    """The number of (system, key) pairs linked to different entities."""
    conflicts = 0
    for annotations in annotation_sets:
        first, clashed = {}, set()
        for a in annotations:
            key = (a.doc_id, a.offset, a.surface)
            if first.setdefault(key, a.entity_id) != a.entity_id:
                clashed.add(key)
        conflicts += len(clashed)
    return conflicts


def oracle_align_exact(annotation_sets):
    n = len(annotation_sets)
    slots = {}
    for sys_idx, annotations in enumerate(annotation_sets):
        for a in annotations:
            entry = slots.setdefault((a.doc_id, a.offset, a.surface), [None] * n)
            if entry[sys_idx] is None:
                entry[sys_idx] = a.entity_id
    aligned = []
    for (doc_id, offset, surface), entry in slots.items():
        if all(e is not None for e in entry):
            entities = tuple(entry)
            aligned.append(LabelledMention(doc_id, surface, offset, entities, label(entities)))
    aligned.sort(key=lambda m: (m.doc_id, m.offset, m.surface))
    return aligned


def _overlap_order(a):
    return a.offset, len(a.surface), a.surface


def oracle_align_overlap(annotation_sets):
    # Greedy left-to-right in the first system's order; each annotation joins
    # at most one group. An exact (offset, surface) twin is preferred over the
    # first merely-overlapping candidate so that every EXACT group survives
    # under the OVERLAP policy. Anchors come in offset order, so a candidate
    # that is used or ends at or before one anchor's offset can never join a
    # later group: each other system keeps a start pointer past the prefix of
    # such candidates, and a scan stops at the first candidate starting at or
    # after the anchor's end.
    by_doc = {}
    n = len(annotation_sets)
    for sys_idx, annotations in enumerate(annotation_sets):
        for a in annotations:
            per_system = by_doc.get(a.doc_id)
            if per_system is None:
                per_system = by_doc[a.doc_id] = [[] for _ in range(n)]
            per_system[sys_idx].append(a)
    aligned = []
    for doc_id in sorted(by_doc):
        anchors, *others = [sorted(annos, key=_overlap_order) for annos in by_doc[doc_id]]
        lanes = []
        for annos in others:
            starts = [a.offset for a in annos]
            ends = [start + len(a.surface) for start, a in zip(starts, annos)]
            # twins are adjacent in sorted order: keep the first position
            twins = {}
            for pos, a in enumerate(annos):
                twins.setdefault((a.offset, a.surface), pos)
            lanes.append((annos, starts, ends, twins, [False] * len(annos)))
        firsts = [0] * len(lanes)
        for anchor in anchors:
            lo, surface = anchor.offset, anchor.surface
            hi = lo + len(surface)
            spans = [(lo, hi)]
            entities = [anchor.entity_id]
            for k, (annos, starts, ends, twins, used) in enumerate(lanes):
                start, size = firsts[k], len(annos)
                while start < size and (used[start] or ends[start] <= lo):
                    start += 1
                firsts[k] = start
                candidate = twins.get((lo, surface))
                while candidate is not None and used[candidate]:
                    candidate += 1
                    if (candidate == size or starts[candidate] != lo
                            or annos[candidate].surface != surface):
                        candidate = None
                if candidate is None:
                    for pos in range(start, size):
                        if starts[pos] >= hi:
                            break
                        if not used[pos] and all(s < ends[pos] and starts[pos] < e
                                                 for s, e in spans):
                            candidate = pos
                            break
                if candidate is None:
                    break
                used[candidate] = True
                spans.append((starts[candidate], ends[candidate]))
                entities.append(annos[candidate].entity_id)
            else:
                entities = tuple(entities)
                aligned.append(LabelledMention(doc_id, surface, lo, entities, label(entities)))
    aligned.sort(key=lambda m: (m.doc_id, m.offset, m.surface))
    return aligned


def oracle_align(annotation_sets, policy=AlignPolicy.EXACT):
    """The aligned records and the conflict count that ``align`` warns with."""
    if len(annotation_sets) < 2:
        raise ValueError("alignment needs annotation sets from at least 2 systems")
    aligner = oracle_align_exact if policy is AlignPolicy.EXACT else oracle_align_overlap
    return aligner(annotation_sets), oracle_conflicts(annotation_sets)


def oracle_write_labels(labelled, path):
    write_tsv(((doc_id, str(offset), surface, lbl.value, ",".join(entities))
               for doc_id, surface, offset, entities, lbl in labelled), path)


def oracle_label(out, paths, policy=AlignPolicy.EXACT, corpus=None, redirects=None):
    """Write ``labels.tsv`` and ``label_distribution.txt`` into ``out`` as
    ``label`` did from records, and return the conflict count it warned
    with, or raise the error it refused the input with."""
    redirect_map = read_redirects(redirects) if redirects is not None else None
    dumps = [oracle_read_annotations(p, redirect_map) for p in paths]
    if corpus is not None:
        corpus = load_corpus(corpus)
        for annotations in dumps:
            for a in annotations:
                if a.offset + len(a.surface) > len(corpus.get(a.doc_id).text):
                    raise ValueError(f"annotation {a.surface!r} at {a.doc_id}:{a.offset} "
                                     "extends past document end")
    labelled, conflicts = oracle_align(dumps, policy)
    out.mkdir(parents=True, exist_ok=True)
    oracle_write_labels(labelled, out / "labels.tsv")
    total = len(labelled)
    counts = {lbl: sum(lm.label is lbl for lm in labelled) for lbl in CLASS_ORDER}
    write_tsv([("total", str(total)),
               *((lbl.value, str(counts[lbl]), f"{counts[lbl] / total:.6f}" if total else "-")
                 for lbl in CLASS_ORDER)], out / "label_distribution.txt")
    return conflicts

