"""Difficulty labels from the agreement pattern of multiple entity linkers.

Mentions recognised by every system are aligned into tuples carrying one
entity per system; the size of the largest agreement group then decides the
label: all systems disagree -> HARD, all agree -> EASY, anything in
between -> MEDIUM. For three systems this is exactly the
all-distinct / all-equal / two-of-three split.
"""

from __future__ import annotations

import logging
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import Corpus
from .errors import MalformedRecordError

log = logging.getLogger(__name__)


class Label(Enum):
    """Difficulty class. Tie-breaking everywhere uses HARD < MEDIUM < EASY."""

    HARD = "HARD"
    MEDIUM = "MEDIUM"
    EASY = "EASY"

    def __str__(self) -> str:
        return self.value


#: Canonical class order used for probability vectors, confusion matrices
#: and argmax tie-breaking.
CLASS_ORDER: tuple[Label, Label, Label] = (Label.HARD, Label.MEDIUM, Label.EASY)
CLASS_INDEX: Mapping[Label, int] = {label: i for i, label in enumerate(CLASS_ORDER)}
#: Label by its text, the lookup every reader uses instead of ``Label(text)``.
LABEL_OF_VALUE: Mapping[str, Label] = {label.value: label for label in Label}


class AlignPolicy(Enum):
    """How mention spans are matched across systems."""

    EXACT = "exact"
    OVERLAP = "overlap"


def _annotation_problem(doc_id: str, offset: int, entity_id: str) -> str | None:
    """The first annotation rule the values break, or None if they keep all.

    The one statement of the rules: ``SystemAnnotation`` checks them here,
    and so does ``read_annotation_fields`` for every line it reads.
    """
    if offset < 0:
        return f"negative offset {offset} in {doc_id!r}"
    if not entity_id:
        return f"empty entity id at {doc_id!r}:{offset}"
    return None


class SystemAnnotation(namedtuple("SystemAnnotation", "system_id doc_id surface offset entity_id")):
    """One entity link emitted by one system: (document, surface, position, entity).

    An immutable tuple ``(system_id, doc_id, surface, offset, entity_id)``.
    """

    __slots__ = ()

    def __new__(cls, system_id: str, doc_id: str, surface: str, offset: int, entity_id: str):
        problem = _annotation_problem(doc_id, offset, entity_id)
        if problem:
            raise ValueError(problem)
        return tuple.__new__(cls, (system_id, doc_id, surface, offset, entity_id))

    @property
    def span(self) -> tuple[int, int]:
        return self.offset, self.offset + len(self.surface)


class AlignedMention(namedtuple("AlignedMention", "doc_id surface offset entities")):
    """A mention recognised by all systems, with one entity per system.

    An immutable tuple ``(doc_id, surface, offset, entities)``.
    """

    __slots__ = ()

    def __new__(cls, doc_id: str, surface: str, offset: int, entities: tuple[str, ...]):
        if len(entities) < 2:
            raise ValueError("an aligned mention needs entities from at least 2 systems")
        return tuple.__new__(cls, (doc_id, surface, offset, entities))

    @property
    def key(self) -> tuple[str, int, str]:
        return self.doc_id, self.offset, self.surface


class LabelledMention(NamedTuple):
    """An aligned mention together with its difficulty label: an immutable
    tuple ``(mention, label)``."""

    mention: AlignedMention
    label: Label

    @property
    def key(self) -> tuple[str, int, str]:
        return self.mention.key


def normalize_entity(raw: str, redirect_map: Mapping[str, str] | None = None) -> str:
    """Canonical entity id: trimmed, spaces to underscores, first character
    uppercased, then one redirect hop if a map is given."""
    trimmed = raw.strip()
    if not trimmed:
        raise ValueError("entity id must be non-empty")
    canonical = trimmed.replace(" ", "_")
    canonical = canonical[0].upper() + canonical[1:]
    if redirect_map:
        canonical = redirect_map.get(canonical, canonical)
    return canonical


def read_annotation_fields(
    path: str | Path,
    redirect_map: Mapping[str, str] | None = None,
    normalize: bool = True,
) -> list[tuple[str, str, int, str]]:
    """``(doc_id, surface, offset, entity_id)`` for each line of an
    annotation dump, checked as ``read_annotations`` checks them.

    Each distinct raw entity id is normalized once. The first bad line
    raises MalformedRecordError with its line number.
    """
    records = []
    canonical: dict[str, str] = {}
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
                raw = entity
                entity = canonical.get(raw)
                if entity is None:
                    try:
                        entity = canonical[raw] = normalize_entity(raw, redirect_map)
                    except ValueError:
                        raise MalformedRecordError(lineno, "empty entity id") from None
            problem = _annotation_problem(doc_id, offset, entity)
            if problem:
                raise MalformedRecordError(lineno, problem)
            records.append((doc_id, surface, offset, entity))
    return records


def read_annotations(
    path: str | Path,
    system_id: str | None = None,
    redirect_map: Mapping[str, str] | None = None,
    normalize: bool = True,
) -> list[SystemAnnotation]:
    """Read one system's annotation dump.

    Format: tab-separated ``doc_id  offset  surface  entity_id``, one
    annotation per line. Entity ids are normalized unless disabled.
    """
    if system_id is None:
        system_id = Path(path).stem
    # read_annotation_fields checked every line with _annotation_problem, as
    # the constructor would: build the tuples without checking them twice
    new = tuple.__new__
    return [new(SystemAnnotation, (system_id, *fields))
            for fields in read_annotation_fields(path, redirect_map, normalize)]


def write_annotations(annotations: Iterable[SystemAnnotation], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a in annotations:
            fh.write(f"{a.doc_id}\t{a.offset}\t{a.surface}\t{a.entity_id}\n")


def validate_annotations(annotations: Iterable[SystemAnnotation], corpus: Corpus) -> None:
    """Check that every annotation fits inside its document."""
    for a in annotations:
        doc = corpus.get(a.doc_id)
        if a.offset + len(a.surface) > len(doc.text):
            raise ValueError(
                f"annotation {a.surface!r} at {a.doc_id}:{a.offset} extends past document end"
            )


_CONFLICT_RESOLUTION = {
    AlignPolicy.EXACT: "exact alignment keeps each key's first entity",
    AlignPolicy.OVERLAP: "overlap alignment tries each key's first entity first",
}


def _warn_conflicts(annotation_sets: Sequence[Sequence[SystemAnnotation]],
                    policy: AlignPolicy) -> None:
    """Warn with the number of (system, key) pairs where one system links the
    same (document, offset, surface) key to different entities."""
    conflicts = 0
    for annotations in annotation_sets:
        # Equal keys hash equally, so distinct hashes rule out repeats. The
        # hashes are untracked ints, which keeps the usual pass from shifting
        # the garbage collector's schedule as thousands of live key tuples do.
        hashes = {hash((a.doc_id, a.offset, a.surface)) for a in annotations}
        if len(hashes) == len(annotations):
            continue
        first: dict[tuple[str, int, str], str] = {}
        clashed = set()
        for a in annotations:
            key = (a.doc_id, a.offset, a.surface)
            if first.setdefault(key, a.entity_id) != a.entity_id:
                clashed.add(key)
        conflicts += len(clashed)
    if conflicts:
        log.warning("%d (document, offset, surface) keys are linked to different entities by "
                    "the same system; %s", conflicts, _CONFLICT_RESOLUTION[policy])


def _align_exact(annotation_sets: Sequence[Sequence[SystemAnnotation]]) -> list[AlignedMention]:
    n = len(annotation_sets)
    slots: dict[tuple[str, int, str], list[str | None]] = {}
    for sys_idx, annotations in enumerate(annotation_sets):
        for a in annotations:
            entry = slots.setdefault((a.doc_id, a.offset, a.surface), [None] * n)
            if entry[sys_idx] is None:
                entry[sys_idx] = a.entity_id
    aligned = []
    for (doc_id, offset, surface), entry in slots.items():
        if all(e is not None for e in entry):
            aligned.append(AlignedMention(doc_id, surface, offset, tuple(entry)))
    aligned.sort(key=lambda m: (m.doc_id, m.offset, m.surface))
    return aligned


def _overlap_order(a: SystemAnnotation) -> tuple[int, int, str]:
    return a.offset, len(a.surface), a.surface


def _align_overlap(annotation_sets: Sequence[Sequence[SystemAnnotation]]) -> list[AlignedMention]:
    # Greedy left-to-right in the first system's order; each annotation joins
    # at most one group. An exact (offset, surface) twin is preferred over the
    # first merely-overlapping candidate so that every EXACT group survives
    # under the OVERLAP policy. Anchors come in offset order, so a candidate
    # that is used or ends at or before one anchor's offset can never join a
    # later group: each other system keeps a start pointer past the prefix of
    # such candidates, and a scan stops at the first candidate starting at or
    # after the anchor's end.
    by_doc: dict[str, list[list[SystemAnnotation]]] = {}
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
            twins: dict[tuple[int, str], int] = {}
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
                aligned.append(AlignedMention(doc_id, surface, lo, tuple(entities)))
    aligned.sort(key=lambda m: (m.doc_id, m.offset, m.surface))
    return aligned


def align(
    annotation_sets: Sequence[Sequence[SystemAnnotation]],
    policy: AlignPolicy = AlignPolicy.EXACT,
) -> list[AlignedMention]:
    """Group the mentions recognised by all systems into AlignedMentions.

    EXACT groups annotations whose (doc, offset, surface) coincide across
    every system. OVERLAP groups annotations whose spans pairwise overlap in
    the same document, greedily left to right, taking surface and offset
    from the first system. Mentions missed by any system are dropped.
    """
    if len(annotation_sets) < 2:
        raise ValueError("alignment needs annotation sets from at least 2 systems")
    if policy not in _CONFLICT_RESOLUTION:
        raise ValueError(f"unknown alignment policy {policy!r}")
    _warn_conflicts(annotation_sets, policy)
    if policy is AlignPolicy.EXACT:
        return _align_exact(annotation_sets)
    return _align_overlap(annotation_sets)


def label(mention: AlignedMention) -> Label:
    """Difficulty from the largest agreement group among the systems' entities:
    size 1 -> HARD, size n -> EASY, otherwise MEDIUM.

    The largest group has size n exactly when there is one distinct entity,
    and size 1 exactly when all n are distinct, so the distinct count decides.
    """
    entities = mention.entities
    distinct = len(set(entities))
    if distinct == 1:
        return Label.EASY
    if distinct == len(entities):
        return Label.HARD
    return Label.MEDIUM


def label_all(mentions: Iterable[AlignedMention]) -> list[LabelledMention]:
    return [LabelledMention(m, label(m)) for m in mentions]


@dataclass(frozen=True)
class ClassDistribution:
    """Per-class counts and fractions. ``fractions`` is None for empty input."""

    counts: Mapping[Label, int]
    fractions: Mapping[Label, float] | None
    total: int


def class_distribution(labelled: Sequence[LabelledMention]) -> ClassDistribution:
    counts = {lbl: 0 for lbl in CLASS_ORDER}
    for lm in labelled:
        counts[lm.label] += 1
    total = len(labelled)
    fractions = {lbl: counts[lbl] / total for lbl in CLASS_ORDER} if total else None
    return ClassDistribution(counts=counts, fractions=fractions, total=total)


def write_labels(labelled: Iterable[LabelledMention], path: str | Path) -> None:
    """Write the label file: ``doc_id offset surface label e1,...,en`` (tabs)."""
    with open(path, "w", encoding="utf-8") as fh:
        for lm in labelled:
            m = lm.mention
            fh.write(f"{m.doc_id}\t{m.offset}\t{m.surface}\t{lm.label}\t{','.join(m.entities)}\n")


def read_labels(path: str | Path) -> list[LabelledMention]:
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
            lbl = LABEL_OF_VALUE.get(label_str)
            if lbl is None:
                raise MalformedRecordError(lineno, f"bad label {label_str!r}")
            try:
                mention = AlignedMention(doc_id, surface, offset, tuple(entities_str.split(",")))
            except ValueError as exc:
                raise MalformedRecordError(lineno, str(exc)) from None
            labelled.append(LabelledMention(mention, lbl))
    return labelled
