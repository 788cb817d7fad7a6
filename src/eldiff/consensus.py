"""Difficulty labels from the agreement pattern of multiple entity linkers.

``align`` makes one ``LabelledMention`` per mention recognised by every
system: one entity per system, and the label that the size of the largest
agreement group among them decides: all systems disagree -> HARD, all agree
-> EASY, anything in between -> MEDIUM. For three systems this is exactly
the all-distinct / all-equal / two-of-three split. ``write_labels`` writes
them as a labels file, and ``read_labels``, its one reader, reads it back as
int code columns (``LabelledRows``) against a ``MentionCodes``.
"""

from __future__ import annotations

import logging
from collections import Counter, namedtuple
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

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
#: Label and class index by label text, the lookups readers use instead of ``Label(text)``.
LABEL_OF_VALUE: Mapping[str, Label] = {label.value: label for label in Label}
_CLASS_OF_VALUE = {label.value: CLASS_INDEX[label] for label in Label}


class AlignPolicy(Enum):
    """How mention spans are matched across systems."""

    EXACT = "exact"
    OVERLAP = "overlap"


def _annotation_problem(doc_id: str, offset: int, entity_id: str) -> str | None:
    """The first annotation rule the values break, or None if they keep all.

    The one statement of the rules: ``SystemAnnotation`` checks them here,
    and so does ``read_annotation_fields`` for the lines it reads.
    """
    if offset < 0:
        return f"negative offset {offset} in {doc_id!r}"
    if not entity_id:
        return f"empty entity id at {doc_id!r}:{offset}"
    return None


class SystemAnnotation(namedtuple("SystemAnnotation", "doc_id surface offset entity_id")):
    """One entity link emitted by one system: (document, surface, position, entity).

    An immutable tuple ``(doc_id, surface, offset, entity_id)``.
    """

    __slots__ = ()

    def __new__(cls, doc_id: str, surface: str, offset: int, entity_id: str):
        problem = _annotation_problem(doc_id, offset, entity_id)
        if problem:
            raise ValueError(problem)
        return tuple.__new__(cls, (doc_id, surface, offset, entity_id))


class LabelledMention(namedtuple("LabelledMention", "doc_id surface offset entities label")):
    """A mention recognised by all systems, with one entity per system and
    its difficulty label: one labels line, the immutable tuple
    ``(doc_id, surface, offset, entities, label)``."""

    __slots__ = ()

    def __new__(cls, doc_id: str, surface: str, offset: int, entities: tuple[str, ...],
                label: Label):
        if len(entities) < 2:
            raise ValueError("an aligned mention needs entities from at least 2 systems")
        return tuple.__new__(cls, (doc_id, surface, offset, entities, label))


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


def read_redirects(path: str | Path) -> dict[str, str]:
    """Read a redirect map: tab-separated ``from  to``, both ids normalized."""
    redirects = {}
    for lineno, (source, target) in read_tsv(path, 2):
        try:
            redirects[normalize_entity(source)] = normalize_entity(target)
        except ValueError:
            raise MalformedRecordError(lineno, "empty entity id") from None
    return redirects


# --- the line format of the six tab-separated files (README, "File formats") ----

_WRITE_CHUNK = 4096


def read_tsv(path: str | Path, n_fields: int, at_least: bool = False):
    """Yield ``(line number, fields)`` for each non-blank line of a
    tab-separated file, read as UTF-8 with universal newlines.

    A line with other than ``n_fields`` fields (fewer, if ``at_least``)
    raises MalformedRecordError with its line number.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line == "\n":
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != n_fields and (len(fields) < n_fields or not at_least):
                raise MalformedRecordError(lineno, f"expected {'at least ' * at_least}{n_fields} "
                                                   f"tab-separated fields, got {len(fields)}")
            yield lineno, fields


def plain_digits(text: str) -> bool:
    """Whether ``text`` is ASCII digits with no leading zero, the one rule for
    the counts and offsets the readers take: ``int()`` also takes "007",
    "1_000", " +7 " and other scripts' digits, which would write back as
    other text."""
    return text.isascii() and text.isdigit() and (text[0] != "0" or text == "0")


def parse_offset(text: str, lineno: int) -> int:
    if not plain_digits(text):
        raise MalformedRecordError(lineno, f"bad offset {text!r}")
    return int(text)


def parse_class(text: str, lineno: int) -> int:
    """The class index (``CLASS_ORDER``) of a label text."""
    code = _CLASS_OF_VALUE.get(text)
    if code is None:
        raise MalformedRecordError(lineno, f"bad label {text!r}")
    return code


def write_tsv(rows: Iterable[Sequence[str]], path: str | Path) -> None:
    """Write one tab-separated line per row of string fields.

    A field holding a tab, ``\\n`` or ``\\r`` would read back as another
    record or a malformed line (universal newlines turn ``\\r`` into a line
    break), so it raises ValueError naming the field before the file is
    opened. Rows are joined and checked a chunk at a time: only the file's
    text is held at once.
    """
    rows = iter(rows)
    texts = []
    while chunk := list(islice(rows, _WRITE_CHUNK)):
        text = "\n".join(map("\t".join, chunk))
        if (text.count("\t") != sum(map(len, chunk)) - len(chunk)
                or text.count("\n") != len(chunk) - 1 or "\r" in text):
            for lineno, row in enumerate(chunk, start=len(texts) * _WRITE_CHUNK + 1):
                for field in row:
                    if "\t" in field or "\n" in field or "\r" in field:
                        raise ValueError(f"row {lineno}: field {field!r} holds a tab or line "
                                         "break and cannot be written")
        texts.append(text + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(texts)


def read_annotation_fields(path: str | Path, redirect_map: Mapping[str, str] | None = None
                           ) -> Iterator[tuple[int, str, str, str, str]]:
    """Yield ``(line number, doc_id, offset text, surface, entity id)`` for
    each line of an annotation dump, or of a gold standard in its layout.

    Format: tab-separated ``doc_id  offset  surface  entity_id``, one
    annotation per line. The offset text passes ``parse_offset``, so it is
    canonical: distinct texts are distinct offsets. Entity ids are
    normalized, each distinct raw id once. The first bad line raises
    MalformedRecordError with its line number.
    """
    canonical: dict[str, str] = {}
    offsets: set[str] = set()
    for lineno, (doc_id, offset, surface, raw) in read_tsv(path, 4):
        if offset not in offsets:
            parse_offset(offset, lineno)
            offsets.add(offset)
        entity = canonical.get(raw)
        if entity is None:
            try:
                entity = normalize_entity(raw, redirect_map)
            except ValueError:
                raise MalformedRecordError(lineno, "empty entity id") from None
            # the offset passed parse_offset, so only the entity id can break a
            # rule, and it does so on every line of its raw id or on none
            problem = _annotation_problem(doc_id, int(offset), entity)
            if problem:
                raise MalformedRecordError(lineno, problem)
            canonical[raw] = entity
        yield lineno, doc_id, offset, surface, entity


def read_annotations(path: str | Path,
                     redirect_map: Mapping[str, str] | None = None) -> list[SystemAnnotation]:
    """Read one system's annotation dump, or a gold standard in its layout,
    as records: ``read_annotation_fields``, one ``SystemAnnotation`` a line."""
    new = tuple.__new__
    # checked as the constructor checks: build the tuple without it
    return [new(SystemAnnotation, (doc_id, surface, int(offset), entity))
            for _, doc_id, offset, surface, entity in read_annotation_fields(path, redirect_map)]


class MentionCodes:
    """Int codes for the mention keys and entity ids of the files that one
    reader or join sees, each given in first-seen order.

    A key ``(doc_id, offset, surface)`` is interned by its fields joined with
    tabs, which no field of a tab-separated line holds, so a key has one
    code in every file. Its offset text is checked (``parse_offset``) when
    the key is first seen; a text that passes is canonical, so distinct
    texts are distinct offsets. ``entities`` maps each entity id to its
    code.
    """

    def __init__(self):
        self.keys: dict[str, int] = {}
        self.entities: dict[str, int] = {}

    def key(self, doc_id: str, offset: str, surface: str, lineno: int) -> int:
        text = f"{doc_id}\t{offset}\t{surface}"
        code = self.keys.get(text)
        if code is None:
            parse_offset(offset, lineno)
            code = self.keys[text] = len(self.keys)
        return code

    def mentions(self) -> list[tuple[str, int, str]]:
        """Every key as ``(doc_id, offset, surface)``, in code order."""
        return [(doc_id, int(offset), surface)
                for doc_id, offset, surface in (text.split("\t") for text in self.keys)]

    def order(self) -> np.ndarray:
        """Every key code in (doc_id, offset, surface) order: ``np.lexsort``
        over each field's rank in sorted order. Python compares ``str`` by
        code point, so this is ``sorted`` over the key tuples."""
        ranks = []
        for column in zip(*self.mentions()):
            rank = {field: i for i, field in enumerate(sorted(set(column)))}
            ranks.append(np.array([rank[field] for field in column], dtype=np.intp))
        if not ranks:
            return np.empty(0, dtype=np.intp)
        doc, offset, surface = ranks
        return np.lexsort((surface, offset, doc))

    def doc_counts(self) -> dict[str, int]:
        """Each doc id's number of keys, doc ids in first-seen order."""
        return dict(Counter(doc_id for doc_id, _, _ in self.mentions()))

    def surface_counts(self, counts: Mapping[str, int]) -> np.ndarray:
        """Each key's count of its surface in ``counts``, 0 if absent."""
        return np.array([counts.get(surface, 0) for _, _, surface in self.mentions()],
                        dtype=np.int64)


def write_annotations(annotations: Iterable[SystemAnnotation], path: str | Path) -> None:
    write_tsv(((a.doc_id, str(a.offset), a.surface, a.entity_id) for a in annotations), path)


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


def _align_exact(annotation_sets: Sequence[Sequence[SystemAnnotation]]) -> list[LabelledMention]:
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
            entities = tuple(entry)
            aligned.append(LabelledMention(doc_id, surface, offset, entities, label(entities)))
    aligned.sort(key=lambda m: (m.doc_id, m.offset, m.surface))
    return aligned


def _overlap_order(a: SystemAnnotation) -> tuple[int, int, str]:
    return a.offset, len(a.surface), a.surface


def _align_overlap(annotation_sets: Sequence[Sequence[SystemAnnotation]]) -> list[LabelledMention]:
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
                entities = tuple(entities)
                aligned.append(LabelledMention(doc_id, surface, lo, entities, label(entities)))
    aligned.sort(key=lambda m: (m.doc_id, m.offset, m.surface))
    return aligned


def align(
    annotation_sets: Sequence[Sequence[SystemAnnotation]],
    policy: AlignPolicy = AlignPolicy.EXACT,
) -> list[LabelledMention]:
    """Group the mentions recognised by all systems into LabelledMentions,
    each labelled by its entities, in (doc, offset, surface) order.

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


def label(entities: Sequence[str]) -> Label:
    """Difficulty from the largest agreement group among the systems' entities:
    size 1 -> HARD, size n -> EASY, otherwise MEDIUM.

    The largest group has size n exactly when there is one distinct entity,
    and size 1 exactly when all n are distinct, so the distinct count decides.
    """
    distinct = len(set(entities))
    if distinct == 1:
        return Label.EASY
    if distinct == len(entities):
        return Label.HARD
    return Label.MEDIUM


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
    write_tsv(((doc_id, str(offset), surface, lbl.value, ",".join(entities))
               for doc_id, surface, offset, entities, lbl in labelled), path)


@dataclass(frozen=True, eq=False)
class LabelledRows:
    """A labels file as int columns in line order: each line's key code
    (``MentionCodes.key``), class index (``CLASS_ORDER``) and entity-tuple
    code. ``entities[t]`` holds tuple ``t``'s entity codes, one per system."""

    keys: np.ndarray
    labels: np.ndarray
    tuples: np.ndarray
    entities: list[tuple[int, ...]]


def read_labels(path: str | Path, codes: MentionCodes) -> LabelledRows:
    """Read a labels file into code columns against ``codes``. The first bad
    line raises MalformedRecordError with its number: a bad offset, then a
    bad label, then fewer than 2 entities. Each distinct entity list is split
    and checked once."""
    keys, labels, tuples = [], [], []
    tuple_codes: dict[str, int] = {}
    entities: list[tuple[int, ...]] = []
    entity_codes = codes.entities
    for lineno, (doc_id, offset, surface, label, ids) in read_tsv(path, 5):
        keys.append(codes.key(doc_id, offset, surface, lineno))
        labels.append(parse_class(label, lineno))
        code = tuple_codes.get(ids)
        if code is None:
            split = ids.split(",")
            if len(split) < 2:
                raise MalformedRecordError(
                    lineno, "an aligned mention needs entities from at least 2 systems")
            code = tuple_codes[ids] = len(entities)
            entities.append(tuple(entity_codes.setdefault(e, len(entity_codes)) for e in split))
        tuples.append(code)
    return LabelledRows(np.array(keys, dtype=np.intp), np.array(labels, dtype=np.int8),
                        np.array(tuples, dtype=np.intp), entities)
