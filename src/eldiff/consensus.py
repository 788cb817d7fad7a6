"""Difficulty labels from the agreement pattern of multiple entity linkers.

Every file is read into int code columns against one ``MentionCodes``, which
codes each mention key ``(doc_id, offset, surface)`` and each entity id.
``read_annotations`` reads one system's dump as ``KeyedRows``: a key code
and an entity code per line. ``align`` groups the mentions recognised by
every system into ``LabelledRows``: one row per mention, one entity per
system, and the label that the size of the largest agreement group among
them decides: all systems disagree -> HARD, all agree -> EASY, anything in
between -> MEDIUM. For three systems this is exactly the all-distinct /
all-equal / two-of-three split. ``write_labels`` writes the rows as a labels
file, and ``read_labels``, its one reader, reads it back as the same columns.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from operator import itemgetter, methodcaller
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

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
#: Class index by label text, the lookup readers use instead of ``Label(text)``.
_CLASS_OF_VALUE = {label.value: CLASS_INDEX[label] for label in Label}


class AlignPolicy(Enum):
    """How mention spans are matched across systems."""

    EXACT = "exact"
    OVERLAP = "overlap"


def _annotation_problem(doc_id: str, offset: int, entity_id: str) -> str | None:
    """The first annotation rule the values break, or None if they keep all.

    The one statement of the rules: ``write_annotations`` checks them here
    for the rows it writes, and so does ``read_annotations`` for the lines
    it reads.
    """
    if offset < 0:
        return f"negative offset {offset} in {doc_id!r}"
    if not entity_id:
        return f"empty entity id at {doc_id!r}:{offset}"
    return None


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
            if line != "\n":
                yield lineno, _split_line(line, lineno, n_fields, at_least)


def _split_line(line: str, lineno: int, n_fields: int, at_least: bool = False) -> list[str]:
    """The tab-separated fields of one line read by ``read_tsv``."""
    fields = line.rstrip("\n").split("\t")
    if len(fields) != n_fields and (len(fields) < n_fields or not at_least):
        raise MalformedRecordError(lineno, f"expected {'at least ' * at_least}{n_fields} "
                                           f"tab-separated fields, got {len(fields)}")
    return fields


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
        texts.append(_checked_text("\n".join(map("\t".join, chunk)), len(chunk),
                                   sum(map(len, chunk)) - len(chunk),
                                   len(texts) * _WRITE_CHUNK + 1, lambda: chunk))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(texts)


def _checked_text(text: str, n_rows: int, n_tabs: int, first_row: int,
                  rows: Callable[[], Iterable[Sequence[str]]]) -> str:
    """``text``, the ``n_rows`` lines of ``rows()`` joined by line breaks,
    with a final one. When its tab and line-break counts show a field that
    holds one, ``rows()`` (numbered from ``first_row``) is read to name that
    field in a ValueError."""
    if text.count("\t") != n_tabs or text.count("\n") != n_rows - 1 or "\r" in text:
        for row_number, row in enumerate(rows(), start=first_row):
            for field in row:
                if "\t" in field or "\n" in field or "\r" in field:
                    raise ValueError(f"row {row_number}: field {field!r} holds a tab or line "
                                     "break and cannot be written")
    return text + "\n"


#: Lines per block of an annotation dump that ``read_annotations`` reads at once.
_READ_BLOCK = 1 << 13
_LAST_TAB, _FIRST, _LAST = methodcaller("rpartition", "\t"), itemgetter(0), itemgetter(2)


class MentionCodes:
    """Int codes for the mention keys, documents, surfaces and entity ids of
    the files that one reader or join sees, each given in first-seen order.

    A key ``(doc_id, offset, surface)`` is interned by its fields joined with
    tabs, which no field of a tab-separated line holds, so a key has one
    code in every file. A new key is decoded once, when it is interned: its
    offset text is checked (``parse_offset``), and its document code, int
    offset and surface code join per-key columns. An offset text that passes
    is canonical, so distinct texts are distinct offsets. ``docs``,
    ``surfaces`` and ``entities`` map each name to its code.
    """

    def __init__(self):
        self.keys: dict[str, int] = {}
        self.entities: dict[str, int] = {}
        self.docs: dict[str, int] = {}
        self.surfaces: dict[str, int] = {}
        self._offsets: dict[str, int] = {}
        # offsets are ints of any size, each shared by the keys that have it
        self._key_docs, self._key_offsets, self._key_surfaces = array("q"), [], array("q")

    def key(self, doc_id: str, offset: str, surface: str, lineno: int) -> int:
        text = f"{doc_id}\t{offset}\t{surface}"
        code = self.keys.get(text)
        if code is None:
            value = self._offsets.get(offset)
            if value is None:
                value = self._offsets[offset] = parse_offset(offset, lineno)
            docs, surfaces = self.docs, self.surfaces
            self._key_docs.append(docs.setdefault(doc_id, len(docs)))
            self._key_offsets.append(value)
            self._key_surfaces.append(surfaces.setdefault(surface, len(surfaces)))
            code = self.keys[text] = len(self.keys)
        return code

    def intern(self, texts: Sequence[str]) -> np.ndarray | None:
        """The code of each key text, interning the new ones; None, with
        nothing interned, if a new text is not three fields with a good
        offset."""
        keys, values = self.keys, self._offsets
        new = [text for text in dict.fromkeys(texts) if text not in keys]
        if new:
            fields = [text.split("\t") for text in new]
            if set(map(len, fields)) != {3}:
                return None
            doc_ids, offsets, surfaces = zip(*fields)
            for offset in dict.fromkeys(offsets):
                if offset not in values:
                    if not plain_digits(offset):
                        return None
                    values[offset] = int(offset)
            for names, column, given in ((self.docs, self._key_docs, doc_ids),
                                         (self.surfaces, self._key_surfaces, surfaces)):
                for name in given:
                    if name not in names:
                        names[name] = len(names)
                column.extend(map(names.__getitem__, given))
            self._key_offsets.extend(map(values.__getitem__, offsets))
            keys.update(zip(new, range(len(keys), len(keys) + len(new))))
        return np.fromiter(map(keys.__getitem__, texts), dtype=np.intp, count=len(texts))

    def mentions(self, codes: Iterable[int] | None = None) -> list[tuple[str, int, str]]:
        """The given keys (every key by default, in code order) as
        ``(doc_id, offset, surface)``."""
        docs, surfaces = list(self.docs), list(self.surfaces)
        columns = zip(self._key_docs, self._key_offsets, self._key_surfaces)
        if codes is not None:
            columns = [(self._key_docs[k], self._key_offsets[k], self._key_surfaces[k])
                       for k in codes]
        return [(docs[d], offset, surfaces[s]) for d, offset, s in columns]

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each key's document code, offset and surface code, in code order.
        The offsets are int64, or Python ints if one does not fit."""
        try:
            offsets = np.array(self._key_offsets, dtype=np.int64)
        except OverflowError:
            offsets = np.array(self._key_offsets, dtype=object)
        return (np.frombuffer(self._key_docs, dtype=np.int64).astype(np.intp), offsets,
                np.frombuffer(self._key_surfaces, dtype=np.int64).astype(np.intp))

    def order(self, keys: np.ndarray | None = None) -> np.ndarray:
        """The positions of ``keys`` (every key code by default) in
        (doc_id, offset, surface) order, equal keys in their given order:
        ``np.lexsort`` over the offsets and each doc id's and surface's rank
        in sorted order. Python compares ``str`` by code point, so this is
        ``sorted`` over the key tuples."""
        doc, offset, surface = self.columns()
        if keys is not None:
            doc, offset, surface = doc[keys], offset[keys], surface[keys]
        return np.lexsort((_ranks(self.surfaces)[surface], offset, _ranks(self.docs)[doc]))

    def doc_counts(self) -> dict[str, int]:
        """Each doc id's number of keys, doc ids in first-seen order."""
        counts = np.bincount(np.frombuffer(self._key_docs, dtype=np.int64),
                             minlength=len(self.docs))
        return dict(zip(self.docs, counts.tolist()))

    def surface_counts(self, counts: Mapping[str, int]) -> np.ndarray:
        """Each key's count of its surface in ``counts``, 0 if absent."""
        by_surface = np.array([counts.get(surface, 0) for surface in self.surfaces],
                              dtype=np.int64)
        return by_surface[np.frombuffer(self._key_surfaces, dtype=np.int64)]


def _ranks(names: Mapping[str, int]) -> np.ndarray:
    """Each coded name's rank in sorted order, by code."""
    ranks = np.empty(len(names), dtype=np.intp)
    ranks[sorted(range(len(names)), key=list(names).__getitem__)] = np.arange(len(names))
    return ranks


@dataclass(frozen=True, eq=False)
class KeyedRows:
    """Lines of one file as int columns in line order: each line's key code
    (``MentionCodes``) and value code, such as an entity code
    (``MentionCodes.entities``) or a class index. ``blank_lines`` holds the
    numbers of the blank lines the reader skipped."""

    keys: np.ndarray
    values: np.ndarray
    blank_lines: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.keys)

    def line_number(self, row: int) -> int:
        """The file line that row ``row`` was read from."""
        lineno = row + 1
        for blank in self.blank_lines:
            if blank > lineno:
                break
            lineno += 1
        return lineno


def read_annotations(path: str | Path, codes: MentionCodes,
                     redirect_map: Mapping[str, str] | None = None) -> KeyedRows:
    """Read one system's annotation dump, or a gold standard in its layout,
    into code columns against ``codes``.

    Format: tab-separated ``doc_id  offset  surface  entity_id``, one
    annotation per line. The dump is read a block of lines at a time, and
    each block is checked in bulk: its new key texts as ``MentionCodes``
    interns them, and its distinct raw entity ids, each normalized once per
    file. A block that fails is read again line by line, and its first bad
    line raises MalformedRecordError with its line number.
    """
    key_blocks, entity_blocks, blank_lines = [], [], []
    raw_codes: dict[str, int] = {}
    start = 0
    with open(path, encoding="utf-8") as fh:
        while block := list(islice(fh, _READ_BLOCK)):
            lines = block
            if "\n" in block:
                blank_lines += [start + i for i, line in enumerate(block, 1) if line == "\n"]
                lines = [line for line in block if line != "\n"]
            # each line's key text, and its raw entity id with the line break
            parts = list(map(_LAST_TAB, lines))
            texts, raws = list(map(_FIRST, parts)), list(map(_LAST, parts))
            del parts
            keys = codes.intern(texts)
            entities = _entity_codes(raws, raw_codes, codes.entities, redirect_map)
            if keys is None or entities is None:
                _raise_first_bad_line(block, start, redirect_map)
            key_blocks.append(keys)
            entity_blocks.append(entities)
            start += len(block)
    empty = [np.empty(0, dtype=np.intp)]
    return KeyedRows(np.concatenate(key_blocks or empty),
                     np.concatenate(entity_blocks or empty), tuple(blank_lines))


def _entity_codes(raws: Sequence[str], raw_codes: dict[str, int], entity_codes: dict[str, int],
                  redirect_map: Mapping[str, str] | None) -> np.ndarray | None:
    """The entity code of each raw id, normalizing the ones not yet in
    ``raw_codes``; None if one of those normalizes to an empty id."""
    for raw in dict.fromkeys(raws):
        if raw not in raw_codes:
            try:
                entity = normalize_entity(raw, redirect_map)
            except ValueError:
                return None
            if not entity:
                return None
            raw_codes[raw] = entity_codes.setdefault(entity, len(entity_codes))
    return np.fromiter(map(raw_codes.__getitem__, raws), dtype=np.intp, count=len(raws))


def _raise_first_bad_line(block: list[str], start: int,
                          redirect_map: Mapping[str, str] | None) -> None:
    """Raise MalformedRecordError for the first bad line of a dump's block
    whose first line is line ``start + 1``: the wrong field count, then a
    bad offset, then an entity id that normalizes to nothing."""
    for lineno, line in enumerate(block, start=start + 1):
        if line == "\n":
            continue
        doc_id, offset, _, raw = _split_line(line, lineno, 4)
        parse_offset(offset, lineno)
        try:
            entity = normalize_entity(raw, redirect_map)
        except ValueError:
            raise MalformedRecordError(lineno, "empty entity id") from None
        problem = _annotation_problem(doc_id, int(offset), entity)
        if problem:
            raise MalformedRecordError(lineno, problem)
    raise AssertionError("a block that failed its bulk check holds no bad line")


def write_annotations(rows: Iterable[tuple[str, int, str, str]], path: str | Path) -> None:
    """Write an annotation dump, one line per row ``(doc_id, offset,
    surface, entity_id)`` in the layout ``read_annotations`` reads. The
    first row with a negative offset or an empty entity id raises
    ValueError, and so does a field that ``write_tsv`` refuses, before the
    file is opened."""
    lines = []
    for doc_id, offset, surface, entity_id in rows:
        if offset < 0 or not entity_id:
            raise ValueError(_annotation_problem(doc_id, offset, entity_id))
        lines.append((doc_id, str(offset), surface, entity_id))
    write_tsv(lines, path)


def validate_annotations(annotations: KeyedRows, codes: MentionCodes, corpus: Corpus) -> None:
    """Check that every annotation fits inside its document: the first that
    does not, in line order, raises ValueError, or KeyError if its document
    is not in the corpus."""
    doc, offset, surface = codes.columns()
    doc_lengths = np.full(len(codes.docs), -1, dtype=np.int64)
    for doc_id, code in codes.docs.items():
        try:
            doc_lengths[code] = len(corpus.get(doc_id).text)
        except KeyError:
            pass
    surface_lengths = np.fromiter(map(len, codes.surfaces), dtype=np.int64,
                                  count=len(codes.surfaces))
    past_end = offset + surface_lengths[surface] > doc_lengths[doc]
    bad = np.flatnonzero(past_end[annotations.keys])
    if len(bad):
        [(doc_id, offset, surface)] = codes.mentions([annotations.keys[bad[0]]])
        corpus.get(doc_id)
        raise ValueError(f"annotation {surface!r} at {doc_id}:{offset} extends past document end")


_CONFLICT_RESOLUTION = {
    AlignPolicy.EXACT: "exact alignment keeps each key's first entity",
    AlignPolicy.OVERLAP: "overlap alignment tries each key's first entity first",
}


def _warn_conflicts(dumps: Sequence[KeyedRows], policy: AlignPolicy) -> None:
    """Warn with the number of (system, key) pairs where one system links the
    same (document, offset, surface) key to different entities."""
    conflicts = 0
    for dump in dumps:
        order = np.lexsort((dump.values, dump.keys))
        keys, entities = dump.keys[order], dump.values[order]
        clashed = keys[1:][(keys[1:] == keys[:-1]) & (entities[1:] != entities[:-1])]
        if len(clashed):
            conflicts += 1 + int(np.count_nonzero(clashed[1:] != clashed[:-1]))
    if conflicts:
        log.warning("%d (document, offset, surface) keys are linked to different entities by "
                    "the same system; %s", conflicts, _CONFLICT_RESOLUTION[policy])


def _align_exact(dumps: Sequence[KeyedRows], codes: MentionCodes
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The keys every dump holds, each with every dump's first entity."""
    # each dump's first entity per key code, -1 where it lacks the key
    firsts = np.full((len(dumps), len(codes.keys)), -1, dtype=np.intp)
    for first, dump in zip(firsts, dumps):
        keys, rows = np.unique(dump.keys, return_index=True)
        first[keys] = dump.values[rows]
    common = np.flatnonzero((firsts >= 0).all(axis=0))
    return common, firsts[:, common].T


def _align_overlap(dumps: Sequence[KeyedRows], codes: MentionCodes
                   ) -> tuple[np.ndarray, np.ndarray]:
    # Greedy left-to-right in the first system's order; each annotation joins
    # at most one group. An exact (offset, surface) twin is preferred over the
    # first merely-overlapping candidate so that every EXACT group survives
    # under the OVERLAP policy. Anchors come in offset order, so a candidate
    # that is used or ends at or before one anchor's offset can never join a
    # later group: each other system keeps a start pointer past the prefix of
    # such candidates, and a scan stops at the first candidate starting at or
    # after the anchor's end. One np.lexsort puts every key in (document,
    # offset, length, surface) order; each system's lines follow it by a
    # stable argsort and are cut into per-document int lists.
    key_docs, key_starts, key_surfaces = codes.columns()
    key_docs = _ranks(codes.docs)[key_docs]
    key_lengths = np.fromiter(map(len, codes.surfaces), dtype=np.int64,
                              count=len(codes.surfaces))[key_surfaces]
    key_ends = key_starts + key_lengths
    # every key's place in (document, offset, length, surface) order
    key_places = np.empty(len(codes.keys), dtype=np.intp)
    key_places[np.lexsort((_ranks(codes.surfaces)[key_surfaces], key_lengths, key_starts,
                           key_docs))] = np.arange(len(codes.keys))
    del key_lengths
    doc_starts = np.arange(len(codes.docs) + 1)
    lanes = []
    for dump in dumps:
        order = np.argsort(key_places[dump.keys], kind="stable")
        keys = dump.keys[order]
        bounds = np.searchsorted(key_docs[keys], doc_starts).tolist()
        lanes.append((bounds, keys, dump.values[order]))
    anchor_bounds = lanes[0][0]
    aligned_keys, aligned_entities = array("q"), array("q")
    for doc in range(len(codes.docs)):
        if anchor_bounds[doc] == anchor_bounds[doc + 1]:
            continue
        per_system = []
        for bounds, keys, entities in lanes:
            rows = slice(bounds[doc], bounds[doc + 1])
            keys = keys[rows]
            per_system.append((keys.tolist(), key_starts[keys].tolist(), key_ends[keys].tolist(),
                               key_surfaces[keys].tolist(), entities[rows].tolist()))
        anchors, *others = per_system
        lanes_here = []
        for _, starts, ends, surfaces, entities in others:
            # twins are adjacent in sorted order: keep the first position
            twins: dict[tuple[int, int], int] = {}
            for pos, twin in enumerate(zip(starts, surfaces)):
                twins.setdefault(twin, pos)
            lanes_here.append((starts, ends, surfaces, entities, twins, [False] * len(starts)))
        firsts = [0] * len(lanes_here)
        for key, lo, hi, surface, entity in zip(*anchors):
            spans = [(lo, hi)]
            group = [entity]
            for k, (starts, ends, surfaces, entities, twins, used) in enumerate(lanes_here):
                start, size = firsts[k], len(used)
                while start < size and (used[start] or ends[start] <= lo):
                    start += 1
                firsts[k] = start
                candidate = twins.get((lo, surface))
                while candidate is not None and used[candidate]:
                    candidate += 1
                    if (candidate == size or starts[candidate] != lo
                            or surfaces[candidate] != surface):
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
                group.append(entities[candidate])
            else:
                aligned_keys.append(key)
                aligned_entities.extend(group)
    return (np.frombuffer(aligned_keys, dtype=np.int64).astype(np.intp),
            np.frombuffer(aligned_entities, dtype=np.int64).astype(np.intp).reshape(-1, len(dumps)))


@dataclass(frozen=True, eq=False)
class LabelledRows:
    """Labelled mentions as int columns, one row per labels line: each row's
    key code (``MentionCodes.key``), class index (``CLASS_ORDER``) and
    entity-tuple code. ``entities[t]`` holds tuple ``t``'s entity codes, one
    per system."""

    keys: np.ndarray
    labels: np.ndarray
    tuples: np.ndarray
    entities: list[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.keys)


def align(dumps: Sequence[KeyedRows], codes: MentionCodes,
          policy: AlignPolicy = AlignPolicy.EXACT) -> LabelledRows:
    """Group the mentions recognised by all systems into rows, each
    labelled by its entities, in (doc, offset, surface) order.

    EXACT groups annotations whose (doc, offset, surface) coincide across
    every system. OVERLAP groups annotations whose spans pairwise overlap in
    the same document, greedily left to right, taking surface and offset
    from the first system. Mentions missed by any system are dropped.
    """
    if len(dumps) < 2:
        raise ValueError("alignment needs annotation sets from at least 2 systems")
    if policy not in _CONFLICT_RESOLUTION:
        raise ValueError(f"unknown alignment policy {policy!r}")
    _warn_conflicts(dumps, policy)
    aligner = _align_exact if policy is AlignPolicy.EXACT else _align_overlap
    keys, entities = aligner(dumps, codes)
    order = codes.order(keys)
    # entity tuples coded in first-seen order, as read_labels codes them
    distinct: dict[tuple[int, ...], int] = {}
    tuples = np.array([distinct.setdefault(row, len(distinct))
                       for row in map(tuple, entities[order].tolist())], dtype=np.intp)
    classes = np.array([CLASS_INDEX[label(row)] for row in distinct], dtype=np.int8)
    return LabelledRows(keys[order], classes[tuples], tuples, list(distinct))


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


def class_distribution(labels: np.ndarray) -> ClassDistribution:
    """Counts and fractions of a column of class indices (``CLASS_ORDER``)."""
    counts = dict(zip(CLASS_ORDER, np.bincount(labels, minlength=len(CLASS_ORDER)).tolist()))
    total = len(labels)
    fractions = {lbl: counts[lbl] / total for lbl in CLASS_ORDER} if total else None
    return ClassDistribution(counts=counts, fractions=fractions, total=total)


def write_labels(rows: LabelledRows, codes: MentionCodes, path: str | Path) -> None:
    """Write the label file: ``doc_id offset surface label e1,...,en`` (tabs),
    one line per row, joined from the interned key texts and the entity
    tuples' texts a chunk at a time. A field holding a tab or line break
    raises ValueError naming it, as ``write_tsv`` does, before the file is
    opened."""
    key_texts = list(codes.keys)
    names = list(codes.entities)
    tuple_texts = [",".join([names[e] for e in entities]) for entities in rows.entities]
    values = [lbl.value for lbl in CLASS_ORDER]
    texts = []
    for first in range(0, len(rows), _WRITE_CHUNK):
        chunk = slice(first, first + _WRITE_CHUNK)
        keys, labels, tuples = (column[chunk].tolist()
                                for column in (rows.keys, rows.labels, rows.tuples))
        text = "\n".join([f"{key_texts[k]}\t{values[c]}\t{tuple_texts[t]}"
                          for k, c, t in zip(keys, labels, tuples)])
        texts.append(_checked_text(text, len(keys), 4 * len(keys), first + 1, lambda: (
            (doc_id, str(offset), surface, values[c], tuple_texts[t])
            for (doc_id, offset, surface), c, t in zip(codes.mentions(keys), labels, tuples))))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(texts)


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
