"""Synthetic annotation fixtures over a synthetic corpus.

Produces per-system annotation dumps with a controlled agreement mix, a
partial gold standard and a candidate dictionary; backs the bundled
end-to-end fixture and the test suite. Licensed corpora are never shipped,
so this generator is the reference input for pipeline runs.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .consensus import SystemAnnotation, write_annotations
from .corpus import Corpus, GeneratorConfig, generate_synthetic_corpus, write_corpus
from .features import write_candidate_dictionary
from .rand import derive_seed

_WORD = re.compile(r"[A-Za-z]+")
#: The share of word occurrences annotated, the chance that a system misses
#: a site and the share of sites with a gold entity.
_SITE_RATE, _MISS_RATE, _GOLD_RATE = 0.4, 0.08, 0.9
#: The chances of a site where all systems agree and where all but one do;
#: at the rest (0.1) they all disagree.
_EASY_P, _MEDIUM_P = 0.7, 0.2


def _gold_entity(word: str) -> str:
    return f"Ent_{word}"


def _alternates(word: str) -> list[str]:
    # stable per word: between 0 and 5 decoy candidates
    n = zlib.crc32(word.encode("utf-8")) % 6
    return [f"Alt{i}_{word}" for i in range(1, n + 1)]


@dataclass
class AnnotationSuite:
    """Synthetic dumps for every system, gold entries and candidate counts."""

    dumps: dict[str, list[SystemAnnotation]]
    gold: dict[tuple[str, int, str], str]
    candidates: dict[str, int]


def generate_annotations(
    corpus: Corpus,
    seed: int,
    systems: Sequence[str] = ("alpha", "beta", "gamma"),
) -> AnnotationSuite:
    """Annotate word occurrences with a controlled agreement pattern.

    A site has all systems agree, all but one agree, or all disagree, at
    fixed odds; sites whose word lacks enough decoy candidates degrade to the
    nearest feasible pattern. Each system independently misses a site, so
    some mentions are not commonly recognised.
    """
    if len(systems) < 2:
        raise ValueError("need at least 2 systems")
    if len(set(systems)) < len(systems):
        # each name keys one dump: a repeated name would merge two systems
        raise ValueError(f"system names must be distinct, got {list(systems)}")
    rng = np.random.default_rng(derive_seed(seed, "annotations"))
    n_systems = len(systems)
    dumps: dict[str, list[SystemAnnotation]] = {s: [] for s in systems}
    gold: dict[tuple[str, int, str], str] = {}
    vocabulary: set[str] = set()
    for doc in corpus:
        for match in _WORD.finditer(doc.text):
            word = match.group()
            vocabulary.add(word)
            if rng.random() > _SITE_RATE:
                continue
            offset = match.start()
            correct = _gold_entity(word)
            decoys = _alternates(word)
            draw = rng.random()
            if draw < _EASY_P or not decoys:
                # all systems agree; occasionally on the same wrong entity
                agreed = correct
                if decoys and rng.random() < 0.1:
                    agreed = decoys[0]
                entities = [agreed] * n_systems
            elif draw < _EASY_P + _MEDIUM_P or len(decoys) < n_systems - 1:
                entities = [correct] * n_systems
                entities[int(rng.integers(n_systems))] = decoys[int(rng.integers(len(decoys)))]
            else:
                pool = [correct] + decoys[: n_systems - 1]
                order = rng.permutation(n_systems)
                entities = [pool[i] for i in order]
            for system, entity in zip(systems, entities):
                if rng.random() < _MISS_RATE:
                    continue
                dumps[system].append(SystemAnnotation(doc.id, word, offset, entity))
            if rng.random() < _GOLD_RATE:
                gold[(doc.id, offset, word)] = correct
    counts = {word: 1 + len(_alternates(word)) for word in sorted(vocabulary)}
    return AnnotationSuite(dumps=dumps, gold=gold, candidates=counts)


@dataclass
class FixturePaths:
    corpus: Path
    annotations: list[Path]
    candidates: Path
    gold: Path


def write_fixture(
    out_dir: str | Path,
    seed: int,
    corpus_config: GeneratorConfig | None = None,
    systems: Sequence[str] = ("alpha", "beta", "gamma"),
) -> FixturePaths:
    """Generate and write the complete synthetic fixture into a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = corpus_config if corpus_config is not None else GeneratorConfig()
    corpus = generate_synthetic_corpus(config, derive_seed(seed, "corpus"))
    suite = generate_annotations(corpus, seed, systems=systems)

    corpus_path = out / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    annotation_paths = []
    for system in systems:
        path = out / f"{system}.tsv"
        write_annotations(suite.dumps[system], path)
        annotation_paths.append(path)
    candidates_path = out / "candidates.tsv"
    write_candidate_dictionary(suite.candidates, candidates_path)
    gold_path = out / "gold.tsv"
    write_annotations((SystemAnnotation(doc_id, surface, offset, entity)
                       for (doc_id, offset, surface), entity in sorted(suite.gold.items())),
                      gold_path)
    return FixturePaths(
        corpus=corpus_path,
        annotations=annotation_paths,
        candidates=candidates_path,
        gold=gold_path,
    )
