"""Seeded inputs and command sequences of the three benchmark workloads.

Every workload is a fixed sequence of ``eldiff`` CLI commands over inputs
made in set-up from the workload seed alone, so the same seed always gives
the same inputs. The program sees only the generated files.

- ``learn``: eval, train, importance, correlate on a precomputed 15-column
  feature table. Classifier fitting does nearly all the work.
- ``embed``: label, then features with per-slice skip-gram training, on a
  wide-vocabulary corpus. Skip-gram pairs and neighbour queries dominate.
- ``route``: label (overlap policy), features without embeddings, predict
  with a forest trained in set-up on another seed's table, simulate.
  Corpus scans, model loading and the simulation dominate; nothing is fitted.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 7
HOLDOUT_SEED = 1013
SYSTEMS = ("alpha", "beta", "gamma")
VARIANTS = ("gaussian_nb", "logistic_regression", "decision_tree", "random_forest")

#: The paper's corpora: yearly news slices of about 10^7 tokens and 10^5 words.
PAPER_TOKENS_PER_SLICE = 10 ** 7
PAPER_VOCAB_PER_SLICE = 10 ** 5

WORKLOADS = ("learn", "embed", "route")


@dataclass(frozen=True)
class Size:
    """Input and command sizes of one workload."""

    docs: int
    folds: int = 10
    eval_trees: int = 20
    train_trees: int = 100
    table_embed_dim: int = 25
    topic_words: int = 600
    topics: int = 3
    sentences: tuple[int, int] = (2, 6)
    words: tuple[int, int] = (4, 10)
    years: int = 10
    embed_dim: int = 100
    model_docs: int = 0
    model_trees: int = 100
    budgets: str = "0.05,0.10,0.15"


# Every document of a workload has the same number of sentences and words, so
# that inputs from different seeds are the same size and differ only in
# content; otherwise the seed, not the program, would set the run time.
SIZES: dict[str, dict[str, Size]] = {
    "learn": {
        "full": Size(docs=60, sentences=(4, 4), words=(7, 7), folds=5, eval_trees=5,
                     train_trees=25),
        "tiny": Size(docs=30, folds=3, eval_trees=3, train_trees=5),
    },
    "embed": {
        "full": Size(docs=90, sentences=(5, 5), words=(10, 10), topic_words=300, embed_dim=50),
        "tiny": Size(docs=20, sentences=(2, 4), words=(4, 8), topic_words=20, years=3,
                     embed_dim=10),
    },
    "route": {
        "full": Size(docs=70, sentences=(19, 19), words=(13, 13), model_docs=10,
                     model_trees=30),
        "tiny": Size(docs=10, sentences=(3, 6), words=(4, 8), model_docs=20, model_trees=5),
    },
}


def child_seed(seed: int, tag: str) -> int:
    """A seed for one generator of a workload, independent of the others."""
    return int(np.random.SeedSequence([seed, zlib.crc32(tag.encode("utf-8"))]).generate_state(1)[0])


def run_cli(argv: list[str]) -> int:
    """Run one eldiff command in this process; its stdout is discarded."""
    from eldiff.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main([str(a) for a in argv])


def pseudo_words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """Distinct lowercase letter strings of 4 to 9 characters."""
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words: list[str] = []
    while len(words) < count:
        word = "".join(letters[rng.integers(0, 26, size=int(rng.integers(4, 10)))])
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def corpus_config(size: Size, seed: int, wide: bool):
    """Ten yearly slices; ``wide`` replaces the generator's 14-word default
    vocabulary with ``size.topics`` topics of seeded pseudo-words."""
    from eldiff.corpus import GeneratorConfig

    config = GeneratorConfig(
        n_docs=size.docs,
        start_date=dt.date(2000, 1, 1),
        end_date=dt.date(2000 + size.years - 1, 12, 31),
        sentences_per_doc=size.sentences,
        words_per_sentence=size.words,
    )
    if wide:
        rng = np.random.default_rng(child_seed(seed, "vocabulary"))
        taken: set[str] = set()
        config.topics = {
            f"TOPIC{t}": pseudo_words(rng, size.topic_words, taken) for t in range(size.topics)
        }
    return config


def write_inputs(directory: Path, seed: int, size: Size, wide: bool) -> dict[str, Path]:
    """Generate a corpus and its annotation suite through the public API."""
    from eldiff import synth
    from eldiff.consensus import write_annotations
    from eldiff.corpus import generate_synthetic_corpus, write_corpus
    from eldiff.features import write_candidate_dictionary

    directory.mkdir(parents=True, exist_ok=True)
    config = corpus_config(size, seed, wide)
    corpus = generate_synthetic_corpus(config, child_seed(seed, "corpus"))
    suite = synth.generate_annotations(corpus, seed, systems=SYSTEMS)
    paths = {"corpus": directory / "corpus.jsonl", "candidates": directory / "candidates.tsv",
             "gold": directory / "gold.tsv"}
    write_corpus(corpus, paths["corpus"])
    for system in SYSTEMS:
        paths[system] = directory / f"{system}.tsv"
        write_annotations(suite.dumps[system], paths[system])
    write_candidate_dictionary(suite.candidates, paths["candidates"])
    with open(paths["gold"], "w", encoding="utf-8") as fh:
        for (doc_id, offset, surface), entity in sorted(suite.gold.items()):
            fh.write(f"{doc_id}\t{offset}\t{surface}\t{entity}\n")
    return paths


def dump_paths(paths: dict[str, Path]) -> list[Path]:
    return [paths[s] for s in SYSTEMS]


def _checked(argv: list) -> None:
    status = run_cli(argv)
    if status != 0:
        raise RuntimeError(f"set-up command {argv[0]} exited with status {status}")


def setup(workload: str, seed: int, inputs: Path, size: Size) -> None:
    """Make the workload's inputs, precomputed table and model in ``inputs``."""
    if workload == "learn":
        # the paper's evaluation runs on a full 15-column table with stability
        paths = write_inputs(inputs, seed, size, wide=False)
        _checked(["label", "--annotations", *dump_paths(paths), "--corpus", paths["corpus"],
                  "--out", inputs, "--seed", seed])
        _checked(["features", "--corpus", paths["corpus"], "--mentions", inputs / "labels.tsv",
                  "--candidates", paths["candidates"], "--annotations", *dump_paths(paths),
                  "--train-embeddings", "--embed-dim", size.table_embed_dim,
                  "--embed-epochs", 1, "--embed-min-count", 1, "--out", inputs, "--seed", seed])
    elif workload == "embed":
        write_inputs(inputs, seed, size, wide=True)
    elif workload == "route":
        write_inputs(inputs, seed, size, wide=False)
        # the routing model is trained on another seed's table, as a deployed
        # classifier would be
        model_seed = child_seed(seed, "model")
        model_dir = inputs / "model_inputs"
        paths = write_inputs(model_dir, model_seed, Size(docs=size.model_docs,
                             sentences=size.sentences, words=size.words), wide=False)
        _checked(["label", "--annotations", *dump_paths(paths), "--policy", "overlap",
                  "--out", model_dir, "--seed", model_seed])
        _checked(["features", "--corpus", paths["corpus"], "--mentions", model_dir / "labels.tsv",
                  "--candidates", paths["candidates"], "--annotations", *dump_paths(paths),
                  "--schema", "simulation", "--out", model_dir, "--seed", model_seed])
        _checked(["train", "--features", model_dir / "features.csv", "--variant", "random_forest",
                  "--trees", size.model_trees, "--out", inputs, "--seed", model_seed])
    else:
        raise ValueError(f"unknown workload {workload!r}")


def commands(workload: str, seed: int, inputs: Path, out: Path, size: Size) -> list[list]:
    """The workload's command sequence; each entry is an eldiff argv."""
    paths = {name: inputs / f"{name}.tsv" for name in (*SYSTEMS, "candidates", "gold")}
    paths["corpus"] = inputs / "corpus.jsonl"
    ann = dump_paths(paths)
    if workload == "learn":
        table = inputs / "features.csv"
        return [
            ["eval", "--features", table,
             "--variants", ",".join(VARIANTS),
             "--balancing", "both", "--folds", size.folds, "--trees", size.eval_trees,
             "--out", out, "--seed", seed],
            ["train", "--features", table, "--variant", "random_forest",
             "--trees", size.train_trees, "--out", out, "--seed", seed],
            ["importance", "--model", out / "model.json", "--out", out],
            ["correlate", "--features", table, "--out", out],
        ]
    if workload == "embed":
        return [
            ["label", "--annotations", *ann, "--corpus", paths["corpus"], "--out", out,
             "--seed", seed],
            ["features", "--corpus", paths["corpus"], "--mentions", out / "labels.tsv",
             "--candidates", paths["candidates"], "--annotations", *ann,
             "--train-embeddings", "--embed-dim", size.embed_dim, "--embed-epochs", 1,
             "--embed-min-count", 1, "--out", out, "--seed", seed],
        ]
    if workload == "route":
        return [
            ["label", "--annotations", *ann, "--policy", "overlap", "--corpus", paths["corpus"],
             "--out", out, "--seed", seed],
            ["features", "--corpus", paths["corpus"], "--mentions", out / "labels.tsv",
             "--candidates", paths["candidates"], "--annotations", *ann,
             "--schema", "simulation", "--out", out, "--seed", seed],
            ["predict", "--model", inputs / "model.json", "--features", out / "features.csv",
             "--mentions", out / "labels.tsv", "--out", out],
            ["simulate", "--labels", out / "labels.tsv", "--gold", paths["gold"],
             "--candidates", paths["candidates"], "--predictions", out / "predictions.tsv",
             "--systems", ",".join(SYSTEMS), "--budgets", size.budgets, "--out", out,
             "--seed", seed],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def traffic_shape(workload: str, inputs: Path, out: Path) -> dict[str, float]:
    """Sizes of the inputs and outputs one repetition handles, and the ratio
    of the per-slice sizes to the paper's yearly news slices."""
    import csv
    import re
    from collections import Counter

    from eldiff.corpus import load_corpus

    results = inputs if workload == "learn" else out
    corpus = load_corpus(inputs / "corpus.jsonl")
    tokens: Counter[int] = Counter()
    vocab: dict[int, set[str]] = {}
    for doc in corpus:
        year = doc.publication_date.year
        tokens[year] += len(doc.text.split())
        vocab.setdefault(year, set()).update(re.findall(r"[A-Za-z]+", doc.text))
    labels = [line.split("\t")[3] for line in
              (results / "labels.tsv").read_text(encoding="utf-8").splitlines() if line]
    with open(results / "features.csv", encoding="utf-8", newline="") as fh:
        feature_rows = sum(1 for _ in csv.reader(fh)) - 1
    vocab_sizes = [len(v) for v in vocab.values()]
    tokens_per_slice = sum(tokens.values()) / len(tokens)
    vocab_per_slice = sum(vocab_sizes) / len(vocab_sizes)
    shape = {
        "docs": len(corpus),
        "tokens": sum(tokens.values()),
        "slices": len(tokens),
        "tokens_per_slice": tokens_per_slice,
        "vocab_per_slice_min": min(vocab_sizes),
        "vocab_per_slice_mean": vocab_per_slice,
        "vocab_per_slice_max": max(vocab_sizes),
    }
    for system in SYSTEMS:
        text = (inputs / f"{system}.tsv").read_text(encoding="utf-8")
        shape[f"annotations_{system}"] = text.count("\n")
    shape["aligned_mentions"] = len(labels)
    for label in ("HARD", "MEDIUM", "EASY"):
        shape[label] = labels.count(label)
    shape["feature_rows"] = feature_rows
    shape["tokens_per_slice_vs_paper"] = tokens_per_slice / PAPER_TOKENS_PER_SLICE
    shape["vocab_per_slice_vs_paper"] = vocab_per_slice / PAPER_VOCAB_PER_SLICE
    return shape
