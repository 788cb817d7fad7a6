"""Output checks: every command's files exist, parse, agree on row counts and
meet the quality floors. A command with any problem is a failed operation."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import SYSTEMS, VARIANTS, Size

#: Share of embed feature rows whose mention word has neighbour sets in two
#: consecutive slices; between 0.73 and 0.82 on every seed tried.
STABILITY_PRESENT_FLOOR = 0.5

#: The synthetic labels carry little signal: every candidate count has EASY
#: as its most frequent class, so the best classifier predicts EASY
#: everywhere and scores exactly the majority-class macro F1. The forest
#: scores 1.05 to 1.29 times that on every seed tried. The floor catches a
#: model that predicts systematically wrong classes, not a small loss.
FOREST_FLOOR_VS_MAJORITY = 0.9

LABELS = ("HARD", "MEDIUM", "EASY")


def _lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def _labels(out: Path) -> list[list[str]]:
    return [line.split("\t") for line in _lines(out / "labels.tsv")]


def check_label(out: Path) -> list[str]:
    rows = _labels(out)
    problems = []
    if not rows:
        problems.append("labels.tsv is empty")
    bad = [r for r in rows if len(r) != 5 or r[3] not in LABELS
           or len(r[4].split(",")) != len(SYSTEMS)]
    if bad:
        problems.append(f"labels.tsv has {len(bad)} malformed rows")
    dist = dict(line.split("\t", 1) for line in _lines(out / "label_distribution.txt"))
    if int(dist.get("total", -1)) != len(rows):
        problems.append(f"label_distribution total {dist.get('total')} != {len(rows)} labels")
    return problems


def check_vectors(path: Path, dim: int) -> list[str]:
    """A slice model holds one finite, non-zero vector of ``dim`` values per word."""
    with open(path, encoding="utf-8") as fh:
        n_words, file_dim = (int(x) for x in fh.readline().split(" ")[:2])
        rows = [line.split(" ") for line in fh]
    words = [r[0] for r in rows]
    vectors = np.array([[float(x) for x in r[1:]] for r in rows])
    if file_dim != dim or len(rows) != n_words or len(set(words)) != n_words:
        return [f"{path.name} does not hold {n_words} distinct words of dimension {dim}"]
    if vectors.shape != (n_words, dim) or not np.all(np.isfinite(vectors)) \
            or not np.all(np.linalg.norm(vectors, axis=1) > 0):
        return [f"{path.name} has non-finite or zero vectors"]
    return []


def check_features(out: Path, workload: str, size: Size) -> list[str]:
    from eldiff.features import FEATURE_COLUMNS, FeatureSchema

    problems = []
    columns = (FEATURE_COLUMNS if workload == "embed"
               else FeatureSchema.simulation_preset().columns)
    with open(out / "features.csv", encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    if not records or records[0] != [*columns, "label"]:
        return ["features.csv has an unexpected header"]
    labels = _labels(out)
    if len(records) - 1 != len(labels):
        problems.append(f"features.csv has {len(records) - 1} rows for {len(labels)} labels")
    elif any(len(r) != len(columns) + 1 or r[-1] != lab[3]
             for r, lab in zip(records[1:], labels)):
        problems.append("features.csv rows disagree with labels.tsv")
    if workload == "embed" and not problems:
        vec_files = sorted((out / "embeddings").glob("*.vec"))
        if len(vec_files) != size.years:
            problems.append(f"{len(vec_files)} slice models for {size.years} yearly slices")
        for path in vec_files:
            problems.extend(check_vectors(path, size.embed_dim))
        j = columns.index("t_j_min")
        stability = [[float(x) for x in r[j:j + 3]] for r in records[1:] if r[j]]
        if any(not 0.0 <= lo <= avg <= hi <= 1.0 for lo, hi, avg in stability):
            problems.append("stability values outside 0 <= min <= avg <= max <= 1")
        share = len(stability) / (len(records) - 1)
        if share < STABILITY_PRESENT_FLOOR:
            problems.append(f"stability present for {share:.3f} of rows, below the floor "
                            f"{STABILITY_PRESENT_FLOOR}")
    return problems


def check_predict(out: Path) -> list[str]:
    labels = _labels(out)
    rows = [line.split("\t") for line in _lines(out / "predictions.tsv")]
    if len(rows) != len(labels):
        return [f"predictions.tsv has {len(rows)} rows for {len(labels)} labels"]
    for r, lab in zip(rows, labels):
        if len(r) != 7 or r[:3] != lab[:3] or r[3] not in LABELS:
            return ["predictions.tsv rows disagree with labels.tsv"]
        probs = [float(p) for p in r[4:]]
        # nine printed digits cannot order probabilities that differ in the
        # last bits, so the label only has to carry a maximal printed value
        if abs(sum(probs) - 1.0) > 1e-6 or probs[LABELS.index(r[3])] < max(probs) - 1e-8:
            return [f"prediction for {r[:3]} is not a distribution with its label as argmax"]
    return []


def check_simulate(out: Path, size: Size) -> list[str]:
    rows = [line.split("\t") for line in _lines(out / "simulation.tsv")[2:]]
    strategies = ("difficult", "pred_difficult", "random", "candidates")
    budgets = len(size.budgets.split(","))
    if len(rows) != len(SYSTEMS) * len(strategies) * budgets:
        return [f"simulation.tsv has {len(rows)} rows"]
    gain = {(r[0], r[1], r[2]): float(r[4]) - float(r[3]) for r in rows}
    problems = []
    for system, strategy, budget in gain:
        if strategy == "difficult" and gain[(system, strategy, budget)] < gain[(system, "random", budget)]:
            problems.append(f"{system} at budget {budget}: difficult gain below random gain")
    return problems


def majority_macro_f1(table: Path) -> float:
    """Macro F1 of always predicting the most frequent class of the table."""
    with open(table, encoding="utf-8", newline="") as fh:
        labels = [r[-1] for r in list(csv.reader(fh))[1:]]
    top = max(labels.count(label) for label in LABELS)
    return 2 * top / (len(labels) + top) / len(LABELS)


def check_eval(out: Path, table: Path, size: Size) -> list[str]:
    cells = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))["cells"]
    if sorted((c["variant"], c["balanced"]) for c in cells) != sorted(
            (v, b) for v in VARIANTS for b in (False, True)):
        return ["eval_report.json does not hold every variant x balancing cell"]
    if any(c["folds"] != size.folds or len(c["fold_macro_f1"]) != size.folds for c in cells):
        return ["eval_report.json has the wrong number of folds"]
    if not (out / "eval_report.txt").read_text(encoding="utf-8").strip():
        return ["eval_report.txt is empty"]
    forest = next(c for c in cells if c["variant"] == "random_forest" and not c["balanced"])
    f1, floor = forest["report"]["macro"]["f1"], FOREST_FLOOR_VS_MAJORITY * majority_macro_f1(table)
    if not f1 >= floor:
        return [f"forest macro F1 {f1:.4f} below the floor {floor:.4f}"]
    return []


def check_train(out: Path, size: Size) -> list[str]:
    model = json.loads((out / "model.json").read_text(encoding="utf-8"))
    body = model.get("random_forest", {})
    if model.get("format") != "eldiff-classifier" or len(body.get("trees", ())) != size.train_trees:
        return ["model.json is not a forest of the requested size"]
    return []


def check_importance(out: Path, table: Path) -> list[str]:
    with open(table, encoding="utf-8") as fh:
        n_columns = len(fh.readline().split(",")) - 1
    rows = [line.split("\t") for line in _lines(out / "mdi.tsv")]
    if rows[0] != ["feature", "mdi", "normalized"] or len(rows) != n_columns + 1:
        return ["mdi.tsv does not rank every feature"]
    if max(float(r[2]) for r in rows[1:]) != 1.0:
        return ["mdi.tsv is not normalised to its maximum"]
    return []


def check_correlate(out: Path) -> list[str]:
    rows = [line.split("\t") for line in _lines(out / "pearson.tsv") if not line.startswith("#")]
    names = rows[0][1:]
    if len(rows) != len(names) + 1 or any(len(r) != len(names) + 1 for r in rows):
        return ["pearson.tsv is not a square matrix"]
    for i, r in enumerate(rows[1:]):
        value = float(r[i + 1])
        if not (math.isnan(value) or value == 1.0):
            return ["pearson.tsv diagonal is not 1"]
    return []


def check(workload: str, command: str, out: Path, inputs: Path, size: Size) -> list[str]:
    """Problems with the outputs of one command; empty when it succeeded."""
    try:
        if command == "label":
            return check_label(out)
        if command == "features":
            return check_features(out, workload, size)
        if command == "predict":
            return check_predict(out)
        if command == "simulate":
            return check_simulate(out, size)
        if command == "eval":
            return check_eval(out, inputs / "features.csv", size)
        if command == "train":
            return check_train(out, size)
        if command == "importance":
            return check_importance(out, inputs / "features.csv")
        if command == "correlate":
            return check_correlate(out)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        return [f"malformed or missing output: {type(exc).__name__}: {exc}"]
    return [f"no check for command {command!r}"]
