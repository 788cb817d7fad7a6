#!/usr/bin/env python3
"""Time CLI pipelines at growing corpus sizes and record the result as
``SCALE_<pr>.json``.

Usage (from the root of a checkout):

    python3 tools/scale_probe.py --pr N [--shape route|embed|learn] [--docs 70,280,1120]
                                 [--src DIR] [--parent-src DIR] [--name NAME]

For each size it builds inputs at seed 7 with ``bench.workloads.write_inputs``
over a wide vocabulary of seeded pseudo-words, in one of three shapes:

- ``route`` (the default; 70, 280 and 1120 docs): documents of 19 sentences
  of 13 words over 3 topics of 600 words. It runs ``label --policy overlap``,
  ``features --schema simulation``, ``train --trees 25``, ``predict`` and
  ``simulate``.
- ``embed`` (90, 360 and 1440 docs): documents of 5 sentences of 10 words
  over 3 topics of 4,800 words. It runs ``label`` and
  ``features --train-embeddings`` (dimension 50, one epoch, min-count 1)
  with every feature column, so ``t_df`` and stability are computed too.
- ``learn`` (70 and 280 docs; 1120 takes minutes): the route inputs. It runs
  ``label --policy overlap``, ``features --schema simulation`` and the
  paper's cross-validated grid, all four classifiers under both balancings:
  ``eval --variants gaussian_nb,logistic_regression,decision_tree,random_forest
  --balancing both --folds 10 --trees 25``. Learn runs recorded before
  ``SCALE_22.json`` ran the two tree variants only.

The commands run one after another, each in its own child process pinned to
one CPU, importing eldiff from ``--src`` (this checkout's ``src`` by
default). For every command it records the wall seconds, the child's
``ru_maxrss`` and the sha256 of the file it writes; for every size the token
and feature-row counts; and the ratio of each command's time between
neighbouring sizes. The run, with the machine line of ``bench/run.py``, is
stored as ``runs[<shape>][<name>]`` (``--name`` is ``change`` by default) in
``SCALE_<N>.json`` at the root of this checkout, next to any runs already
there, so one file can hold the parent's and the change's runs of both
shapes. Nothing here is gated; the numbers are for reading.

With ``--parent-src DIR``, every command runs twice in turn, once importing
eldiff from ``--src`` and once from ``DIR``, each side writing to its own
output directory from the same inputs. The side that runs first alternates
from command to command and from size to size, so a drift in host speed
over the run loads both sides alike, also at a single size. Each command's
record then holds the ``--src`` side's numbers and, under ``parent``, the
other side's; the ratios are the ``--src`` side's. A line is printed
wherever the two sides' output sha256 differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
TREES = 25
FOLDS = 10
VARIANTS = "gaussian_nb,logistic_regression,decision_tree,random_forest"
BUDGETS = "0.05,0.10,0.15"


def src_digest(src: Path) -> str:
    """sha256 over the relative paths and contents of every ``.py`` file
    under ``src``: equal for any two copies of the same code."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


#: Per shape: the default sizes, and the ``Size`` fields other than ``docs``.
SHAPES = {
    "route": ("70,280,1120", dict(sentences=(19, 19), words=(13, 13))),
    "embed": ("90,360,1440", dict(sentences=(5, 5), words=(10, 10), topic_words=4800,
                                  embed_dim=50)),
    "learn": ("70,280", dict(sentences=(19, 19), words=(13, 13))),
}


def commands(shape: str, inputs: dict[str, Path], out: Path,
             embed_dim: int) -> list[tuple[str, list, Path]]:
    """(name, eldiff argv, the file it writes) for each command, in order."""
    from workloads import SYSTEMS

    ann = [inputs[s] for s in SYSTEMS]
    if shape == "embed":
        return [
            ("label", ["label", "--annotations", *ann, "--corpus", inputs["corpus"],
                       "--out", out, "--seed", SEED],
             out / "labels.tsv"),
            ("features", ["features", "--corpus", inputs["corpus"],
                          "--mentions", out / "labels.tsv", "--candidates", inputs["candidates"],
                          "--annotations", *ann, "--train-embeddings", "--embed-dim", embed_dim,
                          "--embed-epochs", 1, "--embed-min-count", 1, "--out", out,
                          "--seed", SEED],
             out / "features.csv"),
        ]
    routed = [
        ("label", ["label", "--annotations", *ann, "--policy", "overlap",
                   "--corpus", inputs["corpus"], "--out", out, "--seed", SEED],
         out / "labels.tsv"),
        ("features", ["features", "--corpus", inputs["corpus"], "--mentions", out / "labels.tsv",
                      "--candidates", inputs["candidates"], "--annotations", *ann,
                      "--schema", "simulation", "--out", out, "--seed", SEED],
         out / "features.csv"),
    ]
    if shape == "learn":
        return routed + [
            ("eval", ["eval", "--features", out / "features.csv",
                      "--variants", VARIANTS, "--balancing", "both",
                      "--folds", FOLDS, "--trees", TREES, "--out", out, "--seed", SEED],
             out / "eval_report.json"),
        ]
    return routed + [
        ("train", ["train", "--features", out / "features.csv", "--variant", "random_forest",
                   "--trees", TREES, "--out", out, "--seed", SEED],
         out / "model.json"),
        ("predict", ["predict", "--model", out / "model.json", "--features", out / "features.csv",
                     "--mentions", out / "labels.tsv", "--out", out],
         out / "predictions.tsv"),
        ("simulate", ["simulate", "--labels", out / "labels.tsv", "--gold", inputs["gold"],
                      "--candidates", inputs["candidates"], "--predictions",
                      out / "predictions.tsv", "--systems", ",".join(SYSTEMS),
                      "--budgets", BUDGETS, "--out", out, "--seed", SEED],
         out / "simulation.tsv"),
    ]


def run_child(argv: list, src: Path) -> dict:
    """Run one eldiff command in a child process; its wall seconds and peak
    resident memory."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "eldiff.cli", *map(str, argv)], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as child:
        stderr = child.stderr.read()
        # wait4 reaps the child and gives its own resource usage
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        sys.stderr.write(stderr.decode("utf-8", "replace"))
        raise SystemExit(f"eldiff {argv[0]} exited with status {child.returncode}")
    return {"wall_s": round(wall, 3), "maxrss_mb": round(usage.ru_maxrss / 1024, 1)}


def probe_size(shape: str, docs: int, work: Path, sides: dict[str, Path],
               parent_first: bool) -> dict:
    """Run every command of one size, for each side in ``sides`` in turn,
    ``parent`` first at the first command when ``parent_first`` and the
    first side alternating from command to command; the ``change`` side's
    results with the ``parent`` side's nested under ``parent``."""
    from workloads import Size, write_inputs

    size = Size(docs=docs, **SHAPES[shape][1])
    inputs = write_inputs(work / "inputs", SEED, size, wide=True)
    outs = {side: work / f"out_{side}" for side in sides}
    runs = {side: commands(shape, inputs, outs[side], size.embed_dim) for side in sides}
    point = {"docs": docs, "commands": {}}
    for step, (name, _, _) in enumerate(runs["change"]):
        order = ("parent", "change") if parent_first == (step % 2 == 0) else ("change", "parent")
        results = {}
        for side in (side for side in order if side in sides):
            _, argv, written = runs[side][step]
            result = results[side] = run_child(argv, sides[side])
            result["sha256"] = file_sha256(written)
            print(f"{docs} docs  {name:9s} {side:6s} {result['wall_s']:8.2f} s  "
                  f"{result['maxrss_mb']:7.1f} MB", flush=True)
        entry = point["commands"][name] = results["change"]
        if "parent" in results:
            entry["parent"] = results["parent"]
            if entry["parent"]["sha256"] != entry["sha256"]:
                print(f"{docs} docs  {name}: output sha256 differs, parent "
                      f"{entry['parent']['sha256']}, change {entry['sha256']}", flush=True)
    with open(inputs["corpus"], encoding="utf-8") as fh:
        point["tokens"] = sum(len(json.loads(line)["text"].split()) for line in fh)
    with open(outs["change"] / "features.csv", encoding="utf-8") as fh:
        point["feature_rows"] = sum(1 for _ in fh) - 1
    return point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number of the change measured")
    parser.add_argument("--shape", choices=sorted(SHAPES), default="route",
                        help="the inputs and commands measured")
    parser.add_argument("--docs", help="comma-separated corpus sizes (default: the shape's)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory whose eldiff is measured")
    parser.add_argument("--parent-src", type=Path,
                        help="a second src directory, run beside --src command by command")
    parser.add_argument("--name", default="change", help="key of this run in the file")
    args = parser.parse_args(argv)
    sizes = [int(d) for d in (args.docs or SHAPES[args.shape][0]).split(",") if d]
    sides = {"change": args.src.resolve()}
    if args.parent_src is not None:
        sides["parent"] = args.parent_src.resolve()
    for side in sides.values():
        if not (side / "eldiff").is_dir():
            raise SystemExit(f"no eldiff package under {side}")
    src = sides["change"]
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    from run import machine_facts

    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # the children inherit it
    work = ROOT / ".scale_work"
    points = []
    try:
        for index, docs in enumerate(sizes):
            shutil.rmtree(work, ignore_errors=True)
            points.append(probe_size(args.shape, docs, work, sides, index % 2 == 0))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ratios = {
        name: [round(b["commands"][name]["wall_s"] / a["commands"][name]["wall_s"], 2)
               for a, b in zip(points, points[1:])]
        for name in points[0]["commands"]
    }
    path = ROOT / f"SCALE_{args.pr}.json"
    record = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"pr": args.pr}
    run = record.setdefault("runs", {}).setdefault(args.shape, {})[args.name] = {
        "src_sha256": src_digest(src),
        "seed": SEED,
        "machine": machine_facts(cpu),
        "sizes": points,
        "ratios": ratios,
    }
    if "parent" in sides:
        run["parent_src_sha256"] = src_digest(sides["parent"])
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
