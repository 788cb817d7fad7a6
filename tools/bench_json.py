#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as ``BENCH_<pr>.json``.

Usage (from the root of a checkout):

    python3 tools/bench_json.py --pr N

Runs ``bench/run.py --seed 7 --seconds 30 --trace 0`` once for each of the
learn, embed and route workloads, so that every point is taken the same way,
and writes ``BENCH_<N>.json`` at the root of the checkout. Per workload it
keeps the final JSON line (the result), the ``machine`` line and the
``drift`` line. It also records ``git rev-parse HEAD``, whether ``src/`` or
``bench/`` differed from it, and the git tree ids of ``src/`` and ``bench/``
as they were measured: ``git rev-parse <commit>:src`` gives the same id for
any commit that holds the measured code.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("learn", "embed", "route")
ARGS = ("--seed", "7", "--seconds", "30", "--trace", "0")


def run_workload(workload: str) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, *ARGS]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench/run.py --workload {workload} exited with {done.returncode}")
    point = {"command": " ".join(["python3", *argv[1:]]), "result": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("machine "):
            point["machine"] = json.loads(line[len("machine "):])
        elif line.startswith("drift "):
            point["drift"] = line[len("drift "):]
    return point


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number of the change measured")
    args = parser.parse_args(argv)
    if git("ls-files", "--others", "--exclude-standard", "--", "src", "bench"):
        raise SystemExit("untracked files under src/ or bench/: add or remove them first")
    # a commit of the working tree that no ref points to; only its tree ids are kept
    measured = git("stash", "create") or "HEAD"
    record = {
        "pr": args.pr,
        "revision": git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(git("status", "--porcelain", "--", "src", "bench")),
        "trees": {path: git("rev-parse", f"{measured}:{path}") for path in ("src", "bench")},
        "workloads": {w: run_workload(w) for w in WORKLOADS},
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
