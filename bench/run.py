#!/usr/bin/env python3
"""The eldiff benchmark: one workload, one seed, one measured run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {learn,embed,route} --seed N --seconds S --trace {0,1}

Set-up makes the workload's inputs from the seed at least three times, and
for at least three seconds, and reports the median time as ``setup_s``.
Then a fresh worker process runs the workload's command sequence once to
warm up, and again and again until ``--seconds`` are used up (at least three
times). Every command's outputs are checked; a command that exits non-zero,
leaves missing, malformed or inconsistent outputs, or misses a quality
floor is a failed operation. With ``--trace 0`` the end-to-end metrics are
medians over the timed repetitions. The benchmark runs pinned to one CPU,
and set-up and the timed repetitions run with speed probes (``pace.py``):
their times are reported without the CPU's steal time and at the reference
host speed, and the measured times are printed too. With ``--trace 1`` one
more repetition runs with spans around eldiff's public functions, and the
per-layer metrics come from it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give the machine, the traffic shape, the byte-identity of the outputs
against the recorded reference (``drift``) and every metric with its unit.

``--tiny`` runs every workload at a size that takes seconds (for the smoke
test). ``--record`` stores the sha256 of this run's outputs as the reference
for this workload and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import metrics
import pace
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "expected_sha256.json"

SETUP_RUNS = 3
SETUP_MIN_S = 3.0
MIN_REPS = 3
REP_TIMEOUT_S = 150


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help=f"workload seed (default {workloads.DEFAULT_SEED}; "
                             f"holdout {workloads.HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--record", action="store_true",
                        help="store this run's output hashes as the reference")
    return parser.parse_args(argv)


def machine_facts(pinned_cpu: int) -> dict:
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": "unknown",
        "openblas_threads": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "unknown")
    except OSError:
        pass
    try:
        facts["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                facts["openblas_threads"] = getattr(lib, symbol)()
                break
    return facts


def output_hashes(out: Path) -> dict[str, str]:
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def drift_lines(workload: str, seed: int, hashes: dict[str, str]) -> list[str]:
    """Byte-identity of the outputs against the recorded reference. A change
    here is expected when a format or numeric result changes on purpose, so
    it is reported, not counted as a failure."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    expected = reference.get(workload, {}).get(str(seed))
    if expected is None:
        return [f"drift {workload} seed {seed}: no reference recorded for this seed"]
    lines = []
    for name in sorted(set(expected) | set(hashes)):
        if expected.get(name) != hashes.get(name):
            state = "missing" if name not in hashes else "new" if name not in expected else "differs"
            lines.append(f"drift {workload} seed {seed}: {name} {state}")
    identical = sum(1 for name in hashes if expected.get(name) == hashes[name])
    lines.append(f"drift {workload} seed {seed}: {identical}/{len(expected)} files byte-identical "
                 "to the reference")
    return lines


def record_reference(workload: str, seed: int, hashes: dict[str, str]) -> None:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    reference.setdefault(workload, {})[str(seed)] = hashes
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


class Runner:
    """Runs repetitions of one workload in worker processes and checks them."""

    def __init__(self, workload: str, seed: int, work: Path, size: workloads.Size):
        self.workload, self.size = workload, size
        self.inputs, self.out = work / "inputs", work / "out"
        self.spec_path, self.result_path, self.log_path = (
            work / "spec.json", work / "result.json", work / "worker.log")
        self.commands = workloads.commands(workload, seed, self.inputs, self.out, size)
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def repetition(self, trace: bool) -> dict | None:
        """One run of the command sequence; None when the worker died."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.result_path.unlink(missing_ok=True)
        spec = {"src": str(SRC), "commands": [[str(a) for a in argv] for argv in self.commands],
                "trace": trace, "result": str(self.result_path)}
        self.spec_path.write_text(json.dumps(spec), encoding="utf-8")
        self.attempted += len(self.commands)
        with open(self.log_path, "w", encoding="utf-8") as log:
            try:
                # a fixed hash seed gives every repetition the same set and
                # dict iteration orders, so repetitions do the same work
                subprocess.run([sys.executable, str(BENCH / "worker.py"), str(self.spec_path)],
                               stdout=log, stderr=log, cwd=ROOT, timeout=REP_TIMEOUT_S,
                               check=False, env={**os.environ, "PYTHONHASHSEED": "0"})
            except subprocess.TimeoutExpired:
                pass  # subprocess.run has killed and reaped the worker
        if not self.result_path.exists():
            self.failed += len(self.commands)
            self.problems.append("worker ended without a result:\n" + self.log_path.read_text(
                encoding="utf-8")[-2000:])
            return None
        result = json.loads(self.result_path.read_text(encoding="utf-8"))
        for argv, status in zip(self.commands, result["statuses"]):
            problems = [f"exit status {status}"] if status != 0 else checks.check(
                self.workload, argv[0], self.out, self.inputs, self.size)
            if problems:
                self.failed += 1
                self.problems.extend(f"{argv[0]}: {p}" for p in problems)
        return result


def run(args: argparse.Namespace, work: Path) -> dict:
    import eldiff.cli  # noqa: F401  (imports stay out of the set-up time)

    size = workloads.SIZES[args.workload]["tiny" if args.tiny else "full"]
    runner = Runner(args.workload, args.seed, work, size)

    # fast set-ups repeat until SETUP_MIN_S have passed, so their median
    # rests on enough samples; the probes of all of them give the speed
    setups: list[tuple[float, float, float]] = []  # measured, stolen, in probes
    sampler = pace.Sampler()
    sampler.start()
    try:
        while len(setups) < SETUP_RUNS or sum(t for t, _, _ in setups) < SETUP_MIN_S:
            shutil.rmtree(runner.inputs, ignore_errors=True)
            spent, stolen = sampler.spent, pace.stolen_s()
            start = time.perf_counter()
            workloads.setup(args.workload, args.seed, runner.inputs, size)
            setups.append((time.perf_counter() - start, pace.stolen_s() - stolen,
                           sampler.spent - spent))
    finally:
        sampler.stop()
    setup_times = [pace.adjust(t, stolen, spent, sampler.times) for t, stolen, spent in setups]

    # a warm-up repetition, checked but not timed, lets the first worker's
    # cold start stay out of the medians; its outputs give the traffic shape
    # and the drift hashes
    shape = hashes = None
    if runner.repetition(trace=False) is not None:
        shape = workloads.traffic_shape(args.workload, runner.inputs, runner.out)
        hashes = output_hashes(runner.out)

    reps: list[dict] = []
    attempts = 0
    started = time.perf_counter()
    while True:
        result = runner.repetition(trace=False)
        attempts += 1
        if result is not None:
            reps.append(result)
        elapsed = time.perf_counter() - started
        # stop before a repetition of average length would overrun the budget
        if attempts >= MIN_REPS and (not reps or elapsed * (attempts + 1) / attempts > args.seconds):
            break

    print("machine " + json.dumps(machine_facts(args.pinned_cpu), sort_keys=True))
    if shape is not None:
        print(f"shape {args.workload} seed {args.seed} " + json.dumps(shape, sort_keys=True))
    if hashes is not None and not args.tiny:
        if args.record:
            record_reference(args.workload, args.seed, hashes)
        for line in drift_lines(args.workload, args.seed, hashes):
            print(line)
    print(f"repetitions {len(reps)} untraced in {time.perf_counter() - started:.3f} s, "
          "measured wall " + " ".join(f"{r['wall_s']:.3f}" for r in reps))
    print("repetitions wall at reference speed "
          + " ".join(f"{metrics.wall(r):.3f}" for r in reps))
    print("repetitions stolen " + " ".join(f"{r['stolen_s']:.2f}" for r in reps))
    print("repetitions mean probe ms " + " ".join(
        f"{1000 * statistics.fmean(r['probe_cpu']):.3f}" if r["probe_cpu"] else "-" for r in reps))
    print(f"setup measured {metrics.median([t for t, _, _ in setups]):.6f} s median of "
          f"{len(setups)}, stolen {sum(s for _, s, _ in setups):.2f} s, mean probe ms "
          + (f"{1000 * statistics.fmean(sampler.times):.3f}" if sampler.times else "-"))

    values: dict[str, float] = {}
    units: dict[str, str] = {}
    if reps and shape is not None:
        rows = shape["feature_rows"] if args.workload == "learn" else shape["aligned_mentions"]
        if args.trace:
            traced = runner.repetition(trace=True)
            if traced is not None:
                values = metrics.per_layer(traced["spans"], traced["wall_s"], reps,
                                           runner.commands)
                units = metrics.PER_LAYER
        else:
            values = metrics.end_to_end(setup_times, reps, rows)
            units = metrics.END_TO_END
        for name, seconds in metrics.command_seconds(runner.commands, reps).items():
            print(f"command {name} {seconds:.6f} s (median of {len(reps)})")

    for problem in runner.problems:
        print("FAILED " + problem, file=sys.stderr)
    for name, value in values.items():
        print(f"metric {name} {value:.9g} {units[name]}")
    error_rate = runner.failed / runner.attempted
    print(f"metric error_rate {error_rate:.9g} ratio ({runner.failed}/{runner.attempted} commands)")
    return {
        "correct": runner.failed == 0 and bool(values),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "eldiff" / "cli.py").is_file():
        print(f"error: the eldiff sources are missing under {SRC}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # set-up, the workers and the steal time they are charged all share one CPU
    args.pinned_cpu = pace.pin()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
