"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

Run from the root of a checkout:

    python3 bench/smoke_test.py

It passes when every metric that BENCHMARK.json names is printed with its
unit, no operation fails, the per-layer self times sum to no more than the
traced wall time, and the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


class SmokeTest(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def result(self, workload: str, trace: int) -> dict:
        proc = run_benchmark(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(result["failed"], 0, proc.stderr[-3000:])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        listed = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual({m["name"]: m["unit"] for m in listed},
                         {name: m["unit"] for name, m in result["metrics"].items()})
        return result["metrics"]

    def test_untraced_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.result(workload, 0)
                self.assertTrue(all(m["value"] > 0 for m in metrics.values()), metrics)

    def test_traced_self_times_fit_in_wall_time(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.result(workload, 1)
                self_times = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
                self.assertGreater(self_times, 0.0)
                self.assertLessEqual(self_times, metrics["trace.wall_s"]["value"])

    def test_refuses_to_run_without_sources(self):
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_benchmark(Path(tmp), "learn", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
