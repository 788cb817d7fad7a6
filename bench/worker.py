"""Run one workload's command sequence in this process and report its cost.

Usage: python3 worker.py SPEC.json

SPEC holds ``src`` (the directory holding the eldiff package), ``commands``
(a list of eldiff argv lists), ``trace`` (true to record spans) and
``result`` (where to write the JSON result). Each command runs through
``eldiff.cli.main`` one after another, as a single caller would run them.
The result holds every command's exit status and wall time, the sequence's
wall and CPU time and the time stolen from its CPU, the process's peak
resident memory and either, untraced, the CPU times of the speed probes that
ran inside the sequence and their total (see ``pace.py``) or, traced, the
spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from eldiff.cli import main as eldiff_main

    from pace import Sampler, stolen_s

    tracer = None
    sampler = Sampler()
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        sampler.start()

    statuses: list[int] = []
    seconds: list[float] = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    stolen = stolen_s()
    start = time.perf_counter()
    for argv in spec["commands"]:
        run = eldiff_main if tracer is None else tracer.span(f"cli.{argv[0]}", eldiff_main)
        t0 = time.perf_counter()
        try:
            # eval prints its grid; the report files are what gets checked
            with contextlib.redirect_stdout(io.StringIO()):
                status = run(argv)
        except Exception:  # a traceback is a failed operation, not a crash of the benchmark
            traceback.print_exc()
            status = -1
        seconds.append(time.perf_counter() - t0)
        statuses.append(status)
    sampler.stop()
    wall = time.perf_counter() - start
    stolen = stolen_s() - stolen
    after = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "statuses": statuses,
        "seconds": seconds,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "stolen_s": stolen,
        "probe_cpu": sampler.times,
        "probe_spent_s": sampler.spent,
    }
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.finish()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
