"""The host's speed, measured while a timed section runs, and times adjusted to
a fixed reference speed.

The benchmark runs on shared virtual machines, where a timed section is slowed
in two ways that have nothing to do with the program. The core runs slower
while other tenants load the host, by up to a factor of two within seconds;
and the hypervisor takes the virtual CPU away for a while (steal time), which
added 0 to 1.8 s to repetitions of about 4 s. Raw times of the same code then
spread more from run to run than the regressions the benchmark must catch.

So each timed section is measured with two corrections:

- Steal time: the benchmark pins itself to one CPU (``pin``), and the steal
  time the kernel counts for that CPU during the section is taken out.
- Core speed: a ``SIGALRM`` every ``PERIOD_S`` seconds of wall time runs
  ``probe``, a fixed piece of Python and numpy work of about half a
  millisecond that uses no eldiff code, twice. The first run refills the
  caches and branch predictors the program has taken over; the CPU time of
  the second is the core's speed. (Timed cold, the probe took 13–15 % longer
  after the program had evicted the caches, so its time would depend on
  the program's memory footprint.) The mean over the section is the core's
  speed during it. A calibration loop run before and after a section misses
  the swings inside it.

``adjust`` turns a measured time into the time at the reference speed, at
which one probe takes ``REFERENCE_PROBE_S``:

    adjusted = (measured - stolen - time in probes) * REFERENCE_PROBE_S / mean probe time

The probes take about 1 % of the section. Signal handlers run only in the
main thread between bytecodes, so a probe never runs inside a numpy call and
never concurrently with the program; the collector is off during a probe, so
a collection of the program's objects is never charged to the probe.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
#: The probe's CPU time on this benchmark's reference host (a quiet core of
#: an "Intel(R) Xeon(R) Processor" virtual machine, Python 3.11, numpy 2).
REFERENCE_PROBE_S = 0.0005

_WORDS = [f"w{i}" for i in range(97)]
_RNG = np.random.default_rng(0)
_ROWS = _RNG.standard_normal((20, 50))
_START = _RNG.standard_normal(50)


def probe() -> float:
    """A fixed mix of the work eldiff does on a few kilobytes of data: dict
    counting and sorting of strings, and small-vector numpy updates as in
    skip-gram training."""
    counts: dict[str, int] = {}
    for _ in range(8):
        for i, word in enumerate(_WORDS):
            counts[word] = counts.get(word, 0) + i
    ranked = sorted(counts.items(), key=lambda kv: (kv[1] % 13, kv[0]))
    vec = _START
    for i in range(75):
        row = _ROWS[i % 20]
        vec = vec + 0.001 / (1.0 + np.exp(-(row @ vec))) * row
    return len(ranked) + float(vec[0])


class Sampler:
    """Runs ``probe`` twice every ``PERIOD_S`` seconds between ``start`` and
    ``stop``; keeps the CPU time of each second run in ``times`` and the
    CPU time of all runs in ``spent``."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.process_time()
        probe()
        timed = time.process_time()
        probe()
        end = time.process_time()
        self.times.append(end - timed)
        self.spent += end - start
        if enabled:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def pin() -> int:
    """Pin this process, and the processes it starts, to one CPU, so that
    the steal time of that CPU is the steal time of the benchmark."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def stolen_s() -> float:
    """Seconds the hypervisor has taken from the CPUs this process may run
    on since boot, from ``/proc/stat``; 0 where that is not available."""
    cpus = {f"cpu{c}" for c in os.sched_getaffinity(0)}
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = sum(int(fields[8]) for fields in map(str.split, fh) if fields[0] in cpus)
    except (OSError, IndexError, ValueError):
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


def adjust(measured: float, stolen: float, probe_spent: float, probe_times: list[float]) -> float:
    """``measured`` seconds at the reference speed: minus the stolen time and
    the time spent in probes inside it, scaled by the speed the probes saw."""
    own = measured - stolen - probe_spent
    if not probe_times:
        return own
    return own * REFERENCE_PROBE_S / statistics.fmean(probe_times)
