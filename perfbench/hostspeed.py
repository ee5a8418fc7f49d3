"""Timings corrected for the speed the host gives the benchmark's process.

On a shared host the core this process runs on may be contended by other
tenants: a fixed pure-Python loop then takes up to about twice as long, for
stretches from a fraction of a second to minutes, mostly with no steal
time recorded.  Interpreter-bound code slows by the same factor, so raw wall
times spread by more than their bound from one run to the next while the
work done is the same.

HostSpeed runs a short fixed probe loop on a SIGALRM timer every few
milliseconds, in the benchmark's own thread, and records how long each probe
took.  The slowdown s of a slice of work is the time of the probe that ends
it over REF_S, the probe's time on an uncontended core.  A workload whose
uncontended time is T, of which a share h slows as the probe does (the rest,
such as large memory-bound array operations, does not), takes
T * (1 + h * (s - 1)); each slice is divided by that factor.  The probes'
own time is excluded from raw and corrected times alike.

The hypervisor may also stop the vCPU outright.  That time is counted as
steal in /proc/stat, at 10 ms resolution; it is read at both ends of each
timed interval, subtracted from the interval's corrected time, and printed.
A probe that a stop falls into reads very slow, so each slice uses the
median of the probes around it.

REF_S was measured on the host the benchmark was defined on (a 2-vCPU Intel
Xeon at 2.0 GHz, Python 3.11): the fastest of some 26,000 probes over five
runs.  It is a constant rather than each run's fastest probe because a run
can stay contended from start to end.  A corrected time reads as seconds on
that host's uncontended core.  Each workload's h is measured with
calibrate.py and stored in workloads.py.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
from fractions import Fraction
from time import perf_counter, process_time

INTERVAL_S = 0.005
REF_S = 0.187e-3
WINDOW = 2  # probes on each side of the one that ends a slice
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """Time the hypervisor has kept this machine's vCPUs stopped, in total."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) * _TICK_S
    except (OSError, IndexError, ValueError):
        return 0.0


def probe() -> Fraction:
    s = Fraction(0)
    for i in range(1, 80):
        s += Fraction(1, i % 13 + 1)
    return s


class HostSpeed:
    """Probe samples over a block; raw and corrected times of intervals in it."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts = []  # perf_counter at each probe's start
        self.ends = []
        self.cpu = []  # cumulative process CPU time spent in probes
        self._cpu_total = 0.0
        self._old = None

    def _tick(self, signum, frame):
        c0 = process_time()
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._cpu_total += process_time() - c0
        self.cpu.append(self._cpu_total)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def probe_times(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def probe_cpu(self, t0: float, t1: float) -> float:
        """Process CPU time the probes took between t0 and t1."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        if j == i:
            return 0.0
        return self.cpu[j - 1] - (self.cpu[i - 1] if i else 0.0)

    def times(self, t0: float, t1: float, share: float, steal: float = 0.0):
        """(raw, corrected) time of the work between t0 and t1, of which the
        vCPU was stopped for steal seconds.

        Each slice of work is corrected by the probes around the one that
        ends it; the slice after the last probe in [t0, t1) uses the next
        probe after t1, or the last one if there is none."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        raw = corrected = 0.0
        prev = t0
        for k in range(i, j):
            work = self.starts[k] - prev
            raw += work
            corrected += work / self._factor(k, share)
            prev = self.ends[k]
        work = t1 - prev
        raw += work
        k = j if j < len(self.starts) else j - 1
        corrected += work / self._factor(k, share) if k >= 0 else work
        return raw, corrected * max(raw - steal, 0.0) / raw

    def _factor(self, k: int, share: float) -> float:
        lo, hi = max(k - WINDOW, 0), min(k + WINDOW + 1, len(self.starts))
        probe_s = statistics.median(self.ends[n] - self.starts[n] for n in range(lo, hi))
        return 1.0 + share * (probe_s / REF_S - 1.0)
