"""Measure how much of a workload's time slows with the host, for hostspeed.py.

    python3 perfbench/calibrate.py --workload ray30-u --seconds 120

Repeats set-up and pipeline run, untraced, for the given time while the host
probe runs.  For set-ups and runs apart it fits t = a + b * s, where t is
the raw time less vCPU steal and s the mean probe slowdown over the
interval (probe time over REF_S), and prints the share b / (a + b) of the
uncontended time a + b that slows with the probe.  That share is the
workload's `host_share` in workloads.py.  The fit needs s to vary over the
run, so run it while the host is contended.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
from time import perf_counter

import run


def fit(rows):
    """(uncontended time, share, correlation) of raw = a + b * s."""
    xs = [s for _, s in rows]
    ys = [raw for raw, _ in rows]
    b, a = statistics.linear_regression(xs, ys)
    return a + b, b / (a + b), statistics.correlation(xs, ys)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=120.0)
    args = p.parse_args(argv)

    run.cap_threads()
    run.use_checkout_src()
    from hostspeed import HostSpeed, steal_s
    from tracer import Tracer
    from workloads import WORKLOADS

    workdir = run.WORK / f"calibrate-{args.workload}"
    workdir.mkdir(parents=True)
    off = Tracer(enabled=False)
    rows = {"setup": [], "op": []}
    try:
        wl = WORKLOADS[args.workload](args.seed, str(workdir))
        with run.Run(wl), HostSpeed() as hs:
            start = perf_counter()
            while perf_counter() - start < args.seconds:
                for kind, fn in (("setup", wl.setup), ("op", wl.op)):
                    s0, t0 = steal_s(), perf_counter()
                    fn(off)
                    steal = steal_s() - s0
                    raw, scaled = hs.times(t0, perf_counter(), 1.0, steal)
                    if scaled:  # else the vCPU was stopped throughout
                        rows[kind].append((raw - steal, (raw - steal) / scaled))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    for kind, pairs in rows.items():
        out = {"workload": args.workload, "part": kind, "n": len(pairs),
               "s_range": [min(s for _, s in pairs), max(s for _, s in pairs)]}
        if len(pairs) > 2:
            t, share, r = fit(pairs)
            out.update(uncontended_s=t, host_share=share, r=r)
        print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
