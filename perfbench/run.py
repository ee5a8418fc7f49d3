"""rotspec benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload cube6-o2 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from its src/.
--trace 0 times the pipeline with tracing off and prints the end-to-end
metrics, corrected for the host's speed (hostspeed.py).  --trace 1 times it
untraced for half the time, then makes one traced pass (set-up, one
pipeline run, checks) and the bilinear-form probes, and prints the
per-layer metrics.

Earlier lines of stdout give the environment, the workload's parameters,
each check's worst value next to its tolerance, the timing sample counts
and, when traced, the counts that must repeat exactly.  The last line is
the result object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

from hostspeed import steal_s

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("cube6-o2", "cube6-o4", "ray30-u")
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("pass_frac", "frac")]


def cap_threads() -> int:
    """Hold the BLAS/OpenMP thread settings at most at nproc; returns nproc.

    Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            n = nproc
        os.environ[var] = str(min(max(n, 1), nproc))
    return nproc


def use_checkout_src():
    src = ROOT / "src"
    if not (src / "rotspec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rotspec sources under {src}")
    sys.path.insert(0, str(src))


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {"nproc": nproc, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit(),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def summary(xs) -> dict:
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"n": len(xs), "median": statistics.median(xs), "q1": q[0], "q3": q[2]}


class Run:
    """One benchmark run of one workload: ops and checks attempted and failed."""

    def __init__(self, wl):
        from tracer import Tracer
        from workloads import Checks

        self.wl = wl
        self.checks = Checks()
        self.off = Tracer(enabled=False)
        self.ops = 0
        self.failed_ops = 0
        self._release = None

    def __enter__(self):
        capture = getattr(self.wl, "capture", None)
        self._release = capture() if capture is not None else None
        return self

    def __exit__(self, *exc):
        if self._release is not None:
            self._release()
        return False

    def setups(self, n: int):
        """n set-ups; the (start, end, vCPU steal) of each."""
        spans = []
        for _ in range(n):
            s0, t0 = steal_s(), perf_counter()
            self.wl.setup(self.off)
            spans.append((t0, perf_counter(), steal_s() - s0))
        return spans

    def timed_ops(self, budget: float):
        """Pipeline runs, untraced, until the budget is spent (at least one).

        Returns the (start, end, vCPU steal, cpu time) of each."""
        spans = []
        start = perf_counter()
        while True:
            self.ops += 1
            s0, t0, c0 = steal_s(), perf_counter(), process_time()
            try:
                out = self.wl.op(self.off)
            except Exception:
                traceback.print_exc()
                self.failed_ops += 1
                break
            spans.append((t0, perf_counter(), steal_s() - s0, process_time() - c0))
            self.wl.check(self.off, out, self.checks)
            if perf_counter() - start >= budget:
                break
        return spans

    def traced_pass(self):
        """Set-up, one pipeline run and its checks under the tracer.

        Returns the tracer, the exact counts and the pipeline's traced time."""
        from layers import install_hooks
        from tracer import Tracer

        tr = Tracer()
        counts = defaultdict(int)
        install_hooks(tr, counts)
        tr.install()
        self.ops += 1
        try:
            with tr.span("bench.glue"):
                self.wl.setup(tr)
                t0 = perf_counter()
                out = self.wl.op(tr)
                op_s = perf_counter() - t0
                self.wl.check(tr, out, self.checks)
        finally:
            tr.uninstall()
        counts["fields.convolve_calls"] = tr.calls["fields.convolve"]
        counts["spoly.bilinear_calls"] = tr.calls["spoly.bilinear"]
        counts.update(self.wl.counts())
        return tr, counts, op_s

    def final_check(self):
        final = getattr(self.wl, "final_check", None)
        if final is not None:
            final(self.checks)

    @property
    def attempted(self) -> int:
        return self.ops + self.checks.attempted

    @property
    def failed(self) -> int:
        return self.failed_ops + self.checks.failed

    def result(self, ran: bool) -> dict:
        """Print the checks; the result object, still without metrics."""
        for line in self.checks.lines():
            print(line)
        return {"correct": ran and self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": {}}


def start(args, workdir: Path) -> Run:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, str(workdir))
    print(json.dumps({"workload": wl.name, "seed": args.seed, "params": wl.params}))
    return Run(wl)


def end_to_end(args, workdir: Path) -> dict:
    """Set-ups, then untraced pipeline runs for the whole measuring time.

    Times are corrected for the host's speed (hostspeed.py) by the
    workload's host_share; the raw times are printed beside them."""
    from hostspeed import HostSpeed

    with start(args, workdir) as run, HostSpeed() as clock:
        setup_spans = run.setups(run.wl.n_setup)
        op_spans = run.timed_ops(args.seconds)
        run.final_check()
    result = run.result(bool(op_spans))
    if not op_spans:
        return result
    share = run.wl.host_share
    setups = [clock.times(t0, t1, share["setup"], st) for t0, t1, st in setup_spans]
    ops = [clock.times(t0, t1, share["op"], st) for t0, t1, st, _ in op_spans]
    cpus = [(cpu - clock.probe_cpu(t0, t1)) * cor / (raw - st) if cor else 0.0
            for (t0, t1, st, cpu), (raw, cor) in zip(op_spans, ops)]
    walls = [cor for _, cor in ops]
    setups_cor = [cor for _, cor in setups]
    print(json.dumps({"host": {"probe_ms": summary([p * 1e3 for p in clock.probe_times()]),
                               "host_share": share,
                               "op_steal_s": summary([st for _, _, st, _ in op_spans])}}))
    print(json.dumps({"timings": {
        "wall_s": summary(walls), "cpu_s": summary(cpus), "setup_s": summary(setups_cor),
        "raw_wall_s": summary([raw for raw, _ in ops]),
        "raw_setup_s": summary([raw for raw, _ in setups])}}))
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups_cor),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - run.failed / run.attempted,
    }
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in END_TO_END}
    return result


def per_layer(args, workdir: Path) -> dict:
    """Untraced runs for half the time, one traced pass, then the probes."""
    import layers

    with start(args, workdir) as run:
        run.setups(1)
        walls = [t1 - t0 for t0, t1, _, _ in run.timed_ops(args.seconds / 2)]
        if walls:
            tr, counts, traced_s = run.traced_pass()
        run.final_check()
    result = run.result(bool(walls))
    if not walls:
        return result
    untraced_s = statistics.median(walls)
    probes = {c: layers.bilinear_probe_us(c, args.seed) for c in layers.PROBE_CUTOFFS}
    print(json.dumps({"timings": {"untraced_wall_s": summary(walls),
                                  "traced_wall_s": traced_s}}))
    print(json.dumps({"counts": {k: counts[k] for k in layers.EXACT_COUNTS}}))
    if tr.absent:
        print(json.dumps({"absent": tr.absent}))
    result["metrics"] = layers.per_layer_metrics(tr, counts, traced_s / untraced_s - 1.0,
                                                 probes)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    nproc = cap_threads()
    use_checkout_src()
    print(json.dumps({"env": environment(nproc)}))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = (per_layer if args.trace else end_to_end)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
