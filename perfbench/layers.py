"""Per-layer metrics: counts hooked onto spans, the traced pass's totals, and
steady-state probes of the public bilinear form.

Which end-to-end metric each should move, and on which workload, is listed
in README.md next to this file.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import rotspec.fields
import rotspec.lattice

LAYERS = ("lattice", "fields", "spoly", "solver", "expansion", "special", "cli")
PROBE_CUTOFFS = (6, 18, 30)
MAX_ORDER = 4

PER_LAYER = [
    ("lattice.build_s", "s"),
    ("lattice.semigroup_s", "s"),
    ("fields.convolve_calls", "count"),
    ("fields.convolve_s", "s"),
    ("fields.convolve_us", "us"),
    ("fields.triads", "count"),
    ("fields.ns_per_triad", "ns"),
    ("fields.first_call_s", "s"),
    *((f"fields.bilinear_us.c{c}", "us") for c in PROBE_CUTOFFS),
    ("solver.integrate_s", "s"),
    ("solver.integrate_self_s", "s"),
    ("solver.steps", "count"),
    ("solver.us_per_step", "us"),
    ("solver.traj_write_s", "s"),
    ("solver.traj_read_s", "s"),
    ("solver.traj_bytes", "bytes"),
    ("solver.samples", "count"),
    ("spoly.bilinear_calls", "count"),
    ("spoly.bilinear_s", "s"),
    ("spoly.bilinear_in_pairs", "count"),
    ("spoly.bilinear_out_terms", "count"),
    ("spoly.evaluate_many_s", "s"),
    ("spoly.ode_solve_s", "s"),
    *((f"spoly.terms.o{n}", "count") for n in range(1, MAX_ORDER + 1)),
    ("expansion.expand_s", "s"),
    ("expansion.expand_self_s", "s"),
    ("expansion.fit_samples", "count"),
    ("expansion.remainder_rate_s", "s"),
    ("expansion.verify_s", "s"),
    ("special.reference_s", "s"),
    ("cli.simulate_s", "s"),
    ("cli.expand_s", "s"),
    ("cli.report_s", "s"),
    ("cli.report_bytes", "bytes"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("bench.glue_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("input.nonzero_share", "frac"),
]

# Counts that must repeat exactly for a given workload and seed.
EXACT_COUNTS = (
    "solver.steps", "solver.samples", "fields.convolve_calls", "fields.triads",
    "spoly.bilinear_calls", "spoly.bilinear_in_pairs", "spoly.bilinear_out_terms",
    *(f"spoly.terms.o{n}" for n in range(1, MAX_ORDER + 1)),
    "expansion.fit_samples", "solver.traj_bytes", "cli.report_bytes",
    "input.nonzero_share",
)


def install_hooks(tr, counts: dict):
    """Count work at the span boundaries, from each call's inputs and result."""

    def on_integrate(args, kwargs, traj):
        config = args[1]
        counts["solver.steps"] += round((config.t_end - config.t0) / config.dt)
        counts["solver.samples"] += traj.n_samples

    def on_expand(args, kwargs, exp):
        for n, q in enumerate(exp.orders, 1):
            counts[f"spoly.terms.o{n}"] = q.n_terms()
        resonant = sum(1 for d in exp.diagnostics if d["resonant"])
        counts["expansion.fit_samples"] += resonant * args[0].n_samples

    def on_bilinear(args, kwargs, out):
        counts["spoly.bilinear_in_pairs"] += args[0].n_terms() * args[1].n_terms()
        counts["spoly.bilinear_out_terms"] += out.n_terms()

    tr.hooks.update({"solver.integrate": on_integrate,
                     "expansion.expand": on_expand,
                     "spoly.bilinear": on_bilinear})


def bilinear_probe_us(cutoff: int, seed: int, seconds: float = 0.25) -> float:
    """Median per-call time of rotspec.fields.bilinear_B on random fields,
    after the first call has built the plan; -1 if the name is gone."""
    bilinear = getattr(rotspec.fields, "bilinear_B", None)
    if bilinear is None:
        return -1.0
    lat = rotspec.lattice.build_lattice(cutoff=cutoff)
    u = rotspec.fields.random_gevrey(lat, seed=seed)
    v = rotspec.fields.random_gevrey(lat, seed=seed + 1)
    bilinear(u, v)
    times = []
    end = perf_counter() + seconds
    while len(times) < 5 or perf_counter() < end:
        t0 = perf_counter()
        bilinear(u, v)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e6


def per_layer_metrics(tr, counts: dict, overhead_frac: float, probes: dict) -> dict:
    """Every PER_LAYER metric; a metric whose spans are absent reads -1."""
    total, calls = tr.total, tr.calls
    values = {}

    def put(name, value, *spans):
        values[name] = -1.0 if any(tr.is_absent(s) for s in spans) else value

    def per_call(span, scale):
        return total[span] / calls[span] * scale if calls[span] else 0.0

    put("lattice.build_s", total["lattice.build"], "lattice.build")
    put("lattice.semigroup_s", total["lattice.semigroup"], "lattice.semigroup")
    conv = "fields.convolve"
    put("fields.convolve_calls", calls[conv], conv)
    put("fields.convolve_s", total[conv], conv)
    put("fields.convolve_us", per_call(conv, 1e6), conv)
    put("fields.triads", counts["fields.triads"])
    put("fields.ns_per_triad", per_call(conv, 1e9) / counts["fields.triads"], conv)
    put("fields.first_call_s", total["fields.first_call"])
    for c in PROBE_CUTOFFS:
        put(f"fields.bilinear_us.c{c}", probes[c])
    put("solver.integrate_s", total["solver.integrate"], "solver.integrate")
    put("solver.integrate_self_s", tr.self_time["solver.integrate"], "solver.integrate")
    put("solver.steps", counts["solver.steps"], "solver.integrate")
    steps = counts["solver.steps"]
    put("solver.us_per_step", total["solver.integrate"] / steps * 1e6 if steps else 0.0,
        "solver.integrate")
    put("solver.traj_write_s", total["solver.traj_write"], "solver.traj_write")
    put("solver.traj_read_s", total["solver.traj_read"], "solver.traj_read")
    put("solver.traj_bytes", counts["solver.traj_bytes"])
    put("solver.samples", counts["solver.samples"], "solver.integrate")
    put("spoly.bilinear_calls", calls["spoly.bilinear"], "spoly.bilinear")
    put("spoly.bilinear_s", total["spoly.bilinear"], "spoly.bilinear")
    put("spoly.bilinear_in_pairs", counts["spoly.bilinear_in_pairs"], "spoly.bilinear")
    put("spoly.bilinear_out_terms", counts["spoly.bilinear_out_terms"], "spoly.bilinear")
    put("spoly.evaluate_many_s", total["spoly.evaluate_many"], "spoly.evaluate_many")
    put("spoly.ode_solve_s", total["spoly.ode_solve"], "spoly.ode_solve")
    for n in range(1, MAX_ORDER + 1):
        put(f"spoly.terms.o{n}", counts[f"spoly.terms.o{n}"], "expansion.expand")
    put("expansion.expand_s", total["expansion.expand"], "expansion.expand")
    put("expansion.expand_self_s", tr.self_time["expansion.expand"], "expansion.expand")
    put("expansion.fit_samples", counts["expansion.fit_samples"], "expansion.expand")
    put("expansion.remainder_rate_s", total["expansion.remainder_rate"],
        "expansion.remainder_rate")
    put("expansion.verify_s", total["expansion.verify"], "expansion.verify")
    put("special.reference_s", total["special.reference"])
    for sub in ("simulate", "expand", "report"):
        put(f"cli.{sub}_s", total[f"cli.{sub}"])
    put("cli.report_bytes", counts["cli.report_bytes"])
    for layer in LAYERS:
        put(f"{layer}.self_s", tr.layer_self(layer))
    put("bench.glue_s", tr.self_time["bench.glue"])
    put("trace.wall_s", total["bench.glue"])
    put("trace.overhead_frac", overhead_frac)
    put("input.nonzero_share", counts["input.nonzero_share"])
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}
