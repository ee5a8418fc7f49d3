"""Command-line front end: config-driven pipelines over the library modules.

Subcommands: spectrum, simulate, expand, verify-special, helicity,
sweep-omega, report.  All outputs are deterministic given config + seed,
embed the config hash and artifact version, and use JSON/JSON-lines for
structured data with CSV reserved for plot series.  JSON documents are
written by orjson, 2-space indented with sorted keys and every float in its
shortest round-trip form (0.000036, where 0.4.0 wrote json's 3.6e-05);
version 0.5.0 changed only that spelling.  Errors are emitted as
machine-readable JSON on stderr with exit codes 0 (ok), 2 (config), 3
(numerical failure), 4 (verification failure).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from typing import List, Optional, Sequence

import jsonschema
import numpy as np

from . import __version__
from .lattice import LatticeError, build_lattice, semigroup_table, spectrum_to_doc
from .fields import SpectralField, field_from_doc, random_gevrey
from .spoly import OdeResonanceError, spoly_to_doc
from .solver import (SolverConfig, config_hash, integrate, trajectory_from_jsonl,
                     trajectory_to_jsonl, transform_trajectory)
from .expansion import (expand, remainder_rate, time_average_Q, to_u_expansion,
                        verify_expansion_system)
from .special import (DriftingSolution, MeanFlow, VkData, helicity,
                      helicity_series, linear_evolution, pde_residual)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECK = 4

OUTDIR_ENV = "ROTSPEC_OUTDIR"


class CliError(Exception):
    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


_POSNUM = {"type": "number", "exclusiveMinimum": 0}
_COEFS = {
    "type": "object",
    "patternProperties": {r"^[0-9]+$": {
        "type": "array", "minItems": 3, "maxItems": 3,
        "items": {"type": "array", "minItems": 2, "maxItems": 2,
                  "items": {"type": "number"}},
    }},
    "additionalProperties": False,
}
CONFIG_SCHEMA = {
    "type": "object",
    "required": ["lattice", "omega", "initial", "solver"],
    "additionalProperties": False,
    "properties": {
        "lattice": {
            "type": "object",
            "required": ["cutoff"],
            "additionalProperties": False,
            "properties": {
                "L": {"type": "array", "minItems": 3, "maxItems": 3,
                      "items": {"type": ["string", "integer"]}},
                "cutoff": {"type": ["string", "integer"]},
            },
        },
        "omega": {"type": "number"},
        "initial": {
            "type": "object",
            "oneOf": [
                {"properties": {"kind": {"const": "random-gevrey"},
                                "seed": {"type": "integer"},
                                "sigma": _POSNUM,
                                "amplitude": _POSNUM},
                 "required": ["kind", "seed"], "additionalProperties": False},
                {"properties": {"kind": {"const": "vk"},
                                "k": {"type": "array", "minItems": 3, "maxItems": 3,
                                      "items": {"type": "integer"}},
                                "coefficients": _COEFS},
                 "required": ["kind", "k", "coefficients"],
                 "additionalProperties": False},
                {"properties": {"kind": {"const": "file"},
                                "path": {"type": "string"}},
                 "required": ["kind", "path"], "additionalProperties": False},
            ],
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dt": _POSNUM,
                "t_end": _POSNUM,
                "t0": {"type": "number"},
                "form": {"enum": ["u", "v"]},
                "record_stride": {"type": "integer", "minimum": 1},
            },
        },
        "expansion": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "xi_windows": {"type": "array", "items": {
                    "type": "array", "minItems": 2, "maxItems": 2,
                    "items": {"type": "number"}}},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gevrey_norms": {"type": "array", "items": {
                    "type": "array", "minItems": 2, "maxItems": 2,
                    "items": {"type": "number"}}},
            },
        },
    },
}


# The JSON documents the command line checks as it reads them.  Of a trajectory
# header's config only the expansion block is read; a report holds an
# expansion's series or a sweep.
_SCHEMAS = {
    "config": CONFIG_SCHEMA,
    "header config": {"type": "object",
                      "properties": {"expansion": CONFIG_SCHEMA["properties"]["expansion"]}},
    "report": {
        "type": "object",
        "properties": {"series": {"type": "object", "properties": {
            "t": {"type": "array"},
            "remainder": {"type": "array", "items": {"type": "array"}}}}},
        "dependentSchemas": {"qbar_norm": {
            "required": ["omega"],
            "properties": {"omega": {"type": "array"}, "qbar_norm": {"type": "array"}}}},
    },
}


@functools.cache
def _validator(name: str):
    """Validator for _SCHEMAS[name]; the schema itself is checked once, here."""
    cls = jsonschema.validators.validator_for(_SCHEMAS[name])
    cls.check_schema(_SCHEMAS[name])
    return cls(_SCHEMAS[name])


def _schema_check(doc, name: str, what: str):
    # the error jsonschema.validate would raise, without re-checking the
    # schema, after its dotted key; an error at the root has none
    error = jsonschema.exceptions.best_match(_validator(name).iter_errors(doc))
    if error is not None:
        key = functools.reduce(_child, error.absolute_path, "")
        raise CliError(EXIT_CONFIG, "config",
                       f"{what} schema violation: {key and key + ': '}{error.message}")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise CliError(EXIT_CONFIG, "config", f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise CliError(EXIT_CONFIG, "config", f"config is not valid JSON: {e}")
    # json reads NaN, Infinity and overflowing literals, and no schema bound refuses NaN
    bad = _non_finite(cfg)
    if bad is not None:
        raise CliError(EXIT_CONFIG, "config", f"{bad[0]} must be finite, not {bad[1]}")
    _schema_check(cfg, "config", "config")
    return cfg


def _child(key: str, k) -> str:
    """The dotted key of member k, or of list item k (an int), of key's value."""
    return f"{key}[{k}]" if isinstance(k, int) else f"{key}.{k}" if key else k


def _non_finite(doc, key: str = ""):
    """(dotted key, value) of the first non-finite number in a JSON document,
    list or tuple items keyed by [index], or None."""
    if isinstance(doc, (dict, list, tuple)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return next(filter(None, (_non_finite(v, _child(key, k)) for k, v in items)), None)
    return (key, doc) if isinstance(doc, float) and not math.isfinite(doc) else None


def _lattice_from(cfg: dict):
    lc = cfg["lattice"]
    return build_lattice(ell=lc.get("L"), cutoff=lc["cutoff"])


def _vk_from(init: dict) -> VkData:
    coeffs = {}
    for m, rows in init["coefficients"].items():
        coeffs[int(m)] = np.array([complex(re, im) for re, im in rows])
    return VkData(tuple(init["k"]), coeffs)


def _initial_field(cfg: dict, lat) -> SpectralField:
    init = cfg["initial"]
    kind = init["kind"]
    if kind == "random-gevrey":
        return random_gevrey(lat, seed=init["seed"], sigma=init.get("sigma", 1.0),
                             amplitude=init.get("amplitude", 0.1))
    if kind == "vk":
        return _vk_from(init).field(lat)
    try:  # "file", the schema's last kind
        with open(init["path"]) as fh:
            u0 = field_from_doc(json.load(fh), lat)
    except OSError as e:
        raise CliError(EXIT_CONFIG, "config", f"cannot read field file: {e}")
    except (KeyError, TypeError) as e:
        raise CliError(EXIT_CONFIG, "config",
                       f"field file is not a field document ({type(e).__name__}: {e})")
    # integrate and the trajectory records carry no mean, so a run would drop it
    if np.any(u0.mean != 0):
        raise CliError(EXIT_CONFIG, "config",
                       f"field file has mean {u0.mean.tolist()}; simulate integrates "
                       "zero-mean fields only")
    return u0


def _resolve_out(path: Optional[str]) -> Optional[str]:
    if path is None or path == "-":
        return path
    base = os.environ.get(OUTDIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


@contextlib.contextmanager
def _output(path: Optional[str], newline: Optional[str] = None):
    """Stream for an --out path (stdout for "-"); a path that cannot be
    opened for writing is a config error, and a command that fails while
    writing leaves no file."""
    path = _resolve_out(path)
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline=newline)
    except OSError as e:
        raise CliError(EXIT_CONFIG, "config", f"cannot write output: {e}")
    try:
        with fh:
            yield fh
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(path)
        raise


def _write_text(path: Optional[str], text: str):
    with _output(path) as fh:
        fh.write(text)


def _stamp(doc: dict, cfg: Optional[dict]) -> dict:
    doc["artifact"] = {"name": "rotspec", "version": __version__}
    doc["config_hash"] = config_hash(cfg or {})
    return doc


def _dump(doc: dict) -> str:
    """doc as 2-space-indented JSON with sorted keys and shortest round-trip
    floats, plus a newline.  orjson writes a non-finite number as null, so a
    text that holds null is walked for one, which exits 3.  What orjson
    cannot encode, an integer past 64 bits or a key that is not a string,
    json writes in the same layout."""
    import orjson  # loaded by the commands that write a document, not by import

    try:
        text = orjson.dumps(doc, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS
                            | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE).decode()
    except orjson.JSONEncodeError:
        try:
            return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError as e:
            raise CliError(EXIT_NUMERICAL, "numerical", f"output holds a non-finite value: {e}")
    bad = _non_finite(doc) if "null" in text else None
    if bad is not None:
        raise CliError(EXIT_NUMERICAL, "numerical",
                       f"output holds a non-finite value: {bad[0]} is {bad[1]}")
    return text


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args) -> int:
    ell = args.L.split(",")
    lat = build_lattice(ell=ell, cutoff=args.cutoff)
    table = semigroup_table(lat, args.cap)
    doc = _stamp(spectrum_to_doc(lat, table), {"L": ell, "cutoff": args.cutoff, "cap": args.cap})
    _write_text(args.out, _dump(doc))
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    lat = _lattice_from(cfg)
    u0 = _initial_field(cfg, lat)
    traj = integrate(u0, SolverConfig(omega=cfg["omega"], **cfg["solver"]))
    gevrey = [tuple(g) for g in cfg.get("output", {}).get("gevrey_norms", [])]
    with _output(args.out) as fh:
        try:
            trajectory_to_jsonl(traj, fh, config_doc=cfg, gevrey=gevrey)
        except ValueError as e:  # a norm that overflows
            raise CliError(EXIT_NUMERICAL, "numerical", f"simulate: {e}") from None
    return EXIT_OK


def _xi_windows(cfg: Optional[dict]):
    """The config's resonant-fit windows, or None for expand's default; a
    trajectory header's config is checked here."""
    _schema_check({} if cfg is None else cfg, "header config",
                  "trajectory header key 'config'")
    return ((cfg or {}).get("expansion") or {}).get("xi_windows") or None


def _read_trajectory(path: str):
    """(trajectory, meta) from a JSON-lines file; an unreadable file exits 2
    and a non-finite sample exits 3."""
    try:
        with open(path) as fh:
            traj, meta = trajectory_from_jsonl(fh)
    except OSError as e:
        raise CliError(EXIT_CONFIG, "config", f"cannot read trajectory: {e}")
    if not np.isfinite(traj.coeffs).all():
        raise CliError(EXIT_NUMERICAL, "numerical", "trajectory contains NaN/Inf")
    return traj, meta


def cmd_expand(args) -> int:
    alpha, sigma = args.norm
    traj, meta = _read_trajectory(args.traj)
    traj = transform_trajectory(traj, "v")
    exp = expand(traj, args.order, _xi_windows(meta.get("config")))
    verify = verify_expansion_system(exp)

    ts = traj.times
    rates = []
    columns = [list(traj.norms(alpha, sigma))]
    for n in range(1, args.order + 1):
        r = remainder_rate(exp, n, alpha=alpha, sigma=sigma)
        columns.append([float(x) for x in r.pop("norms")])
        r.pop("times")
        r["order"] = n
        rates.append(r)
    doc = {
        "omega": traj.omega,
        "norm": [alpha, sigma],
        "mus": [str(mu) for mu in exp.mus],
        "orders": [spoly_to_doc(q) for q in exp.orders],
        "diagnostics": exp.diagnostics,
        "verify": verify,
        "rates": rates,
        "series": {"t": [float(t) for t in ts], "remainder": columns},
    }
    _stamp(doc, meta.get("config"))
    _write_text(args.out, _dump(doc))
    return EXIT_OK


def _check(name: str, value: float, tol: float, larger_is_pass: bool = False) -> dict:
    ok = (value >= tol) if larger_is_pass else (value <= tol)
    return {"name": name, "value": float(value), "tol": float(tol),
            "comparison": ">=" if larger_is_pass else "<=", "pass": bool(ok)}


def _case_ray_closed_form(omega: float, seed: int) -> List[dict]:
    lat = build_lattice(cutoff=18)
    vk = VkData.random((1, 1, 0), (1, 2, 3), seed, lat)
    u0 = vk.field(lat)
    cfg = SolverConfig(dt=1e-3, t_end=0.5, omega=omega, form="u")
    traj = integrate(u0, cfg)
    checks = []
    t_end = float(traj.times[-1])
    exact = linear_evolution(u0, t_end, omega)
    got = traj.field(traj.n_samples - 1)
    rel = (got - exact).norm() / exact.norm()
    checks.append(_check("closed_form_rel_l2_error", rel, 1e-8))
    ray = {tuple(int(m) * c for c in vk.k) for m in (-3, -2, -1, 1, 2, 3)}
    off = np.array([i for i in range(lat.n_modes)
                    if tuple(int(c) for c in lat.ks[i]) not in ray])
    leak = float(np.abs(traj.coeffs[:, off, :]).max()) / float(np.abs(traj.coeffs).max())
    checks.append(_check("invariant_line_leak", leak, 1e-12))
    return checks


def _case_drift(omega: float, seed: int) -> List[dict]:
    lat = build_lattice(cutoff=12)
    vk = VkData.random((1, 1, 1), (1, 2), seed, lat)
    flow = MeanFlow(np.array([1.0, 0.5, -0.25]), omega)
    sol = DriftingSolution(vk, flow, lat)
    times = np.linspace(0.0, 1.0, 10)
    rep = pde_residual(sol.velocity, sol.pressure, omega, times,
                       grid_n=32, velocity_dt=sol.velocity_dt)
    checks = [_check("pde_residual_max", rep["max_residual"], 1e-8)]
    neg = pde_residual(sol.velocity, None, omega, times[:3],
                       grid_n=32, velocity_dt=sol.velocity_dt)
    checks.append(_check("zeroed_pressure_residual", neg["max_residual"],
                         1e-2, larger_is_pass=True))
    speeds = [float(np.linalg.norm(flow.U(t))) for t in times]
    checks.append(_check("mean_speed_variation",
                         max(speeds) - min(speeds), 1e-12))
    return checks


def _case_helicity(omega: float, seed: int) -> List[dict]:
    lat = build_lattice(cutoff=12)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(20):
        vk = VkData.random((1, 1, 1), (1, 2), int(rng.integers(1 << 30)), lat)
        ts = np.linspace(0.0, 1.0, 5)
        series = helicity_series(vk, lat, ts)
        u0 = vk.field(lat)
        for t, ref in zip(ts, series):
            h = helicity(linear_evolution(u0, float(t), omega))
            scale = max(abs(ref), 1e-12)
            worst = max(worst, abs(h - ref) / scale)
    checks = [_check("spectral_vs_series_rel", worst, 1e-8)]
    # aligned data: real and imaginary parts parallel force zero helicity
    z = np.array([1.0 + 2.0j, -2.0 - 4.0j, 1.0 + 2.0j])
    vk0 = VkData((1, 1, 0), {1: z - (z @ np.array([1, 1, 0])) / 2 * np.array([1, 1, 0])})
    u0 = vk0.field(lat)
    h0 = max(abs(helicity(linear_evolution(u0, t, omega))) for t in np.linspace(0, 2, 10))
    checks.append(_check("aligned_data_helicity", h0, 1e-12 * u0.norm() ** 2))
    return checks


def cmd_verify_special(args) -> int:
    cases = {
        "ray-closed-form": _case_ray_closed_form,
        "drift": _case_drift,
        "helicity": _case_helicity,
    }
    checks = cases[args.case](args.omega, args.seed)
    ok = all(c["pass"] for c in checks)
    doc = _stamp({"case": args.case, "omega": args.omega, "seed": args.seed,
                  "checks": checks, "pass": ok},
                 {"case": args.case, "omega": args.omega, "seed": args.seed})
    _write_text(args.out, _dump(doc))
    return EXIT_OK if ok else EXIT_CHECK


def cmd_helicity(args) -> int:
    traj, _ = _read_trajectory(args.traj)
    traj = transform_trajectory(traj, "u")
    rows = [(float(t), helicity(traj.field(i))) for i, t in enumerate(traj.times)]
    with _output(args.out, newline="") as stream:
        w = csv.writer(stream)
        w.writerow(["t", "helicity"])
        w.writerows(rows)
    return EXIT_OK


def cmd_sweep_omega(args) -> int:
    cfg = _load_config(args.config)
    lat = _lattice_from(cfg)
    u0 = _initial_field(cfg, lat)
    # a bad config is rejected before any rate is integrated
    configs = [SolverConfig(omega=om, **cfg["solver"]) for om in args.omegas]
    norms = []
    for config in configs:
        try:
            traj = integrate(u0, config)
        except FloatingPointError as e:
            raise CliError(EXIT_NUMERICAL, "numerical",
                           f"the run at omega = {config.omega!r} failed: {e}") from None
        traj = transform_trajectory(traj, "v")
        # q_1 depends on no later order, so one order is all the sweep reads
        exp = expand(traj, 1, _xi_windows(cfg))
        mu1, Q1 = to_u_expansion(exp)[0]
        qbar = time_average_Q(Q1, args.T)
        norms.append(qbar.evaluate(args.t).norm())
    ratios = [norms[i + 1] / norms[i] if norms[i] else None  # written as null
              for i in range(len(norms) - 1)]
    doc = _stamp({"omega": args.omegas, "qbar_norm": norms, "ratio": ratios,
                  "T": args.T, "t": args.t}, cfg)
    _write_text(args.out, _dump(doc))
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        with open(args.report) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(EXIT_CONFIG, "config", f"cannot read report: {e}")
    _schema_check(doc, "report", "report")
    with _output(args.out, newline="") as stream:
        w = csv.writer(stream)
        if "series" in doc or not doc:  # an empty document is an empty series
            series = doc.get("series", {})
            cols = series.get("remainder", [])
            w.writerow(["t"] + [f"remainder_{i}" for i in range(len(cols))])
            w.writerows(zip(series.get("t", []), *cols))
        elif "qbar_norm" in doc:
            w.writerow(["omega", "qbar_norm"])
            w.writerows(zip(doc["omega"], doc["qbar_norm"]))
        else:
            raise CliError(EXIT_CONFIG, "config",
                           "report is neither an expansion nor a sweep report")
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as config errors (subcommand parsers inherit it)."""

    def error(self, message: str):
        raise CliError(EXIT_CONFIG, "config", message)


def _numbers(what: str, count: int = 1, low: float = -math.inf, kind=float):
    """argparse type= for `count` comma-separated finite numbers of `kind`
    (count 0: two or more), each above `low`; one number for count 1, else a
    list.  Anything else is an ArgumentTypeError, reported naming the flag."""
    def convert(text: str):
        try:
            xs = [kind(x) for x in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if (len(xs) < 2) if count == 0 else (len(xs) != count):
            raise argparse.ArgumentTypeError(
                f"{what} takes {count or 'two or more'} comma-separated numbers, not {text!r}")
        for x in xs:
            if kind is float and not math.isfinite(x):  # an int is finite, and may be no float
                raise argparse.ArgumentTypeError(f"{what} must be finite, not {x}")
            if not x > low:
                least = f"at least {low + 1}" if kind is int else f"above {low}"
                raise argparse.ArgumentTypeError(f"{what} must be {least}, got {x}")
        return xs[0] if count == 1 else xs
    return convert


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="rotspec", description="spectral rotating-flow toolbox")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("spectrum", help="lattice eigenvalues and decay-rate semigroup")
    s.add_argument("--L", default="1,1,1", help="periods as rationals in units of 2*pi")
    s.add_argument("--cutoff", default="6")
    s.add_argument("--cap", default=None, help="semigroup cap (default: cutoff)")
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_spectrum)

    s = sub.add_parser("simulate", help="integrate a configured initial field")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True, help="trajectory JSON-lines path")
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("expand", help="fit the long-time expansion of a trajectory")
    s.add_argument("--traj", required=True)
    s.add_argument("--order", type=_numbers("order", low=0, kind=int), required=True)
    s.add_argument("--norm", type=_numbers("norm", count=2), default="0,0",
                   help="alpha,sigma for reported norms")
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_expand)

    s = sub.add_parser("verify-special", help="closed-form solution checks")
    s.add_argument("--case", required=True, choices=["ray-closed-form", "drift", "helicity"])
    s.add_argument("--omega", type=_numbers("omega"), default=10.0)
    s.add_argument("--seed", type=_numbers("seed", low=-1, kind=int), default=1)
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_verify_special)

    s = sub.add_parser("helicity", help="helicity series of a trajectory (CSV)")
    s.add_argument("--traj", required=True)
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_helicity)

    s = sub.add_parser("sweep-omega", help="averaged leading coefficient vs rotation")
    s.add_argument("--config", required=True)
    s.add_argument("--omegas", type=_numbers("omega", count=0), required=True,
                   help="comma-separated rotation rates")
    s.add_argument("--T", type=_numbers("T", low=0), required=True,
                   help="averaging window length")
    s.add_argument("--t", type=_numbers("t"), default=0.0, help="evaluation time")
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_sweep_omega)

    s = sub.add_parser("report", help="emit CSV plot series from a report JSON")
    s.add_argument("--report", required=True)
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_report)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # an overflow or invalid value inside a command is a numerical error
        # (exit 3), never a warning beside a result
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except CliError as e:
        error = e
    except OdeResonanceError as e:  # before ValueError, its base class
        error = CliError(EXIT_NUMERICAL, "numerical", str(e))
    except FloatingPointError as e:  # numpy's message names no command
        error = CliError(EXIT_NUMERICAL, "numerical", f"{args.command}: {e}")
    except (LatticeError, ValueError) as e:
        error = CliError(EXIT_CONFIG, "config", str(e))
    sys.stderr.write(json.dumps(
        {"error": {"code": error.code, "kind": error.kind, "message": str(error)}},
        sort_keys=True) + "\n")
    return error.code


if __name__ == "__main__":
    sys.exit(main())
