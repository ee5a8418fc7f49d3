"""Time integration of the Galerkin system in rotating (u) or transformed (v) form.

Both forms take one integrating-factor (Lawson) RK4 step, in the rotating
frame: the linear part (Stokes + rotation) is advanced exactly, mode by
mode, by one fused operator decay (cos theta I + sin theta J_k) at
fields._angles' angles, and classical RK4 acts on the unrotated kernel
(fields._advect).  The state is the representative half of a real field;
its partners are its conjugates.  The step commutes with the constant
rotation exp(Omega t_n S), so a v-form run steps u and rotates only its
records to v = exp(Omega t S) u.  Vanishing nonlinearity therefore
reproduces the linear special solutions to machine precision, and the
energy identity d/dt (|v|^2/2) + ||v||^2 = 0 holds exactly for the
truncated system.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from typing import Dict, IO, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .lattice import Lattice, build_lattice
from .fields import (
    SpectralField,
    _advect,
    _angles,
    _closed_frame,
    _doc_rows,
    _field_docs,
    _fields_of,
    _gevrey_norms,
    _mirror,
    _per_mode,
    _rotate,
    _rotate_by,
    _strided,
)

__all__ = [
    "SolverConfig",
    "Trajectory",
    "integrate",
    "transform_trajectory",
    "energy_report",
    "trajectory_to_jsonl",
    "trajectory_from_jsonl",
]


@dataclass
class SolverConfig:
    """One run.  dt and omega must be finite, and (t_end - t0)/dt a whole
    number of steps, at least one, to relative 1e-12; record_stride must
    divide it, so every recorded gap is record_stride * dt and the
    trajectory is valid input to `expand`."""

    dt: float = 1e-3
    t_end: float = 1.0
    omega: float = 0.0
    form: str = "v"  # "u" (rotating frame) or "v" (wave-transformed)
    record_stride: int = 1
    t0: float = 0.0

    def __post_init__(self):
        if self.form not in ("u", "v"):
            raise ValueError("form must be 'u' or 'v'")
        for key in ("dt", "omega"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, not {getattr(self, key)}")
        if self.dt <= 0 or self.t_end <= self.t0:
            raise ValueError("need dt > 0 and t_end > t0")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        span = (self.t_end - self.t0) / self.dt
        if not (math.isfinite(span) and abs(span - round(span)) <= 1e-12 * span):
            raise ValueError(f"(t_end - t0)/dt = {span:.12g} is not a whole number of steps")
        if self.n_steps == 0:
            raise ValueError(f"(t_end - t0)/dt = {span:.12g} takes no step")
        if self.n_steps % self.record_stride:
            raise ValueError(f"record_stride {self.record_stride} does not divide "
                             f"the {self.n_steps} steps")

    @property
    def n_steps(self) -> int:
        # round, not ceil: a span within the 1e-12 tolerance may sit just
        # above a whole number
        return round((self.t_end - self.t0) / self.dt)


class Trajectory:
    """Recorded samples of one integration (or transform thereof)."""

    def __init__(self, lattice: Lattice, form: str, omega: float,
                 times: np.ndarray, coeffs: np.ndarray, dt: float = float("nan")):
        self.lattice = lattice
        self.form = form
        self.omega = float(omega)
        self.times = np.asarray(times, dtype=float)
        self.coeffs = coeffs  # (R, M, 3) complex
        self.dt = dt

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def field(self, i: int) -> SpectralField:
        return SpectralField(self.lattice, self.coeffs[i].copy())

    def norms(self, alpha: float = 0.0, sigma: float = 0.0) -> np.ndarray:
        """SpectralField.norm of every sample, bit for bit."""
        return _gevrey_norms(self.lattice, self.coeffs, alpha, sigma)

    def uniform_spacing(self, min_samples: int) -> float:
        """Mean gap of >= min_samples samples at finite, increasing times whose
        gaps agree to 1e-9 of the first plus 8 ulp of the largest |t|;
        otherwise ValueError.

        The ulp term is the resolution of the times themselves: integrate
        records t0 + k dt rounded twice, each within 1.5 ulp of max|t|, so
        its gaps spread by up to 6 ulp, more than 1e-9 of a gap once max|t|
        is about 1e6 gaps."""
        ts = self.times
        if len(ts) < min_samples:
            raise ValueError(f"need at least {min_samples} recorded samples, have {len(ts)}")
        gaps = np.diff(ts)
        # written so that a NaN gap fails: every comparison with NaN is false
        if not (np.all(gaps > 0) and np.all(np.isfinite(gaps))
                and np.ptp(gaps) <= 1e-9 * gaps[0] + 8.0 * np.spacing(np.abs(ts).max())):
            raise ValueError("need uniformly spaced samples at finite, increasing times")
        return float(gaps.mean())

    def __repr__(self):
        return (f"Trajectory(form={self.form!r}, omega={self.omega}, "
                f"samples={self.n_samples}, t=[{self.times[0]:.3g},{self.times[-1]:.3g}])")


def integrate(u0: SpectralField, config: SolverConfig) -> Trajectory:
    """Integrating-factor (Lawson) RK4 for the truncated rotating Navier-Stokes system.

    In u-form the state solves du/dt + Au + Omega*Su + B(u,u) = 0; in v-form
    dv/dt + Av + B_Omega(t,v,v) = 0, with v = exp(Omega t S) u.  Both forms
    step u: the linear part is advanced exactly, through one fused per-mode
    operator exp(-sA) exp(-Omega s S) for each of the step lengths s = dt
    and dt/2, and RK4 acts on the unrotated nonlinearity -B(u,u).  The
    scheme commutes with the constant map exp(Omega t_n S), so stepping u
    and rotating it is the v-form scheme with the rotated nonlinearity, in
    exact arithmetic; against stepping v with the rotated nonlinearity, a
    cutoff-6 v-form run differs by at most a few 1e-15 of its largest
    coefficient.  A v-form run steps u from exp(-Omega t0 S) u0 and
    rotates each recorded state's representative rows to v at its time, as
    transform_trajectory rotates them (fields._rotate_by); its record 0 is
    u0 as given.  It takes config.n_steps steps of exactly dt and records
    the initial state and every record_stride-th state after it.  A u-state
    that is no longer finite stops the run with a FloatingPointError naming
    the step and its time; numpy's overflow and invalid-value flags stay
    quiet inside the steps, whatever the caller's np.errstate, so that check
    is the one that stops it.

    The state is real, u(-k) = conj(u(k)), so the run steps only the
    representative half; u0 is read on its representative modes.  It
    computes on the closed support S of u0 (fields._closed_frame).  S
    starts as u0's non-zero modes and their conjugate partners, and takes
    in every mode that a pair of modes in S reaches, with its partner,
    until it stops changing.  No pair of modes in S reaches a mode outside
    S, and the propagator maps zero to zero, so the modes outside S stay
    zero for the whole run.  The state is the (|S|/2, 3) array of S's
    representative rows, which is the kernel's input layout (fields._advect):
    each stage passes the state itself, and the kernel conjugates it onto
    the partners' rows and convolves with the plan built once on S.  The
    kernel sums and projects the representative outputs only, and the
    propagator, the RK4 combinations and the finiteness check act on the
    representative rows only.  Each record holds the representative rows
    and their np.conj (fields._mirror); every recorded mode outside S is
    +0.  The representative rows carry the bits of a step on all M modes
    (one that forms -B(u, u) and mirrors each stage), and a state that such
    a step would make non-finite stops the run at the same step
    (fields._convolve).  S's plan is the full plan restricted to S x S;
    when S is every mode, every convolution takes the full plan.  Ray data
    have their line as S: a cutoff-30 ray run holds 6 of 738 modes, forms
    9 of 127,188 pairs per stage and never builds the full plan.
    """
    lat = u0.lattice
    h = config.dt
    om = config.omega
    t0 = config.t0
    n_steps = config.n_steps
    v_form = config.form == "v"

    frame = _closed_frame(lat, u0.coeffs)
    reps = frame.outs

    def make_prop(s: float):
        # decay (cos theta I + sin theta J_k) per representative row
        c, sn = (x[reps] for x in _angles(lat, -om, s))
        op = _strided(np.exp(-s * lat.lam_f[reps])[:, None, None] * (
            c[:, None, None] * np.eye(3) + sn[:, None, None] * lat.jk[reps]))
        return lambda C: _per_mode(op, C)

    def B(C):
        return _advect(frame, C, C)

    C0 = u0.coeffs.astype(complex)
    records = np.zeros((n_steps // config.record_stride + 1, lat.n_modes, 3), dtype=complex)
    records[0] = C0
    with np.errstate(over="ignore", invalid="ignore"):
        Ph, Ph2 = make_prop(h), make_prop(0.5 * h)
        C = (_rotate_by(lat, C0, -om, t0) if v_form else C0)[reps]
        times: List[float] = [t0]
        for step in range(n_steps):
            # RK4 on N = -B: each stage's sign sits in the combinations,
            # which IEEE rounding, symmetric in sign, leaves bit for bit
            a = B(C)
            b = B(Ph2(C - 0.5 * h * a))
            c = B(Ph2(C) - 0.5 * h * b)
            PC = Ph(C)
            d = B(PC - h * Ph2(c))
            C = PC - (h / 6.0) * (Ph(a) + 2.0 * Ph2(b + c) + d)
            t = t0 + (step + 1) * h
            if not np.isfinite(C).all():
                raise FloatingPointError(
                    f"state is not finite after step {step + 1} of {n_steps} (t = {t:.6g})")
            if (step + 1) % config.record_stride == 0:
                if v_form:
                    cos, sin = _angles(lat, om, t)
                    rec = _rotate(frame.jk, C, cos[reps], sin[reps])
                else:
                    rec = C
                _mirror(frame.mirror, records[len(times)], rec)
                times.append(t)
    return Trajectory(lat, config.form, om, np.array(times), records, dt=h)


def transform_trajectory(traj: Trajectory, to_form: str) -> Trajectory:
    """Map between u- and v-forms sample-wise: v(t) = exp(Omega t S) u(t)."""
    if to_form == traj.form:
        return traj
    sign = 1.0 if (traj.form, to_form) == ("u", "v") else -1.0
    out = _rotate_by(traj.lattice, traj.coeffs, sign * traj.omega, traj.times)
    return Trajectory(traj.lattice, to_form, traj.omega, traj.times.copy(), out, dt=traj.dt)


_FD6 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0


def energy_report(traj: Trajectory) -> Dict:
    """Residual of d/dt(|v|^2/2) + ||v||^2 = 0 along the recorded samples.

    Two measurements: a 6th-order centred difference of the energy at every
    interior sample (truncation error O(spacing^6), so the scheme's O(dt^4)
    dominates), and the windowed integral form via Simpson.  Requires at
    least 9 uniformly spaced samples (Trajectory.uniform_spacing).
    """
    t = traj.times
    dt = traj.uniform_spacing(9)
    energy = 0.5 * traj.norms(0.0, 0.0) ** 2
    dissipation = traj.norms(0.5, 0.0) ** 2
    dE = np.convolve(energy, _FD6[::-1], mode="valid") / dt  # samples 3..R-4
    residual = dE + dissipation[3:-3]
    from scipy.integrate import cumulative_simpson
    integral = energy - energy[0] + cumulative_simpson(dissipation, dx=dt, initial=0.0)
    return {
        "t": t[3:-3],
        "residual": residual,
        "max_abs_residual": float(np.abs(residual).max()),
        "integral_residual": integral,
        "max_abs_integral_residual": float(np.abs(integral).max()),
        "energy": energy,
        "dissipation": dissipation,
    }


# ---------------------------------------------------------------------------
# JSON-lines interchange


def config_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def trajectory_to_jsonl(traj: Trajectory, stream: IO[str],
                        config_doc: Optional[dict] = None,
                        gevrey: Sequence[Tuple[float, float]] = ()) -> None:
    """Write traj as JSON lines: a header line, then one record per sample.

    The header is json.dumps with sorted keys, so config_hash reads the
    config as it always has.  Each record holds the sample's time, its
    field document (fields.field_to_doc) and its norms: L2, H1 and one per
    (alpha, sigma) in gevrey.  Records are written by orjson with sorted
    keys, compact, with every float in its shortest round-trip form, so
    json.loads reads each number back to the same bits.  JSON has no
    spelling for NaN or infinity, and orjson writes them as null, which
    reads back as no number at all; so a sample whose time, coefficients or
    norms are not all finite raises ValueError naming its index and time,
    before anything is written.
    """
    import orjson

    with np.errstate(over="ignore", invalid="ignore"):  # refused below, naming the sample
        norms = np.stack([traj.norms(), traj.norms(0.5, 0.0)]
                         + [traj.norms(a, s) for a, s in gevrey], axis=1)
    finite = (np.isfinite(traj.times) & np.isfinite(norms).all(axis=1)
              & np.isfinite(traj.coeffs).all(axis=(1, 2)))
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"trajectory sample {i} (t = {float(traj.times[i])!r}) holds a "
                         "time, coefficient or norm that is not finite; JSON records "
                         "hold finite numbers only")
    meta = {
        "meta": {
            "form": traj.form,
            "omega": traj.omega,
            "dt": traj.dt,
            "lattice": {"ell": [str(e) for e in traj.lattice.ell],
                        "cutoff": str(traj.lattice.cutoff)},
            "config": config_doc or {},
            "config_hash": config_hash(config_doc or {}),
            "gevrey_indices": [[float(a), float(s)] for a, s in gevrey],
            "version": __version__,
        }
    }
    stream.write(json.dumps(meta, sort_keys=True) + "\n")
    option = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
    docs = _field_docs(traj.lattice, traj.coeffs)
    for t, doc, (l2, h1, *gev) in zip(traj.times.tolist(), docs, norms.tolist()):
        rec = {"t": t, "field": doc, "norms": {"l2": l2, "h1": h1, "gevrey": gev}}
        stream.write(orjson.dumps(rec, option=option).decode())


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    return _is_number(x) and abs(x) <= sys.float_info.max  # false for NaN, Inf and huge ints


def _json_line(line: str, where: str):
    """json.loads of one line of a trajectory file; a syntax error raises
    ValueError naming where the line sits in the file."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise ValueError(f"{where} is not valid JSON: {e.msg} at column {e.colno}") from None


def _record_rows(rec, n: int):
    """(t, (wave vectors, parts, mean)) of the parsed record rec on file line
    n, each row read as fields._doc_rows reads it; a record of the wrong
    shape raises ValueError naming the line."""
    try:
        rows = _doc_rows(rec["field"])
        t = rec["t"]
    except KeyError as e:
        raise ValueError(f"trajectory line {n} lacks key {e}") from None
    except TypeError as e:
        raise ValueError(f"trajectory line {n} is malformed: {e}") from None
    except ValueError as e:
        raise ValueError(f"trajectory line {n}: {e}") from None
    if not _is_finite_number(t):
        raise ValueError(f"trajectory line {n} key 't' must be a finite number, not {t!r}")
    return t, rows


def trajectory_from_jsonl(stream: IO[str]) -> Tuple[Trajectory, dict]:
    """Returns (trajectory, meta-dict).  Malformed input raises ValueError,
    which names the file line at fault.

    The header is read by json.loads, each record by orjson.loads.  A record
    line that orjson, or the checks on what it read, refuse is read again by
    json.loads, through the same checks, so every refusal is the one the
    stdlib parser gives: orjson reads an integer past 2**64 as a float, so
    a wave vector of one would not be three integers, and it refuses a
    number beyond the float range and NaN, which json.loads reads as a
    number that the checks, or the caller, refuse.  Every number both
    parsers read, they read to the same bits.
    """
    import orjson

    header = _json_line(stream.readline(), "trajectory header (line 1)")
    try:
        meta = header["meta"]
        lat = build_lattice(ell=meta["lattice"]["ell"], cutoff=meta["lattice"]["cutoff"])
        form, omega = meta["form"], meta["omega"]
    except KeyError as e:
        raise ValueError(f"trajectory header lacks key {e}") from None
    except TypeError as e:  # valid JSON of the wrong shape, e.g. a list
        raise ValueError(f"trajectory header is malformed: {e}") from None
    if form not in ("u", "v"):
        raise ValueError(f"trajectory header key 'form' must be \"u\" or \"v\", not {form!r}")
    if not _is_finite_number(omega):
        raise ValueError(f"trajectory header key 'omega' must be a finite number, not {omega!r}")
    if "dt" in meta and not _is_number(meta["dt"]):
        raise ValueError(f"trajectory header key 'dt' must be a number, not {meta['dt']!r}")
    times: List[float] = []
    lines: List[int] = []
    counts: List[int] = []
    # each line's rows are appended to growing buffers: thousands of small
    # arrays kept to the end of the read would fragment the heap
    ks, real, imag, means = bytearray(), bytearray(), bytearray(), bytearray()
    for n, line in enumerate(stream, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            t, (k, p, mean) = _record_rows(orjson.loads(line), n)
        except ValueError:  # orjson.JSONDecodeError is one
            t, (k, p, mean) = _record_rows(_json_line(line, f"trajectory line {n}"), n)
        times.append(t)
        lines.append(n)
        counts.append(len(k))
        ks += k.tobytes()
        real += p[0].tobytes()
        imag += p[1].tobytes()
        means += bytes(24) if mean is None else mean.tobytes()  # absent: three +0.0
    if not times:
        raise ValueError("trajectory file holds no sample lines, only its header")
    parts = np.stack([np.frombuffer(real).reshape(-1, 3), np.frombuffer(imag).reshape(-1, 3)])
    del real, imag
    coeffs = _fields_of(lat, counts, np.frombuffer(ks, np.int64).reshape(-1, 3), parts,
                        lambda i: f"trajectory line {lines[i]}: ")
    # a Trajectory holds zero-mean fields only, so a mean would be dropped
    means = np.frombuffer(means).reshape(-1, 3)
    nonzero = np.any(means, axis=1)
    if nonzero.any():
        i = int(np.argmax(nonzero))
        raise ValueError(f"trajectory line {lines[i]} has mean {means[i].tolist()}; "
                         "trajectories hold zero-mean fields only")
    traj = Trajectory(lat, form, omega, np.array(times), coeffs,
                      dt=meta.get("dt", float("nan")))
    return traj, meta
