"""Closed-form special solutions, helicity, and mean-drift transformations.

Single-ray spectral data (all wave vectors on one line through the origin)
makes the advection term vanish identically, so the full nonlinear dynamics
reduces to the linear rotating Stokes flow with per-shell closed forms.
Adding a spatial mean produces an exactly drifting solution whose phases
oscillate at the rotation rate; its pressure balances the unprojected part
of the Coriolis force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .lattice import Lattice
from .fields import (SpectralField, _J_VERT, _along_k, _apply_jk, _gevrey_norms,
                     _modes_of, _rotate_by, convolve_advect)
from .spoly import SPoly
from .solver import Trajectory
from .expansion import fit_decay_rate

__all__ = [
    "VkData",
    "MeanFlow",
    "linear_evolution",
    "helicity",
    "helicity_series",
    "shift_trajectory",
    "DriftingSolution",
    "pde_residual",
    "verify_ss_expansion",
]

_E3 = np.array([0.0, 0.0, 1.0])


@dataclass
class VkData:
    """Spectral data supported on one integer ray {m*k : m != 0}.

    `coeffs` maps positive m to the coefficient at m*k; negative harmonics
    follow from the reality pairing.  Coefficients must be orthogonal to the
    ray direction.
    """

    k: Tuple[int, int, int]
    coeffs: Dict[int, np.ndarray]

    def __post_init__(self):
        self.k = tuple(int(c) for c in self.k)
        if all(c == 0 for c in self.k):
            raise ValueError("ray direction must be nonzero")
        self.coeffs = {int(m): np.asarray(z, dtype=complex) for m, z in self.coeffs.items()}
        if any(m <= 0 for m in self.coeffs):
            raise ValueError("store only positive harmonics; negatives are implied")

    def max_harmonic(self) -> int:
        return max(self.coeffs)

    def field(self, lattice: Lattice) -> SpectralField:
        modes = {}
        for m, z in self.coeffs.items():
            i = _harmonic_index(lattice, self.k, m)
            if _along_k(lattice, [i], np.stack([z.real, z.imag])[:, None])[0]:
                raise ValueError(f"harmonic {m} is not orthogonal to the ray")
            modes[tuple(m * c for c in self.k)] = z
        return SpectralField.from_modes(lattice, modes)

    @staticmethod
    def random(k: Sequence[int], harmonics: Sequence[int], seed: int,
               lattice: Lattice, amplitude: float = 1.0) -> "VkData":
        """Seeded data with the stated positive harmonics, ray-orthogonal."""
        rng = np.random.default_rng(seed)
        coeffs = {}
        for m in harmonics:
            i = _harmonic_index(lattice, k, m)
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z = lattice.proj[i] @ z
            n = float(np.abs(z).max())
            coeffs[int(m)] = amplitude * z / (n if n else 1.0)
        return VkData(tuple(int(c) for c in k), coeffs)


def _harmonic_index(lattice: Lattice, k: Sequence[int], m: int) -> int:
    """Mode index of m*k; ValueError when it is not on the lattice."""
    km = tuple(int(m) * int(c) for c in k)
    i = int(lattice.index_of(km))
    if i < 0:
        raise ValueError(f"harmonic {m} (mode {km}) exceeds the lattice cutoff")
    return i


def linear_evolution(u0: SpectralField, t: float, omega: float) -> SpectralField:
    """exp(-tA) exp(-Omega t S) u0: per-shell decay composed with plane rotation.

    This is the exact trajectory of single-ray data under the full nonlinear
    system (the advection of colinear modes cancels identically).
    """
    lat = u0.lattice
    c = _rotate_by(lat, u0.coeffs, -omega, t) * np.exp(-lat.lam_f * t)[:, None]
    return SpectralField(lat, c, u0.mean)


# ---------------------------------------------------------------------------
# helicity


def helicity(u: SpectralField) -> float:
    """<curl u, u> via the spectral sum; real up to roundoff by pairing."""
    lat = u.lattice
    curl = 1j * np.cross(lat.kcheck, u.coeffs)
    s = complex(np.einsum("mc,mc->", curl, np.conj(u.coeffs)))
    return lat.volume * s.real


def helicity_series(vk: VkData, lattice: Lattice, ts: np.ndarray) -> np.ndarray:
    """Closed-form helicity decay of the single-ray solution.

    H(t) = vol * sum_{m>0} 4 m |kcheck| exp(-2 m^2 lam t)
           (Re u_m x Im u_m) . ktil   -- independent of the rotation rate.
    """
    ts = np.asarray(ts, dtype=float)
    i1 = _harmonic_index(lattice, vk.k, 1)
    lam1 = lattice.lam_f[i1]
    kmag = math.sqrt(lam1)
    ktil = lattice.ktil[i1]
    out = np.zeros_like(ts)
    for m, z in vk.coeffs.items():
        w = float(np.dot(np.cross(z.real, z.imag), ktil))
        out += 4.0 * m * kmag * w * np.exp(-2.0 * m * m * lam1 * ts)
    return lattice.volume * out


# ---------------------------------------------------------------------------
# mean flow and drift


@dataclass
class MeanFlow:
    """Spatial-mean rotation U(t) and its accumulated drift V(t)."""

    U0: np.ndarray
    omega: float

    def __post_init__(self):
        self.U0 = np.asarray(self.U0, dtype=float)

    def U(self, t: float) -> np.ndarray:
        om = self.omega
        c, s = math.cos(om * t), math.sin(om * t)
        R = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        return R @ self.U0

    def V(self, t: float) -> np.ndarray:
        om = self.omega
        if om == 0.0:
            return self.U0 * t
        c, s = math.cos(om * t), math.sin(om * t)
        M = np.array([[s, 1.0 - c, 0.0], [c - 1.0, s, 0.0], [0.0, 0.0, om * t]]) / om
        return M @ self.U0


def _field_shift(u: SpectralField, shift: np.ndarray,
                mean_delta: Optional[np.ndarray] = None) -> SpectralField:
    """u(x + shift) plus an optional mean offset (spectral phase multiply)."""
    lat = u.lattice
    phase = np.exp(1j * (lat.kcheck @ np.asarray(shift, dtype=float)))
    mean = u.mean + (0 if mean_delta is None else np.asarray(mean_delta, dtype=float))
    return SpectralField(lat, u.coeffs * phase[:, None], mean)


def _drift_phases(lat: Lattice, flow: MeanFlow, ts: np.ndarray) -> np.ndarray:
    """(R, M) drift phases exp(-i kcheck . V(t)), one row per time."""
    return np.array([np.exp(-1j * (lat.kcheck @ flow.V(float(t)))) for t in ts])


def shift_trajectory(traj: Trajectory, flow: MeanFlow, direction: str = "to_u") -> Tuple[Trajectory, np.ndarray]:
    """Hyper-Galilean transform of a whole trajectory.

    "to_u": from the zero-mean fluctuation w to u(x,t) = U(t) + w(x - V(t), t);
    "to_w": inverse.  Returns (trajectory, means) since Trajectory carries
    coefficients only; means is the (R,3) array of sample means.
    """
    if direction not in ("to_u", "to_w"):
        raise ValueError("direction must be 'to_u' or 'to_w'")
    lat = traj.lattice
    phases = _drift_phases(lat, flow, traj.times)
    means = np.array([flow.U(float(t)) for t in traj.times])
    if direction == "to_w":
        phases, means = np.conj(phases), -means
    out = traj.coeffs * phases[:, :, None]
    shifted = Trajectory(lat, traj.form, traj.omega, traj.times.copy(), out, dt=traj.dt)
    return shifted, means


# ---------------------------------------------------------------------------
# the exactly drifting single-ray solution with pressure


class DriftingSolution:
    """Velocity/pressure pair solving the rotating system with non-zero mean.

    u(x,t) = U(t) + (rotating-decaying ray solution evaluated at x - V(t));
    the pressure balances the out-of-plane part of the Coriolis term mode by
    mode.  Exposes exact time derivatives for residual checks.
    """

    def __init__(self, vk: VkData, flow: MeanFlow, lattice: Lattice):
        self.vk = vk
        self.flow = flow
        self.lattice = lattice
        self.omega = flow.omega
        self.base = vk.field(lattice)  # zero-mean initial fluctuation
        i1 = _harmonic_index(lattice, vk.k, 1)
        self._ktil = lattice.ktil[i1]
        self._kt3 = float(lattice.kt3[i1])

    # fluctuation part in the frame moving with the drift
    def _core(self, t: float) -> SpectralField:
        return linear_evolution(self.base, t, self.omega)

    def velocity(self, t: float) -> SpectralField:
        core = self._core(t)
        out = _field_shift(core, -self.flow.V(t))
        out.mean = self.flow.U(t)
        return out

    def velocity_dt(self, t: float) -> SpectralField:
        lat = self.lattice
        u = self.velocity(t)
        Ut = self.flow.U(t)
        drift_rate = 1j * (lat.kcheck @ Ut)
        c = (-(lat.lam_f + 0j) - drift_rate)[:, None] * u.coeffs \
            - (self.omega * lat.kt3)[:, None] * _apply_jk(lat, u.coeffs)
        dmean = -self.omega * (_J_VERT @ Ut)
        return SpectralField(lat, c, dmean)

    def pressure(self, t: float) -> Dict[Tuple[int, int, int], complex]:
        """Scalar Fourier coefficients of the balancing pressure (gauge p_* = 0)."""
        lat = self.lattice
        om = self.omega
        if om == 0.0:
            return {}
        theta = self._kt3 * om * t
        bracket = math.cos(theta) * (_J_VERT @ self._ktil) + math.sin(theta) * _E3
        out: Dict[Tuple[int, int, int], complex] = {}
        i1 = _harmonic_index(lat, self.vk.k, 1)
        kmag = math.sqrt(lat.lam_f[i1])
        V = self.flow.V(t)
        for m, z in self.vk.coeffs.items():
            i = _harmonic_index(lat, self.vk.k, m)
            km = tuple(m * c for c in self.vk.k)
            lam = lat.lam_f[i]
            phase = np.exp(-1j * float(np.dot(lat.kcheck[i], V)))
            val = -om * (1j / (m * kmag)) * math.exp(-lam * t) * phase * complex(np.dot(bracket, z))
            out[km] = val
            out[tuple(-c for c in km)] = np.conj(val)
        return out


# ---------------------------------------------------------------------------
# pointwise residual of the momentum equation on a quadrature grid


def _eval_on_grid(lattice: Lattice, coeffs: np.ndarray, mean: np.ndarray, n: int) -> np.ndarray:
    """Evaluate a spectral field on the uniform n^3 grid (complex output).

    Phases factorize over axes, so each mode adds an outer product of three
    one-dimensional phase vectors; no transform library involved.
    """
    axes = []
    for j in range(3):
        idx = np.arange(n)
        axes.append(np.exp(2j * np.pi * np.outer(lattice.ks[:, j], idx) / n))
    out = np.zeros((n, n, n, 3), dtype=complex)
    for i in range(lattice.n_modes):
        if not np.any(coeffs[i]):
            continue
        cube = axes[0][i][:, None, None] * axes[1][i][None, :, None] * axes[2][i][None, None, :]
        out += cube[..., None] * coeffs[i]
    out += np.asarray(mean, dtype=float)
    return out


def _advection_coeffs(lat: Lattice, C: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """(u.grad)u without Leray projection, mean advection included."""
    raw = convolve_advect(lat, C, C)
    raw = raw + (1j * (lat.kcheck @ np.asarray(mean, dtype=float)))[:, None] * C
    return raw


def pde_residual(velocity: Callable[[float], SpectralField],
                 pressure: Callable[[float], Dict[Tuple[int, int, int], complex]],
                 omega: float,
                 times: Sequence[float],
                 grid_n: int = 32, *,
                 velocity_dt: Callable[[float], SpectralField]) -> Dict:
    """Max pointwise residual of u_t - Lap(u) + (u.grad)u + grad p + Om e3 x u.

    The time derivative is the exact one `velocity_dt` gives.  The
    unprojected momentum equation is assembled in spectral space (advection
    by direct convolution, pressure gradient as i*kcheck*p_hat) and
    evaluated on the grid.
    """
    per_time = []
    for t in times:
        t = float(t)
        u = velocity(t)
        lat = u.lattice
        ut = velocity_dt(t)
        res_c = ut.coeffs.copy()
        res_c += lat.lam_f[:, None] * u.coeffs              # -Lap u
        res_c += _advection_coeffs(lat, u.coeffs, u.mean)   # (u.grad)u
        res_c += omega * np.einsum("ij,mj->mi", _J_VERT, u.coeffs)  # Om e3 x u
        p = pressure(t) if pressure is not None else {}
        idx = _modes_of(lat, np.array(list(p), dtype=np.int64).reshape(-1, 3))
        for i, ph in zip(idx, p.values()):
            res_c[i] += 1j * lat.kcheck[i] * ph             # grad p
        res_mean = ut.mean + omega * (_J_VERT @ u.mean)
        grid = _eval_on_grid(lat, res_c, res_mean, grid_n)
        per_time.append(float(np.abs(grid).max()))
    return {
        "times": [float(t) for t in times],
        "per_time": per_time,
        "max_residual": max(per_time),
        "grid_n": grid_n,
    }


# ---------------------------------------------------------------------------
# expansion of the drifting solution


def verify_ss_expansion(u_traj: Trajectory, means: np.ndarray, flow: MeanFlow,
                        orders: Sequence[Tuple[Fraction, SPoly]],
                        window: Optional[Tuple[float, float]] = None,
                        alpha: float = 0.0, sigma: float = 0.0) -> Dict:
    """Remainder decay of the phase-shifted expansion against a drifting run.

    `u_traj` carries the fluctuation coefficients of the drifting solution
    (means supplied separately); `orders` are the rotating-frame oscillating
    coefficients of the underlying zero-mean problem.  Their sum is multiplied
    by the drift phases exp(-i kcheck . V(t)) and subtracted; the log-slope of
    the remainder norm is fitted over the window (default: second half).
    """
    lat = u_traj.lattice
    ts = u_traj.times
    approx = np.zeros(u_traj.coeffs.shape, dtype=complex)
    for mu, Q in orders:
        approx += np.exp(-float(mu) * ts)[:, None, None] * Q.evaluate_many(ts)
    rem = u_traj.coeffs - approx * _drift_phases(lat, flow, ts)[:, :, None]
    norms = _gevrey_norms(lat, rem, alpha, sigma)
    if window is None:
        window = (0.5 * (ts[0] + ts[-1]), ts[-1])
    mask = (ts >= window[0]) & (ts <= window[1]) & (norms > 0)
    fit = fit_decay_rate(ts[mask], norms[mask])
    mean_err = float(np.abs(means - np.array([flow.U(t) for t in ts])).max())
    fit.update({
        "window": [float(window[0]), float(window[1])],
        "remainder_norms": norms,
        "times": ts,
        "mean_mismatch": mean_err,
    })
    return fit
