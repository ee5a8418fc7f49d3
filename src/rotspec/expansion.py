"""Long-time asymptotic expansion of trajectories, built order by order.

A zero-mean trajectory of the transformed system admits
v(t) ~ sum_n q_n(t) exp(-mu_n t), where mu_n runs through the additive
semigroup generated by the Stokes eigenvalues and each q_n is an oscillating
polynomial coefficient.  Orders are constructed recursively: the forcing at
order n is the bilinear product of all earlier pairs whose rates sum to
mu_n, solved shell by shell through the three-branch mode ODE.  On shells
where mu_n equals the Stokes eigenvalue the ODE leaves a free constant; it
is recovered from the trajectory through an exact integral identity (the
projected remainder plus the accumulated projected forcing is constant in
time), which makes the estimate window-independent instead of biased by
O(exp(-gap t)) like a plain limit.

The forcing is the rotated bilinear form
B_Omega(t, X, Y) = e^{Omega t S} B(e^{-Omega t S} X, e^{-Omega t S} Y),
an unrotated product with the rotation at its edges, as in fields: each
order is rotated into the u frame once (Expansion.u_orders), and each
symbolic product back on its own.  The rotation acts mode by mode, so it
commutes with the shell restriction R_mu and with the Leray projection:
R_mu B_Omega(t, X, Y) = e^{Omega t S} R_mu B(X_u, Y_u), X_u = e^{-Omega t S} X.
The fit forms its numeric products so (fields' _rotated_products), on the
resonant shell's representative half.

Everything here is a statement about the Galerkin system on the fixed
lattice: products falling outside the cutoff are dropped identically in the
integrator and in the symbolic bilinear form, so the expansion converges to
the computed trajectory, not merely to the PDE.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .lattice import Lattice, SemigroupTable, semigroup_table
from .fields import SpectralField, _gevrey_norms, _rotated_products, _shell_reps
from .spoly import (SPoly, _sum_spoly, antiderivative, apply_expS_spoly, bilinear_spoly,
                    ode_solve)
from .solver import Trajectory, _cumulative_simpson

__all__ = [
    "Expansion",
    "expand",
    "verify_expansion_system",
    "remainder_rate",
    "fit_decay_rate",
    "to_u_expansion",
    "time_average_Q",
]


# a resonant constant whose window means differ by more than this, relative,
# is flagged; expand needs at least MIN_SAMPLES uniformly spaced samples
XI_REL_TOL = 1e-6
MIN_SAMPLES = 64
# log of the largest float: e^x is beyond the float range for x above it
_LOG_MAX = float(np.log(np.finfo(float).max))


class Expansion:
    """Orders q_1..q_N of one v-form trajectory, with their rates and diagnostics."""

    def __init__(self, traj: Trajectory, table: SemigroupTable,
                 xi_windows: Sequence[Tuple[float, float]]):
        self.traj = traj
        self.table = table
        self.xi_windows = xi_windows
        self.mus: List[Fraction] = []
        self.orders: List[SPoly] = []
        self.u_orders: List[SPoly] = []  # exp(-Omega t S) q_n, each order rotated once
        self.forcings: List[SPoly] = []
        self.diagnostics: List[dict] = []
        # exp(-mu_n t) q_n(t) at the trajectory's sample times, an (R,M,3) stack per order
        self.samples: List[np.ndarray] = []

    @property
    def lattice(self) -> Lattice:
        return self.traj.lattice

    @property
    def omega(self) -> float:
        return self.traj.omega

    @property
    def n_orders(self) -> int:
        return len(self.orders)

    def partial_sum(self, n: Optional[int] = None) -> np.ndarray:
        """sum_{m<=n} q_m(t) exp(-mu_m t) at the trajectory's sample times:
        the first n cached samples added, (R,M,3)."""
        n = self.n_orders if n is None else n
        return sum(self.samples[:n], np.zeros(self.traj.coeffs.shape, complex))

    def __repr__(self):
        mus = [str(m) for m in self.mus]
        return f"Expansion(orders={self.n_orders}, mu={mus}, omega={self.omega})"


def expand(traj: Trajectory, n_orders: int,
           xi_windows: Optional[Sequence[Tuple[float, float]]] = None) -> Expansion:
    """Build the first n_orders terms of the expansion of a v-form trajectory.

    xi_windows: one or more disjoint (t0, t1) windows for recovering the
    resonant constants; each constant is the mean of the integral-identity
    estimate over their union, and the spread between window means is
    reported as a consistency diagnostic.  None takes 50-70 % and 70-90 %
    of the run.

    Each order is q_n(t) e^{-mu_n t} in absolute t, so q_n and the fit's
    weights carry e^{mu_n t}, and norms square them: a run whose first or
    last sample time t puts e^{2 mu_n |t|} beyond the float range raises
    ValueError first, naming that time.
    """
    if n_orders < 1:
        raise ValueError(f"order must be at least 1, got {n_orders}")
    if traj.form != "v":
        raise ValueError("expansion is built in the transformed frame; "
                         "pass a v-form trajectory (see transform_trajectory)")
    traj.uniform_spacing(MIN_SAMPLES)
    ts = traj.times
    lat = traj.lattice
    if xi_windows is None:
        t0, span = float(ts[0]), float(ts[-1]) - float(ts[0])
        xi_windows = ((t0 + 0.50 * span, t0 + 0.70 * span),
                      (t0 + 0.70 * span, t0 + 0.90 * span))

    # the smallest eigenvalue is 1, so 1..n_orders+1 are all semigroup elements
    table = semigroup_table(lat, max(lat.cutoff, n_orders + 1))
    # e^{mu t} overflows at late times and underflows at early negative ones
    t_first, t_last = float(ts[0]), float(ts[-1])
    which, t_far = ("first", t_first) if abs(t_first) > abs(t_last) else ("last", t_last)
    for n, mu in enumerate(table.mu[:n_orders]):
        if 2.0 * float(mu) * abs(t_far) > _LOG_MAX:
            raise ValueError(f"order {n + 1} (mu = {mu}) cannot be expanded at the {which} "
                             f"sample time t = {t_far!r}: e^(2 mu |t|) is beyond the float range")
    exp = Expansion(traj, table, xi_windows)

    for n in range(n_orders):
        mu = table.mu[n]
        products = []
        truncated = False
        for (a, b) in table.decompositions[n]:
            if exp.orders[a].is_zero or exp.orders[b].is_zero:
                continue
            # support of the product can reach (sqrt(La)+sqrt(Lb))^2; the
            # Galerkin convolution silently drops anything past the cutoff
            la, lb = exp.orders[a].support_lams()[-1], exp.orders[b].support_lams()[-1]
            if (math.sqrt(float(la)) + math.sqrt(float(lb))) ** 2 > float(lat.cutoff):
                truncated = True
            products.append(-apply_expS_spoly(
                bilinear_spoly(exp.u_orders[a], exp.u_orders[b]), exp.omega))
        forcing = _sum_spoly(products) if products else SPoly.zero(lat)

        particular = SPoly.zero(lat)
        if not forcing.is_zero:
            for lam in forcing.support_lams():
                shell_forcing = forcing.restrict_shell(lam)
                particular = particular + ode_solve(lam - mu, shell_forcing)

        resonant = lat.shell(mu) >= 0
        diag = {"mu": float(mu), "resonant": resonant, "support_truncated": truncated}
        q = particular
        if resonant:
            xi, fit_diag = _fit_resonant_constant(exp, mu, particular)
            diag.update(fit_diag)
            if np.any(xi.coeffs):
                q = q + SPoly.from_field(xi)
        exp.mus.append(mu)
        exp.orders.append(q)
        exp.u_orders.append(apply_expS_spoly(q, -exp.omega))
        exp.forcings.append(forcing)
        exp.diagnostics.append(diag)
        exp.samples.append(np.exp(-float(mu) * ts)[:, None, None] * q.evaluate_many(ts))
    return exp


def _shell_forcing(exp: Expansion, mu: Fraction) -> np.ndarray:
    """The nonlinear forcing of the fit on the shell mu at the sample times,
    R[B_Omega(t, r, v) + B_Omega(t, s, r) + sum_a B_Omega(t, s_a, sum_b s_b)],
    (R, n, 3) on the shell's n representative modes (_shell_reps), with v
    the trajectory, s_m the cached samples of order m, s their sum,
    r = v - s, and (a, b) the live orders with mu_a + mu_b > mu.

    Formed in the u frame by fields' _rotated_products: per block, r_u,
    s_u and the partner sums come from the rotated v and live samples.
    """
    live = [m for m in range(exp.n_orders) if not exp.orders[m].is_zero]
    pairs = [(i, bs) for i, a in enumerate(live)
             if (bs := [j for j, b in enumerate(live) if exp.mus[a] + exp.mus[b] > mu])]

    def form(B, u, *su):
        s_u = sum(su, np.zeros_like(u))
        r_u = u - s_u
        acc = B(r_u, u)
        if su:  # before the first order the partial sum is zero
            acc += B(s_u, r_u)
        for a, bs in pairs:
            acc += B(su[a], sum(su[b] for b in bs))
        return acc

    inputs = [exp.traj.coeffs, *(exp.samples[m] for m in live)]
    return _rotated_products(exp.lattice, mu, exp.traj.times, exp.omega, inputs, form)


def _fit_resonant_constant(exp: Expansion, mu: Fraction,
                           particular: SPoly) -> Tuple[SpectralField, dict]:
    """Recover the free constant on the resonant shell from the trajectory.

    With r = v - (partial sum), the projected quantity
        z(t) = e^{mu t} R r(t) - R particular(t)
    satisfies z' = g with g = -e^{mu t} times the shell forcing below;
    hence xi = z(t) + int_t^inf g.  The tail beyond the last sample is the
    same constant for every t, so it drops out of window comparisons and
    biases the value only by the (tiny) truncated integral.  The trajectory
    and the cached samples are exact conjugate pairs, and so is xi, so the
    fit works on the shell's representative modes (_shell_reps), all that
    SPoly.from_field reads; its reported norms are sqrt(2) times the half's.

    The forcing is R of B_Omega(r, v) + B_Omega(s, r), s the partial sum,
    plus the pairs of earlier orders whose combined rate exceeds mu, formed
    in the u frame (_shell_forcing).  z reads the v-frame rows directly.

    The running integral of g is solver's _cumulative_simpson, the
    cumulative Simpson rule on the sample times, applied to g's real and
    imaginary parts.  Its result is laid out as scipy's cumulative_simpson
    lays it out, axis 0 last in memory: the window means below sum pairwise
    in memory order, and a C-ordered result of equal values moves xi's
    norm, window spread and drift rate by an ulp at some orders.
    """
    lat = exp.lattice
    ts = exp.traj.times
    reps = _shell_reps(lat, mu)
    emu = np.exp(float(mu) * ts)

    g = -emu[:, None, None] * _shell_forcing(exp, mu)
    G = _cumulative_simpson(g.real, ts) + 1j * _cumulative_simpson(g.imag, ts)
    # R r = R v - R s, the partial sum added as Expansion.partial_sum adds it
    s_shell = sum((x[:, reps] for x in exp.samples), np.zeros(g.shape, complex))
    z = emu[:, None, None] * (exp.traj.coeffs[:, reps] - s_shell)
    if not particular.is_zero:
        z = z - particular.restrict_shell(mu).evaluate_many(ts)[:, reps, :]
    xi_t = z + (G[-1] - G)

    means = []
    union = np.zeros(len(ts), dtype=bool)
    for (a, b) in exp.xi_windows:
        mask = (ts >= a) & (ts < b)  # half-open: touching windows stay disjoint
        if not mask.any():
            raise ValueError(f"fit window ({a}, {b}) contains no samples")
        union |= mask
        means.append(xi_t[mask].mean(axis=0))
    xi_u = xi_t[union]
    xi_bar = xi_u.mean(axis=0)
    scale = max(float(np.linalg.norm(xi_bar)), 1e-300)
    spread = max((float(np.linalg.norm(mi - mj)) / scale
                  for i, mi in enumerate(means) for mj in means[i + 1:]), default=0.0)
    # linear-drift rejection: a converged estimate is constant over the
    # union.  The least-squares line's columns 1 and t - mean(t) are
    # orthogonal, so its slope is sum((t - mean) y) / sum((t - mean)^2),
    # with y taken about its mean, whose product with the centred times is
    # zero only in exact arithmetic.
    tc = ts[union] - ts[union].mean()
    slope = (tc @ (xi_u - xi_bar).reshape(len(tc), -1)) / (tc @ tc)
    drift_rate = float(np.linalg.norm(slope)) / scale

    full = np.zeros((lat.n_modes, 3), dtype=complex)
    full[reps] = xi_bar
    diag = {
        "xi_norm": math.sqrt(2.0) * float(np.linalg.norm(xi_bar)),
        "xi_window_spread": spread,
        "xi_windows": [list(w) for w in exp.xi_windows],
        "xi_window_means_norm": [math.sqrt(2.0) * float(np.linalg.norm(m)) for m in means],
        "xi_drift_rate": drift_rate,
    }
    if spread > XI_REL_TOL:
        diag["xi_spread_warning"] = True
    if drift_rate > 1e-4:
        diag["xi_drift_warning"] = True
    return SpectralField(lat, full), diag


# ---------------------------------------------------------------------------
# verification and rate measurement


def verify_expansion_system(exp: Expansion) -> dict:
    """Symbolic residual q_n' + (A - mu_n) q_n - F_{n-1} per order.

    Exactness is per coefficient; the report is relative to the larger of
    the order and forcing magnitudes.
    """
    per_order = []
    for q, mu, forcing in zip(exp.orders, exp.mus, exp.forcings):
        residual = q.differentiate() + q.apply_stokes() - q.scale(float(mu)) - forcing
        scale = max(q.max_abs(), forcing.max_abs(), 1e-300)
        per_order.append(residual.max_abs() / scale)
    return {"per_order": per_order, "max_residual": max(per_order) if per_order else 0.0}


def _lstsq_cov(X: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of X c = y and their covariance from the residual."""
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    dof = max(len(y) - X.shape[1], 1)
    cov = np.linalg.inv(X.T @ X) * float(resid @ resid) / dof
    return coef, cov


def _fit_log_slope(t: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    """Least-squares decay rate of y ~ C exp(-s t); returns (s, half width).

    The half width is a 2-sigma confidence from the fit residual, useful to
    compare rates measured on different data sets.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = y > 0
    t, y = t[mask], y[mask]
    if len(t) < 3:
        raise ValueError("need at least 3 positive samples for a rate fit")
    coef, cov = _lstsq_cov(np.column_stack([np.ones_like(t), -t]), np.log(y))
    return float(coef[1]), 2.0 * float(np.sqrt(cov[1, 1]))


def fit_decay_rate(t: np.ndarray, y: np.ndarray) -> dict:
    """Decay rate of y ~ C t^b exp(-s t), the form resonant orders produce.

    Fitting the algebraic prefactor along with the exponent removes the
    downward bias (about b / mean t) a plain log-linear fit suffers when a
    resonant monomial dominates the remainder.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = (y > 0) & (t > 0)
    t, y = t[mask], y[mask]
    if len(t) < 4:
        raise ValueError("need at least 4 positive samples for a rate fit")
    coef, cov = _lstsq_cov(np.column_stack([np.ones_like(t), -t, np.log(t)]), np.log(y))
    plain, plain_half = _fit_log_slope(t, y)
    return {
        "slope": float(coef[1]),
        "confidence": 2.0 * float(np.sqrt(cov[1, 1])),
        "prefactor_power": float(coef[2]),
        "slope_plain": plain,
        "confidence_plain": plain_half,
    }


def remainder_rate(exp: Expansion, order: int,
                   window: Optional[Tuple[float, float]] = None,
                   alpha: float = 0.0, sigma: float = 0.0) -> dict:
    """Measured decay rate of the remainder of the expanded trajectory after
    subtracting `order` terms.

    The default window is the last third of the run, clipped where the
    remainder drops under 100x the integrator's error floor (dt^4 times the
    initial norm); a floor flag marks fits that clipped or sit near it.
    Returns the fitted rate with confidence and the semigroup prediction
    for the next rate.
    """
    if order < 1 or order > exp.n_orders:
        raise ValueError(f"order must be in 1..{exp.n_orders}")
    lat, traj = exp.lattice, exp.traj
    ts = traj.times
    rem = traj.coeffs - exp.partial_sum(order)
    norms = _gevrey_norms(lat, rem, alpha, sigma)

    norm0 = float(_gevrey_norms(lat, traj.coeffs[0]))
    dt_eff = traj.dt if np.isfinite(traj.dt) and traj.dt > 0 else float(ts[1] - ts[0])
    floor = dt_eff ** 4 * norm0

    if window is None:
        t0, t1 = float(ts[0]), float(ts[-1])
        window = (t0 + (t1 - t0) * 2.0 / 3.0, t1)
    mask = (ts >= window[0]) & (ts <= window[1])
    clipped = mask & (norms >= 100.0 * floor)
    flagged = bool(clipped.sum() < mask.sum())
    if clipped.sum() >= 8:
        mask = clipped
    try:
        fit = fit_decay_rate(ts[mask], norms[mask])
    except ValueError as e:
        raise ValueError(f"order {order} remainder: {e}") from None
    expected = float(exp.table.mu[order]) if order < len(exp.table.mu) else None
    fit.update({
        "expected": expected,
        "window": [float(window[0]), float(window[1])],
        "n_samples": int(mask.sum()),
        "floor_flag": flagged or bool(norms[mask].min() < 100.0 * floor),
        "floor_estimate": floor,
        "times": ts,
        "norms": norms,
    })
    return fit


# ---------------------------------------------------------------------------
# the untransformed expansion and sliding averages


def to_u_expansion(exp: Expansion) -> List[Tuple[Fraction, SPoly]]:
    """Oscillating coefficients of the original (rotating-frame) variable.

    u = exp(-Omega t S) v maps order-wise: Q_n = exp(-Omega t S) q_n, with
    identical rates; the wave group only reshuffles frequencies.
    """
    return list(zip(exp.mus, exp.u_orders))


def time_average_Q(q: SPoly, T: float) -> SPoly:
    """Sliding average (1/T) int_t^{t+T} q(s) ds, again an S-polynomial."""
    if T <= 0:
        raise ValueError("averaging window must be positive")
    F = antiderivative(q)
    return (F.time_shift(T) - F).scale(1.0 / T)
