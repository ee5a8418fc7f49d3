import math
from fractions import Fraction

import numpy as np
import pytest

from rotspec.fields import SpectralField, random_gevrey
from rotspec.lattice import build_lattice
from rotspec.solver import SolverConfig, Trajectory, integrate
from rotspec.spoly import SPoly, apply_expS_spoly
from rotspec.special import (
    DriftingSolution,
    MeanFlow,
    VkData,
    _eval_on_grid,
    _field_shift,
    helicity,
    helicity_series,
    linear_evolution,
    pde_residual,
    shift_trajectory,
    verify_ss_expansion,
)


def _value_at(u, x):
    """Pointwise field value, the slow way."""
    ph = np.exp(1j * (u.lattice.kcheck @ np.asarray(x, dtype=float)))
    return (u.coeffs * ph[:, None]).sum(axis=0) + u.mean


# -- single-ray data ---------------------------------------------------------

def test_vkdata_validation(cube6):
    with pytest.raises(ValueError):
        VkData((0, 0, 0), {1: np.array([1.0, 0, 0])})
    with pytest.raises(ValueError):
        VkData((1, 0, 0), {-1: np.array([0, 1.0, 0])})
    vk = VkData((1, 0, 0), {3: np.array([0, 1.0, 0])})
    with pytest.raises(ValueError, match="cutoff"):
        vk.field(cube6)  # 3^2 = 9 > 6
    with pytest.raises(ValueError, match="orthogonal"):
        VkData((1, 0, 0), {1: np.array([1.0, 1.0, 0])}).field(cube6)
    with pytest.raises(ValueError, match="harmonic 3"):
        VkData.random((1, 0, 0), (1, 3), seed=1, lattice=cube6)


def test_vkdata_random(cube6):
    vk = VkData.random((1, 1, 0), (1,), seed=3, lattice=cube6, amplitude=0.5)
    assert vk.max_harmonic() == 1
    u = vk.field(cube6)
    assert u.divergence_error() < 1e-12
    assert u.reality_error() == 0.0
    again = VkData.random((1, 1, 0), (1,), seed=3, lattice=cube6, amplitude=0.5)
    np.testing.assert_array_equal(vk.coeffs[1], again.coeffs[1])


def test_ray_run_stays_on_ray(cube6):
    """Nonlinear integration of ray data never populates off-ray modes."""
    vk = VkData.random((1, 0, 0), (1, 2), seed=5, lattice=cube6, amplitude=0.3)
    u0 = vk.field(cube6)
    traj = integrate(u0, SolverConfig(dt=0.02, t_end=1.0, omega=4.0, form="u"))
    ray = set(cube6.index_of([(m, 0, 0) for m in (-2, -1, 1, 2)]).tolist())
    off = np.array([i for i in range(cube6.n_modes) if i not in ray])
    assert np.abs(traj.coeffs[:, off, :]).max() == 0.0
    for i, t in enumerate(traj.times):
        want = linear_evolution(u0, float(t), 4.0)
        np.testing.assert_allclose(traj.coeffs[i], want.coeffs, atol=1e-13)


def test_linear_evolution_rodrigues(cube6):
    """Per-mode check against the axis-angle rotation formula."""
    u0 = random_gevrey(cube6, seed=1, amplitude=1.0)
    om, t = 3.0, 0.8
    got = linear_evolution(u0, t, om)
    for i in range(cube6.n_modes):
        axis = cube6.ktil[i]
        theta = -om * cube6.kt3[i] * t
        K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
        R = math.cos(theta) * np.eye(3) + math.sin(theta) * K \
            + (1 - math.cos(theta)) * np.outer(axis, axis)
        want = math.exp(-cube6.lam_f[i] * t) * (R @ u0.coeffs[i])
        np.testing.assert_allclose(got.coeffs[i], want, atol=1e-14)


# -- helicity ----------------------------------------------------------------

def test_helicity_beltrami():
    # u = (0, sin x1, cos x1) satisfies curl u = u, so H = |u|^2 = (2 pi)^3
    lat = build_lattice(cutoff=2)
    u = SpectralField.from_modes(lat, {(1, 0, 0): [0.0, -0.5j, 0.5]})
    assert helicity(u) == pytest.approx((2 * math.pi) ** 3, rel=1e-13)
    assert helicity(u) == pytest.approx(u.norm() ** 2, rel=1e-13)


def test_helicity_grid_quadrature():
    lat = build_lattice(cutoff=3)
    u = random_gevrey(lat, seed=4, amplitude=1.0)
    n = 8
    uu = _eval_on_grid(lat, u.coeffs, np.zeros(3), n).real
    curl_c = 1j * np.cross(lat.kcheck, u.coeffs)
    cc = _eval_on_grid(lat, curl_c, np.zeros(3), n).real
    want = lat.volume * (uu * cc).sum() / n**3
    assert helicity(u) == pytest.approx(want, rel=1e-11)


def test_helicity_series_rotation_invariant(cube6):
    vk = VkData.random((1, 0, 0), (1, 2), seed=6, lattice=cube6)
    u0 = vk.field(cube6)
    ts = np.array([0.0, 0.2, 0.5, 1.0])
    series = helicity_series(vk, cube6, ts)
    scale = abs(series[0])
    assert scale > 1e-6
    for om in (0.0, 3.0, 11.0):
        for j, t in enumerate(ts):
            got = helicity(linear_evolution(u0, float(t), om))
            assert got == pytest.approx(series[j], rel=1e-11)


def test_helicity_aligned_phase_is_zero(cube6):
    # Re and Im of every coefficient parallel -> helicity identically zero
    i = cube6.index_of((1, 1, 0))
    z = cube6.proj[i] @ np.array([1.0, -0.4, 0.7])
    vk = VkData((1, 1, 0), {1: (1.0 + 2.0j) * z})
    u = vk.field(cube6)
    assert abs(helicity(u)) < 1e-14 * u.norm() ** 2
    assert np.abs(helicity_series(vk, cube6, np.array([0.0, 0.3]))).max() == 0.0


# -- mean flow and drift -----------------------------------------------------

def test_mean_flow_kinematics():
    flow = MeanFlow(np.array([0.8, -0.3, 0.5]), omega=3.0)
    np.testing.assert_allclose(flow.V(0.0), 0.0, atol=1e-15)
    np.testing.assert_allclose(flow.U(0.0), flow.U0)
    h = 1e-6
    for t in (0.0, 0.4, 1.3):
        fd = (flow.V(t + h) - flow.V(t - h)) / (2 * h)
        np.testing.assert_allclose(fd, flow.U(t), atol=1e-8)
        assert np.linalg.norm(flow.U(t)) == pytest.approx(np.linalg.norm(flow.U0), rel=1e-14)
    tiny = MeanFlow(flow.U0, omega=1e-8)
    frozen = MeanFlow(flow.U0, omega=0.0)
    np.testing.assert_allclose(tiny.V(1.0), frozen.V(1.0), atol=1e-6)
    np.testing.assert_allclose(frozen.V(2.0), 2.0 * flow.U0)


def test_field_shift_pointwise(cube6):
    u = random_gevrey(cube6, seed=7, amplitude=1.0)
    s = np.array([0.3, -1.1, 0.7])
    shifted = _field_shift(u, s, mean_delta=[1.0, 0.0, 0.0])
    for x in (np.zeros(3), np.array([0.5, 0.2, -0.9])):
        want = _value_at(u, x + s) + np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(_value_at(shifted, x), want, atol=1e-12)


def test_eval_on_grid_matches_pointwise():
    lat = build_lattice(ell=(1, 1, "1/2"), cutoff=5)
    u = random_gevrey(lat, seed=8, amplitude=1.0)
    u.mean[:] = [0.2, 0.0, -0.1]
    n = 4
    grid = _eval_on_grid(lat, u.coeffs, u.mean, n)
    for idx in ((0, 0, 0), (1, 3, 2), (3, 1, 0)):
        x = np.array([idx[j] * lat.L[j] / n for j in range(3)])
        np.testing.assert_allclose(grid[idx], _value_at(u, x), atol=1e-12)


def test_shift_trajectory_roundtrip(cube6):
    v0 = random_gevrey(cube6, seed=9, amplitude=0.2)
    traj = integrate(v0, SolverConfig(dt=0.01, t_end=0.3, omega=2.0, form="u"))
    flow = MeanFlow(np.array([1.0, 0.5, -0.25]), omega=2.0)
    moved, means = shift_trajectory(traj, flow, "to_u")
    np.testing.assert_allclose(means[5], flow.U(float(traj.times[5])), atol=1e-14)
    back, _ = shift_trajectory(moved, flow, "to_w")
    np.testing.assert_allclose(back.coeffs, traj.coeffs, atol=1e-15)
    with pytest.raises(ValueError):
        shift_trajectory(traj, flow, "sideways")


# -- the drifting solution ---------------------------------------------------

@pytest.fixture(scope="module")
def drifting():
    lat = build_lattice(cutoff=6)
    vk = VkData.random((1, 1, 1), (1,), seed=10, lattice=lat)
    flow = MeanFlow(np.array([1.0, 0.5, -0.25]), omega=3.0)
    return DriftingSolution(vk, flow, lat)


def test_drifting_velocity_dt(drifting):
    h = 1e-3
    w = np.array([-1.0, 9.0, -45.0, 45.0, -9.0, 1.0]) / 60.0
    off = np.array([-3, -2, -1, 1, 2, 3])
    for t in (0.1, 0.7):
        fd_c = sum(wi * drifting.velocity(t + oi * h).coeffs for wi, oi in zip(w, off)) / h
        fd_m = sum(wi * drifting.velocity(t + oi * h).mean for wi, oi in zip(w, off)) / h
        ex = drifting.velocity_dt(t)
        np.testing.assert_allclose(ex.coeffs, fd_c, atol=1e-10)
        np.testing.assert_allclose(ex.mean, fd_m, atol=1e-10)


def test_drifting_velocity_dt_matches_real_operator_bits(drifting):
    """velocity_dt's J_k product gives the bits of the formula with the real
    operator, as einsum casts it."""
    lat = drifting.lattice
    for t in (0.0, 0.1, 0.7, 3.3):
        u = drifting.velocity(t)
        drift_rate = 1j * (lat.kcheck @ drifting.flow.U(t))
        rot = np.einsum("mij,mj->mi", lat.jk, u.coeffs)
        want = (-(lat.lam_f + 0j) - drift_rate)[:, None] * u.coeffs \
            - (drifting.omega * lat.kt3)[:, None] * rot
        got = drifting.velocity_dt(t)
        np.testing.assert_array_equal(got.coeffs.view(np.uint64), want.view(np.uint64))


def test_pressure_structure(drifting):
    p = drifting.pressure(0.4)
    assert (0, 0, 0) not in p
    for k, v in p.items():
        assert p[tuple(-c for c in k)] == np.conj(v)
    assert max(abs(v) for v in p.values()) > 1e-3
    # vertical ray: Coriolis force stays in the projection plane, no pressure
    lat = drifting.lattice
    vert = DriftingSolution(VkData.random((0, 0, 1), (1,), seed=11, lattice=lat),
                            drifting.flow, lat)
    pv = vert.pressure(0.4)
    assert all(v == 0 for v in pv.values())
    still = DriftingSolution(drifting.vk, MeanFlow(drifting.flow.U0, 0.0), lat)
    assert still.pressure(0.4) == {}


def test_momentum_residual_exact_dt(drifting):
    out = pde_residual(drifting.velocity, drifting.pressure, drifting.omega,
                       times=[0.0, 0.3, 0.7], grid_n=16,
                       velocity_dt=drifting.velocity_dt)
    assert out["max_residual"] < 1e-12


def test_momentum_residual_negative_controls(drifting):
    no_p = pde_residual(drifting.velocity, lambda t: {}, drifting.omega,
                        times=[0.3], grid_n=16, velocity_dt=drifting.velocity_dt)
    assert no_p["max_residual"] > 1e-2
    wrong_om = pde_residual(drifting.velocity, drifting.pressure, 2 * drifting.omega,
                            times=[0.3], grid_n=16, velocity_dt=drifting.velocity_dt)
    assert wrong_om["max_residual"] > 1e-2
    with pytest.raises(ValueError, match=r"\(9, 0, 0\) is outside the lattice"):
        pde_residual(drifting.velocity, lambda t: {(9, 0, 0): 1.0}, drifting.omega,
                     times=[0.3], grid_n=16, velocity_dt=drifting.velocity_dt)


# -- drifting expansion ------------------------------------------------------

def _linear_terms(u0, omega):
    """[(lam, Q)] of the linear flow u(t) = sum Q(t) exp(-lam t) from u0:
    Q = exp(-Omega t S) R_lam u0 on each shell that u0 occupies."""
    parts = []
    for lam in u0.lattice.eigenvalues:
        idx = u0.lattice.shell_indices(lam)
        c = np.zeros_like(u0.coeffs)
        c[idx] = u0.coeffs[idx]
        parts.append((lam, SpectralField(u0.lattice, c)))
    return [(lam, apply_expS_spoly(SPoly.from_field(part), -omega))
            for lam, part in parts if part.coeffs.any()]


@pytest.mark.parametrize("omega", [4.0, 0.0])
def test_verify_ss_expansion(cube6, omega):
    vk = VkData.random((1, 0, 0), (1, 2), seed=12, lattice=cube6)
    flow = MeanFlow(np.array([0.7, -0.2, 0.4]), omega=omega)
    sol = DriftingSolution(vk, flow, cube6)
    ts = np.linspace(0.0, 4.0, 401)
    coeffs = np.array([sol.velocity(float(t)).coeffs for t in ts])
    means = np.array([sol.velocity(float(t)).mean for t in ts])
    traj = Trajectory(cube6, "u", flow.omega, ts, coeffs, dt=ts[1] - ts[0])

    terms = _linear_terms(sol.base, flow.omega)
    assert [mu for mu, _ in terms] == [Fraction(1), Fraction(4)]
    # keeping only the first shell leaves a remainder decaying at the next rate
    fit = verify_ss_expansion(traj, means, flow, terms[:1])
    assert fit["slope"] == pytest.approx(4.0, abs=1e-6)
    assert fit["mean_mismatch"] < 1e-14
    assert fit["window"] == [2.0, 4.0]
