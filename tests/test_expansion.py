import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import simpson

from rotspec.expansion import (
    _fit_log_slope,
    _shell_forcing,
    expand,
    fit_decay_rate,
    remainder_rate,
    time_average_Q,
    to_u_expansion,
    verify_expansion_system,
)
from rotspec.fields import SpectralField, _rotate_by, advect, random_gevrey
from rotspec.lattice import build_lattice
from rotspec.solver import SolverConfig, Trajectory, integrate
from rotspec.spoly import Frequency, SPoly, apply_expS_spoly, bilinear_spoly


def _zero_traj(lat, n=101, t1=1.0, omega=5.0):
    return Trajectory(lat, "v", omega, np.linspace(0.0, t1, n),
                      np.zeros((n, lat.n_modes, 3), dtype=complex), dt=t1 / (n - 1))


def test_rates_and_diagnostics(cube_run):
    exp = cube_run["exp"]
    assert exp.mus == [Fraction(1), Fraction(2)]
    assert [d["resonant"] for d in exp.diagnostics] == [True, True]
    for d in exp.diagnostics:
        assert not d["support_truncated"]
        assert d["xi_norm"] > 1e-4
        assert d["xi_window_spread"] < 1e-6
        assert d["xi_drift_rate"] < 1e-4
        assert "xi_spread_warning" not in d
        assert "xi_drift_warning" not in d
    assert exp.diagnostics[0]["xi_windows"] == [[6.0, 8.0], [8.0, 10.0]]


def test_symbolic_residuals(cube_run):
    ver = verify_expansion_system(cube_run["exp"])
    assert ver["max_residual"] < 1e-12
    assert len(ver["per_order"]) == 2


def test_remainder_rate_ladder(cube_run):
    exp, trajv = cube_run["exp"], cube_run["trajv"]
    r1 = remainder_rate(exp, 1, window=(4.0, 9.0))
    r2 = remainder_rate(exp, 2, window=(3.0, 6.5))
    assert r1["expected"] == 2.0 and r2["expected"] == 3.0
    assert not r1["floor_flag"] and not r2["floor_flag"]
    assert 1.9 < r1["slope"] < 2.1
    assert 2.85 < r2["slope"] < 3.15
    assert r1["confidence"] < 1e-4 and r2["confidence"] < 1e-4
    # each subtracted order buys at least half a unit of decay rate
    assert r2["slope"] >= r1["slope"] + 0.5
    assert r1["n_samples"] == 5001
    assert len(r1["times"]) == trajv.n_samples


def test_remainder_floor_flag(cube_run):
    exp = cube_run["exp"]
    deep = remainder_rate(exp, 2, window=(9.5, 12.0))
    assert deep["floor_flag"]
    assert deep["floor_estimate"] == pytest.approx(1e-12 * 0.1, rel=1e-6)
    with pytest.raises(ValueError):
        remainder_rate(exp, 0)
    with pytest.raises(ValueError):
        remainder_rate(exp, 3)


def test_gevrey_tail_rate(cube_run):
    """The strongest norm still decays at the bottom eigenvalue rate."""
    trajv = cube_run["trajv"]
    ts = trajv.times
    mask = ts >= 8.0
    fit = fit_decay_rate(ts[mask], trajv.norms(0.5, 1.0)[mask])
    assert 0.95 < fit["slope"] < 1.05


def test_xi_window_independence(cube_run, monkeypatch):
    """The integral-identity estimate does not depend on the fit windows."""
    exp = cube_run["exp"]
    monkeypatch.setattr("rotspec.expansion.XI_REL_TOL", 1e-30)
    other = expand(cube_run["trajv"], 1, xi_windows=((4.0, 5.5), (9.0, 11.0)))
    diff = (exp.orders[0] - other.orders[0]).max_abs()
    assert diff < 1e-10 * exp.orders[0].max_abs()
    assert other.diagnostics[0]["xi_spread_warning"]  # impossible tolerance trips the flag


@pytest.fixture(scope="module")
def o4_run(cube6):
    """Orders 1-4 on the benchmark's cube6-o4 input (seed 1), with every
    symbolic product `expand` forms recorded as a pair of order indices."""
    v0 = random_gevrey(cube6, seed=1, amplitude=0.1)
    trajv = integrate(v0, SolverConfig(dt=0.01, t_end=12.0, omega=5.0, form="v",
                                       record_stride=2))
    products = []

    def counted(f, g, omega):
        products.append((f, g))
        return bilinear_spoly(f, g, omega)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("rotspec.expansion.bilinear_spoly", counted)
        exp = expand(trajv, 4, xi_windows=((6.0, 8.0), (8.0, 10.0)))
    index = {id(q): n for n, q in enumerate(exp.orders)}
    pairs = [(index[id(f)], index[id(g)]) for f, g in products]
    return {"trajv": trajv, "exp": exp, "pairs": pairs}


def test_fourth_order_expansion(o4_run):
    exp = o4_run["exp"]
    assert exp.mus == [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
    assert verify_expansion_system(exp)["max_residual"] <= 1e-12
    for d in exp.diagnostics:
        assert not any(k.startswith("xi_") and k.endswith("_warning") for k in d)
    assert [q.n_terms() for q in exp.orders] == [3, 24, 171, 447]
    # one symbolic product per forcing pair; the fit's faster pairs are numeric
    assert sorted(o4_run["pairs"]) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


def test_fifth_order_expansion(o4_run):
    """Order 5 on the same trajectory: term counts and exact symbolic residuals.
    The resonant fit warns at this order, so its warnings are not checked."""
    exp = expand(o4_run["trajv"], 5, xi_windows=((6.0, 8.0), (8.0, 10.0)))
    assert exp.mus == [Fraction(n) for n in range(1, 6)]
    assert [q.n_terms() for q in exp.orders] == [3, 24, 171, 447, 875]
    assert verify_expansion_system(exp)["max_residual"] <= 1e-12


def test_term_counts_do_not_move_with_roundoff(o4_run):
    """Four perturbations of the trajectory at 1e-15 relative move no term
    count at orders 1-5: terms that are round-off are dropped (spoly's module
    docstring), so the counts follow the expansion, not the last bits."""
    trajv = o4_run["trajv"]
    lat = trajv.lattice
    rep = np.flatnonzero(lat.rep_mask)
    counts = set()
    for seed in range(4):
        coeffs = trajv.coeffs.copy()
        noise = np.random.default_rng(seed).standard_normal(coeffs[:, rep].shape)
        coeffs[:, rep] *= 1 + 1e-15 * noise
        coeffs[:, lat.conj_idx[rep]] = np.conj(coeffs[:, rep])
        assert not np.array_equal(coeffs, trajv.coeffs)
        traj = Trajectory(lat, "v", trajv.omega, trajv.times, coeffs, dt=trajv.dt)
        exp = expand(traj, 5, xi_windows=((6.0, 8.0), (8.0, 10.0)))
        counts.add(tuple(q.n_terms() for q in exp.orders))
    assert counts == {(3, 24, 171, 447, 875)}


def test_partial_sum_cached_at_sample_times(o4_run):
    """The cached samples give the evaluated sum bit for bit."""
    exp, ts = o4_run["exp"], o4_run["trajv"].times
    assert exp.traj is o4_run["trajv"]
    want = np.zeros((len(ts), exp.lattice.n_modes, 3), dtype=complex)
    for n in range(exp.n_orders + 1):
        assert np.array_equal(exp.partial_sum(n), want)
        if n < exp.n_orders:
            want += np.exp(-float(exp.mus[n]) * ts)[:, None, None] \
                * exp.orders[n].evaluate_many(ts)


@pytest.fixture(scope="module")
def fast_run():
    """Orders 1-3 of a cutoff-3 run with large data at early times, where the
    pairs of orders with mu_a + mu_b > mu carry a sizeable share of each
    shell's whole nonlinear term."""
    lat = build_lattice(cutoff=3)
    v0 = random_gevrey(lat, seed=5, amplitude=2.0)
    traj = integrate(v0, SolverConfig(dt=0.01, t_end=1.0, omega=3.0, form="v"))
    exp = expand(traj, 3)
    assert not any(q.is_zero for q in exp.orders)
    return exp


def _v_frame_forcing(exp, mu, shell):
    """The fit's shell forcing as a sum of v-frame B_Omega products (advect's
    rotating path), split into the remainder products and the fast pairs."""
    lat, ts, v = exp.lattice, exp.traj.times, exp.traj.coeffs
    s = exp.partial_sum()
    r = v - s
    whole = advect(lat, r, v, ts, exp.omega, mu)[:, shell] \
        + advect(lat, s, r, ts, exp.omega, mu)[:, shell]
    fast = np.zeros_like(whole)
    for a in range(exp.n_orders):
        bs = [b for b in range(exp.n_orders) if exp.mus[a] + exp.mus[b] > mu]
        if bs:
            Y = sum(exp.samples[b] for b in bs)
            fast += advect(lat, exp.samples[a], Y, ts, exp.omega, mu)[:, shell]
    return whole, fast


def test_fast_pair_forcing_matches_symbolic(fast_run):
    """The fit's numeric sum over pairs with mu_a + mu_b > mu equals the
    symbolic one: shell-restricted full products, each with its own decay.
    The fit's forcing holds these pairs next to the remainder products, which
    are taken here through advect."""
    exp = fast_run
    lat, ts = exp.lattice, exp.traj.times
    for mu in exp.mus:
        shell = lat.shell_indices(mu)
        want = np.zeros((len(ts), len(shell), 3), dtype=complex)
        for a in range(exp.n_orders):
            for b in range(exp.n_orders):
                total = exp.mus[a] + exp.mus[b]
                if total <= mu:
                    continue
                ps = bilinear_spoly(exp.orders[a], exp.orders[b], exp.omega)
                decay = np.exp(-float(total - mu) * ts)
                want += decay[:, None, None] \
                    * ps.restrict_shell(mu).evaluate_many(ts)[:, shell]
        want *= np.exp(-float(mu) * ts)[:, None, None]
        whole, _ = _v_frame_forcing(exp, mu, shell)
        full = advect(lat, exp.traj.coeffs, exp.traj.coeffs, ts, exp.omega, mu)[:, shell]
        assert np.abs(want).max() > 1e-3 * np.abs(full).max()
        got = _shell_forcing(exp, mu) - whole
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_shell_forcing_is_the_rotated_frame_products(fast_run):
    """R and P commute with e^{Omega t S}: the fit's forcing, formed in the u
    frame with each input rotated once and the sum rotated back once, equals
    the sum of advect's rotated products of the v-frame inputs."""
    exp = fast_run
    lat = exp.lattice
    for mu in exp.mus:
        shell = lat.shell_indices(mu)
        whole, fast = _v_frame_forcing(exp, mu, shell)
        want = whole + fast
        got = _shell_forcing(exp, mu)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _assert_same_expansion(a, b):
    """Two expansions with bit-equal orders, samples and diagnostics."""
    for p, q in zip(a.orders, b.orders, strict=True):
        for name in ("mode", "deg", "fid"):
            assert np.array_equal(getattr(p, name), getattr(q, name))
        assert np.array_equal(p.coef.view(np.uint64), q.coef.view(np.uint64))
    for x, y in zip(a.samples, b.samples, strict=True):
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
    assert a.diagnostics == b.diagnostics


@pytest.mark.parametrize("block_bytes", [1, 1 << 40])
def test_fit_block_size_changes_no_bit(o4_run, monkeypatch, block_bytes):
    """The fit forms its forcing in blocks of samples sized by fields'
    block rule; a block of one sample and a block of the whole stack give
    the same xi and diagnostics, bit for bit."""
    monkeypatch.setattr("rotspec.fields._STACK_BLOCK_BYTES", block_bytes)
    exp = expand(o4_run["trajv"], 4, xi_windows=((6.0, 8.0), (8.0, 10.0)))
    _assert_same_expansion(exp, o4_run["exp"])


def test_fit_memory_is_bounded_by_its_block(o4_run):
    """expand's traced peak stays within a few trajectory stacks: the fit
    holds the cached samples and shell-sized arrays, and forms everything
    else one block of samples at a time."""
    trajv = o4_run["trajv"]
    tracemalloc.start()
    try:
        expand(trajv, 4, xi_windows=((6.0, 8.0), (8.0, 10.0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * trajv.coeffs.nbytes


def test_expand_rejects_u_form(cube_run):
    with pytest.raises(ValueError, match="v-form"):
        expand(cube_run["traju"], 1)


def test_expand_input_validation(cube6):
    with pytest.raises(ValueError, match="samples"):
        expand(_zero_traj(cube6, n=10), 1)
    bad = _zero_traj(cube6, n=80)
    bad.times = bad.times.copy()
    bad.times[40] += 0.01
    with pytest.raises(ValueError, match="uniform"):
        expand(bad, 1)
    with pytest.raises(ValueError, match="no samples"):
        expand(_zero_traj(cube6), 1, xi_windows=((5.0, 6.0),))
    for order in (0, -1):
        with pytest.raises(ValueError, match=f"order must be at least 1, got {order}"):
            expand(_zero_traj(cube6), order)


@pytest.mark.parametrize("edit", ["nan", "inf", "reversed"])
def test_expand_rejects_non_finite_or_decreasing_times(cube6, edit):
    """NaN gaps compare false against any tolerance, and reversed times have
    uniform (negative) gaps; neither is a uniformly sampled run."""
    bad = _zero_traj(cube6, n=80)
    bad.times = {"nan": np.where(np.arange(80) == 40, np.nan, bad.times),
                 "inf": np.where(np.arange(80) == 0, -np.inf, bad.times),
                 "reversed": bad.times[::-1].copy()}[edit]
    with pytest.raises(ValueError, match="uniformly spaced samples at finite, increasing"):
        expand(bad, 1)


@pytest.mark.parametrize("t0, order", [(200.0, 2), (400.0, 1)])
def test_expand_refuses_weights_beyond_the_float_range(t0, order):
    """Each order is q_n(t) e^{-mu_n t} in absolute t, so a late start puts
    e^{mu_n t} into the fit's weights and the orders, and norms square it:
    expand refuses the run up front, naming the first such order, its rate
    and the last sample time.  The same run from t0 = 0 expands."""
    lat = build_lattice(cutoff=2)
    u0 = random_gevrey(lat, seed=1)
    h = 2.0 ** -7
    traj = integrate(u0, SolverConfig(dt=h, t0=t0, t_end=t0 + 128 * h, omega=5.0))
    with pytest.raises(ValueError, match=rf"order {order} \(mu = {order}\) .* t = {t0 + 1.0!r}"):
        expand(traj, 2)
    exp = expand(integrate(u0, SolverConfig(dt=h, t_end=128 * h, omega=5.0)), 2)
    assert all(np.isfinite(d["xi_norm"]) for d in exp.diagnostics)


def test_expand_sizes_its_semigroup():
    """With the smallest eigenvalue 1, every order has its rate however far
    past the cutoff it lies."""
    exp = expand(_zero_traj(build_lattice(cutoff=1)), 65)
    assert exp.mus == [Fraction(n) for n in range(1, 66)]


def test_zero_trajectory_expands_to_zero(cube6):
    exp = expand(_zero_traj(cube6), 2)
    assert all(q.is_zero for q in exp.orders)
    assert all(d["xi_norm"] == 0.0 for d in exp.diagnostics)
    assert not np.any(exp.partial_sum())


def test_partial_sum_matches_orders(cube_run):
    exp = cube_run["exp"]
    rows = [0, 1300, 4700]
    got = exp.partial_sum()[rows]
    want = np.zeros_like(got)
    for mu, q in zip(exp.mus, exp.orders):
        for j, t in enumerate(exp.traj.times[rows]):
            want[j] += math.exp(-float(mu) * t) * q.evaluate(float(t)).coeffs
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_to_u_orders(cube_run):
    exp = cube_run["exp"]
    pairs = to_u_expansion(exp)
    assert [mu for mu, _ in pairs] == exp.mus
    t = 0.7
    for (mu, Q), q in zip(pairs, exp.orders):
        want = _rotate_by(exp.lattice, q.evaluate(t).coeffs, 1.0, -exp.omega * t)
        np.testing.assert_allclose(Q.evaluate(t).coeffs, want, atol=1e-14)


# -- rate fitting on synthetic data -----------------------------------------

def test_fit_decay_rate_synthetic():
    t = np.linspace(2.0, 10.0, 200)
    y = 3.0 * t**1.5 * np.exp(-2.25 * t)
    fit = fit_decay_rate(t, y)
    assert fit["slope"] == pytest.approx(2.25, abs=1e-8)
    assert fit["prefactor_power"] == pytest.approx(1.5, abs=1e-8)
    assert fit["confidence"] < 1e-8
    # the two-parameter fit under-reads the rate when a prefactor is present
    assert fit["slope_plain"] < 2.25 - 0.1


def test_fit_log_slope_exact():
    t = np.linspace(0.0, 5.0, 60)
    slope, half = _fit_log_slope(t, 5.0 * np.exp(-1.2 * t))
    assert slope == pytest.approx(1.2, abs=1e-12)
    assert half < 1e-12
    with pytest.raises(ValueError):
        _fit_log_slope(t[:4], np.zeros(4))
    with pytest.raises(ValueError):
        fit_decay_rate(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.5, 0.2]))


# -- sliding averages --------------------------------------------------------

def _two_term_spoly(lat):
    k = (1, 1, 0)
    c = np.array([0.7, -0.7, 0.4j])
    w = Frequency.rotation(1, 1, 1.8)
    return SPoly(lat, {(k, 0, w): c, (k, 2, Frequency.zero()): 0.3 * c})


def test_time_average_matches_quadrature(cube6):
    q = _two_term_spoly(cube6)
    T, t = 0.9, 0.4
    avg = time_average_Q(q, T)
    ss = np.linspace(t, t + T, 4001)
    vals = q.evaluate_many(ss)
    want = (simpson(vals.real, x=ss, axis=0) + 1j * simpson(vals.imag, x=ss, axis=0)) / T
    np.testing.assert_allclose(avg.evaluate(t).coeffs, want, atol=1e-10)
    with pytest.raises(ValueError):
        time_average_Q(q, 0.0)


def _averaged_leading_norms(xi, omegas, T, t=0.0):
    """|average over [t, t+T] of Q_1 = exp(-Omega s S) xi| for each rate."""
    return [time_average_Q(apply_expS_spoly(SPoly.from_field(xi), -om), T).evaluate(t).norm()
            for om in omegas]


def test_omega_sweep_vertical_halving(cube6):
    """Doubling the rate halves the averaged vertical coefficient when
    cos(Omega*T/2) = 1/2 at every rate, which T = pi/15 arranges."""
    xi = SpectralField.from_modes(cube6, {(0, 0, 1): [0.4, 0.3j, 0.0]})
    T = math.pi / 15.0
    n = _averaged_leading_norms(xi, [10.0, 20.0, 40.0, 80.0], T)
    x = 10.0 * T / 2.0
    assert n[0] == pytest.approx(abs(math.sin(x) / x) * xi.norm(), rel=1e-12)
    for a, b in zip(n, n[1:]):
        assert b / a == pytest.approx(0.5, abs=1e-12)


def test_omega_sweep_horizontal_invariance(cube6):
    xi = SpectralField.from_modes(cube6, {(1, 1, 0): [0.2, -0.2, 0.1j]})
    for n in _averaged_leading_norms(xi, [10.0, 20.0, 40.0, 80.0], math.pi / 15.0):
        assert n == pytest.approx(xi.norm(), rel=1e-13)
