import functools
import gc
import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from rotspec.fields import (
    SpectralField,
    advect,
    apply_S,
    apply_expS,
    bilinear_B,
    _J_VERT,
    _Plan,
    _complex_ops,
    _rotate_coeffs,
    _shell_plans,
    eigen_restrict,
    field_from_doc,
    field_to_doc,
    inner,
    random_gevrey,
)
from rotspec.lattice import build_lattice
from rotspec.solver import SolverConfig, Trajectory, integrate, transform_trajectory
from rotspec.special import VkData, linear_evolution

LAT3 = build_lattice(cutoff=3)
U3 = random_gevrey(LAT3, seed=2)
V3 = random_gevrey(LAT3, seed=5)
LATTICES = {
    "cube3": LAT3,
    "aniso5": build_lattice(ell=(1, 1, "1/2"), cutoff=5),
    "cube6": build_lattice(cutoff=6),
}

ts = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def test_norm_single_pair():
    # u = 2 cos(x1) e2: one conjugate pair of unit coefficients
    lat = build_lattice(cutoff=2)
    u = SpectralField.from_modes(lat, {(1, 0, 0): [0.0, 1.0, 0.0]})
    assert u.norm() == pytest.approx(math.sqrt(2.0) * (2 * math.pi) ** 1.5, rel=1e-14)
    # lam = 1 on that pair, so every Gevrey weight is a clean factor
    assert u.norm(alpha=0.5, sigma=0.3) == pytest.approx(math.exp(0.3) * u.norm(), rel=1e-13)


def test_norm_mean_contribution():
    lat = build_lattice(cutoff=2)
    u = SpectralField(lat, mean=[3.0, 0.0, 4.0])
    assert u.norm() == pytest.approx(5.0 * lat.volume**0.5, rel=1e-14)
    assert u.norm(alpha=1.0) == 0.0  # mean is killed by any Stokes power


def test_inner_matches_norm():
    assert inner(U3, U3) == pytest.approx(U3.norm() ** 2, rel=1e-13)
    w = U3 + V3
    assert inner(U3, V3) == pytest.approx(
        0.5 * (w.norm() ** 2 - U3.norm() ** 2 - V3.norm() ** 2), rel=1e-10
    )


def test_from_modes_conjugate_fill():
    lat = LAT3
    z = np.array([1.0 + 2.0j, -0.5j, 0.0])
    z = lat.proj[lat.index_of((1, 1, 0))] @ z
    u = SpectralField.from_modes(lat, {(1, 1, 0): z})
    i = lat.index_of((-1, -1, 0))
    np.testing.assert_allclose(u.coeffs[i], np.conj(z))
    assert u.reality_error() == 0.0
    with pytest.raises(ValueError):
        SpectralField.from_modes(lat, {(9, 0, 0): z})
    with pytest.raises(ValueError):
        SpectralField.from_modes(lat, {(1, 1, 0): z, (-1, -1, 0): z})


def test_coeff_shape_check():
    with pytest.raises(ValueError):
        SpectralField(LAT3, np.zeros((4, 3)))


def _project(u):
    """Leray projection through the lattice's per-mode projectors."""
    return SpectralField(u.lattice, np.einsum("mij,mj->mi", u.lattice.proj, u.coeffs), u.mean)


def _stokes(u):
    return SpectralField(u.lattice, u.coeffs * u.lattice.lam_f[:, None])


def test_leray_projection():
    lat = LAT3
    rng = np.random.default_rng(1)
    raw = SpectralField(lat, rng.standard_normal((lat.n_modes, 3))
                        + 1j * rng.standard_normal((lat.n_modes, 3)))
    assert raw.divergence_error() > 1e-2
    p = _project(raw)
    assert p.divergence_error() < 1e-13
    pp = _project(p)
    np.testing.assert_allclose(pp.coeffs, p.coeffs, atol=1e-15)
    # a field parallel to its wave vector projects to zero
    u = SpectralField.from_modes(lat, {(1, 0, 0): [1.0, 0.0, 0.0]})
    assert _project(u).norm() < 1e-14


def test_coriolis_antisymmetry():
    su = apply_S(U3)
    assert abs(inner(su, U3)) < 1e-14 * U3.norm() ** 2
    assert inner(su, V3) == pytest.approx(-inner(U3, apply_S(V3)), abs=1e-15)
    assert su.divergence_error() < 1e-14


@given(ts)
@settings(max_examples=50, deadline=None)
def test_rotation_group_isometry(t):
    w = apply_expS(U3, t)
    assert w.norm() == pytest.approx(U3.norm(), rel=1e-12)
    assert w.norm(sigma=0.7) == pytest.approx(U3.norm(sigma=0.7), rel=1e-12)
    assert w.reality_error() < 1e-14
    assert w.divergence_error() < 1e-13


@given(ts, ts)
@settings(max_examples=50, deadline=None)
def test_rotation_group_law(t, s):
    a = apply_expS(apply_expS(U3, t), s)
    b = apply_expS(U3, t + s)
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-13)


def test_rotation_group_generator():
    # d/dt exp(tS)u = S exp(tS)u, checked by central difference
    t, h = 0.37, 1e-6
    lhs = (apply_expS(U3, t + h) - apply_expS(U3, t - h)) * (0.5 / h)
    rhs = apply_S(apply_expS(U3, t))
    assert (lhs - rhs).norm() < 1e-9 * rhs.norm()


def test_rotation_commutes_with_stokes():
    a = _stokes(apply_expS(U3, 0.9))
    b = apply_expS(_stokes(U3), 0.9)
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-14)


def test_stokes_powers():
    lat = LAT3
    u = SpectralField.from_modes(lat, {(1, 1, 0): [1.0, -1.0, 0.0]})
    # |A^alpha u| on the lam = 2 pair
    assert u.norm(1.0) == pytest.approx(2.0 * u.norm(), rel=1e-13)
    assert u.norm(-0.5) == pytest.approx(u.norm() / math.sqrt(2), rel=1e-13)
    weighted = u * math.exp(0.4 * math.sqrt(2.0))  # exp(sigma A^(1/2)) on the lam = 2 pair
    assert u.norm(0.0, 0.4) == pytest.approx(weighted.norm(), rel=1e-13)


def test_shell_partition():
    lat = LAT3
    total = SpectralField(lat)
    for lam in lat.eigenvalues:
        total = total + eigen_restrict(U3, lam)
    np.testing.assert_allclose(total.coeffs, U3.coeffs, atol=1e-16)
    assert sum(eigen_restrict(U3, lam).norm() ** 2 for lam in lat.eigenvalues) \
        == pytest.approx(U3.norm() ** 2, rel=1e-13)


def test_random_gevrey_properties():
    u1 = random_gevrey(LAT3, seed=11, sigma=1.0, amplitude=0.25)
    u2 = random_gevrey(LAT3, seed=11, sigma=1.0, amplitude=0.25)
    np.testing.assert_array_equal(u1.coeffs, u2.coeffs)
    assert u1.norm() == pytest.approx(0.25, rel=1e-12)
    assert u1.reality_error() == 0.0
    assert u1.divergence_error() < 1e-15
    u3 = random_gevrey(LAT3, seed=12)
    assert not np.allclose(u1.coeffs, u3.coeffs)


# -- bilinear form against a physical-space quadrature oracle ---------------

def _eval_grid(lat, coeffs, n):
    """Direct (no FFT) evaluation of sum_m c_m e^{i kcheck_m . x} on an n^3 grid."""
    xs = [np.arange(n) * (L / n) for L in lat.L]
    vals = np.zeros((n, n, n, 3), dtype=complex)
    for m in range(lat.n_modes):
        kc = lat.kcheck[m]
        phase = (np.exp(1j * kc[0] * xs[0])[:, None, None]
                 * np.exp(1j * kc[1] * xs[1])[None, :, None]
                 * np.exp(1j * kc[2] * xs[2])[None, None, :])
        vals += phase[..., None] * coeffs[m]
    return vals


def _advect_oracle(u, v, n=8):
    """Fourier coefficients of P (u.grad) v via trapezoid quadrature.

    The grid rule is exact here: every integrand mode has integer reduced
    wavenumbers of magnitude < n, so nothing aliases.
    """
    lat = u.lattice
    U = _eval_grid(lat, u.coeffs, n)
    W = np.zeros((n, n, n, 3), dtype=complex)
    for d in range(3):
        dv = _eval_grid(lat, 1j * lat.kcheck[:, d:d + 1] * v.coeffs, n)
        W += U[..., d:d + 1] * dv
    xs = [np.arange(n) * (L / n) for L in lat.L]
    out = np.zeros_like(u.coeffs)
    for m in range(lat.n_modes):
        kc = lat.kcheck[m]
        phase = (np.exp(-1j * kc[0] * xs[0])[:, None, None]
                 * np.exp(-1j * kc[1] * xs[1])[None, :, None]
                 * np.exp(-1j * kc[2] * xs[2])[None, None, :])
        bhat = (phase[..., None] * W).sum(axis=(0, 1, 2)) / n**3
        ktil = kc / np.linalg.norm(kc)
        out[m] = bhat - ktil * (ktil @ bhat)
    return out


def test_bilinear_matches_quadrature():
    lat = build_lattice(cutoff=4)
    u = random_gevrey(lat, seed=3, amplitude=1.0)
    v = random_gevrey(lat, seed=4, amplitude=1.0)
    got = bilinear_B(u, v).coeffs
    want = _advect_oracle(u, v)
    np.testing.assert_allclose(got, want, atol=1e-13 * np.abs(want).max())


def test_bilinear_matches_quadrature_anisotropic():
    lat = build_lattice(ell=(1, 1, "1/2"), cutoff=5)
    u = random_gevrey(lat, seed=6, amplitude=1.0)
    v = random_gevrey(lat, seed=7, amplitude=1.0)
    got = bilinear_B(u, v).coeffs
    want = _advect_oracle(u, v)
    np.testing.assert_allclose(got, want, atol=1e-13 * np.abs(want).max())


def _triads_loop(lat):
    """Reference pair list: the O(M^2) double loop over mode pairs."""
    pos = {tuple(k): i for i, k in enumerate(lat.ks.tolist())}
    im, ij, io = [], [], []
    for a in range(lat.n_modes):
        for b in range(lat.n_modes):
            o = pos.get(tuple(int(c) for c in lat.ks[a] + lat.ks[b]))
            if o is not None:
                im.append(a)
                ij.append(b)
                io.append(o)
    return np.array(im, dtype=int), np.array(ij, dtype=int), np.array(io, dtype=int)


def test_conv_plan_matches_reference_loop():
    """pair_index against the double loop, and the full plan and every shell
    plan against the pair list filtered to representative outputs, stably
    sorted by output and restricted to the shell."""
    for lat in (LAT3, build_lattice(cutoff=6), build_lattice(ell=(1, 1, "1/2"), cutoff=5)):
        want = _triads_loop(lat)
        pair = np.full((lat.n_modes, lat.n_modes), -1)
        pair[want[0], want[1]] = want[2]
        modes = np.arange(lat.n_modes)
        np.testing.assert_array_equal(lat.pair_index(modes[:, None], modes[None, :]), pair)
        im, ij, io = want
        keep = lat.rep_mask[io]
        order = np.argsort(io[keep], kind="stable")
        im, ij, io = im[keep][order], ij[keep][order], io[keep][order]
        for lam in [None] + lat.eigenvalues:
            sel = slice(None) if lam is None else lat.shell_of[io] == lat.shell(lam)
            plan = _Plan(lat, lam, None)
            np.testing.assert_array_equal(plan.im, im[sel])
            np.testing.assert_array_equal(plan.ij, ij[sel])
            np.testing.assert_array_equal(plan.kc, lat.kcheck[io[sel]].T)
            assert plan.im.flags.c_contiguous and plan.ij.flags.c_contiguous
            assert plan.kc.flags.c_contiguous
            np.testing.assert_array_equal(
                plan.indptr, np.r_[0, np.cumsum(np.bincount(io[sel], minlength=lat.n_modes))])
            assert _shell_plans(lat, lam).n_pairs == len(plan.im)


def _advect_reference(lattice, X, Y, t=0.0, omega=0.0):
    """The single-sample kernel as a loop body: one CSR product per call.

    Each pair's dot product is the length-3 sum over a (P,3) gather of the
    output wave vectors, as numpy reduces it.
    """
    def rotate(C, theta):
        rot = np.einsum("mij,mj->mi", lattice.jk, C)
        return np.cos(theta)[:, None] * C + np.sin(theta)[:, None] * rot

    def convolve(U, V):
        plan = _Plan(lattice, None, None)
        im, ij, indptr = plan.im, plan.ij, plan.indptr
        M = lattice.n_modes
        io = np.repeat(np.arange(M), np.diff(indptr))
        dots = (U[im] * lattice.kcheck[io]).sum(axis=1)
        out = 1j * (sp.csr_matrix((dots, ij, indptr), shape=(M, M)) @ V)
        rep = lattice.rep_mask
        out[lattice.conj_idx[rep]] = np.conj(out[rep])
        return out

    if omega == 0.0:
        return np.einsum("mij,mj->mi", lattice.proj, convolve(X, Y))
    theta = -omega * lattice.kt3 * t
    Xr = rotate(X, theta)
    Yr = Xr if Y is X else rotate(Y, theta)
    return rotate(np.einsum("mij,mj->mi", lattice.proj, convolve(Xr, Yr)), -theta)


def _assert_bits_equal(got, want):
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))


def _samples(lat, seed, n):
    """n real-paired fields as an (n,M,3) stack, and n sample times."""
    X = np.array([random_gevrey(lat, seed=seed + b).coeffs for b in range(n)])
    ts = np.random.default_rng(seed).uniform(0.0, 12.0, n)
    return X, ts


RAYS = [(1, 0, 1), (0, 1, 1), (1, -1, 0)]


def _ray_samples(lat, seed, n):
    """Sparse stacks: sample b is data on ray (seed + b) mod 3, harmonics 1 and 2.

    Four of the lattice's modes are non-zero, so most pair products are
    exact zeros, signed by the wave vectors they meet.
    """
    X = np.array([VkData.random(RAYS[(seed + b) % 3], (1, 2), seed + b, lat).field(lat).coeffs
                  for b in range(n)])
    return X, np.random.default_rng(seed).uniform(0.0, 12.0, n)


def _signed_zero_samples(lat, seed, n):
    """Dense stacks with -0.0 as the real or imaginary part of about 30% of the components."""
    X, ts = _samples(lat, seed, n)
    rng = np.random.default_rng(seed)
    X.real[rng.random(X.shape) < 0.3] = -0.0
    X.imag[rng.random(X.shape) < 0.3] = -0.0
    rep = lat.rep_mask
    X[:, lat.conj_idx[rep]] = np.conj(X[:, rep])
    return X, ts


# name -> (lattice, stack maker); the first three are dense random_gevrey data
STACKS = {name: (lat, _samples) for name, lat in LATTICES.items()}
STACKS["ray10"] = (build_lattice(cutoff=10), _ray_samples)
STACKS["zeros6"] = (LATTICES["cube6"], _signed_zero_samples)


@pytest.mark.parametrize("name", sorted(STACKS))
@pytest.mark.parametrize("omega", [0.0, 5.0])
@pytest.mark.parametrize("n", [1, 3, 7, 40])
def test_stacked_advect_matches_reference(name, omega, n):
    """Stacks and shells give the per-sample kernel's bits on every computed row.
    At n = 40 the cutoff-6 and cutoff-10 stacks are longer than one of
    advect's chunks."""
    lat, samples = STACKS[name]
    X, ts = samples(lat, 10, n)
    Y, _ = samples(lat, 50, n)
    want = np.array([_advect_reference(lat, X[b], Y[b], float(ts[b]), omega)
                     for b in range(n)])
    _assert_bits_equal(advect(lat, X, Y, ts, omega), want)
    # one time for the whole stack
    _assert_bits_equal(advect(lat, X, Y, float(ts[0]), omega),
                       [_advect_reference(lat, X[b], Y[b], float(ts[0]), omega)
                        for b in range(n)])
    for b in range(n):
        _assert_bits_equal(advect(lat, X[b], Y[b], float(ts[b]), omega), want[b])
        _assert_bits_equal(advect(lat, X[b], X[b], float(ts[b]), omega),
                           _advect_reference(lat, X[b], X[b], float(ts[b]), omega))
    for s, lam in enumerate(lat.eigenvalues):
        got = advect(lat, X, Y, ts, omega, lam)
        on = lat.shell_of == s
        _assert_bits_equal(got[:, on], want[:, on])
        assert not np.any(got[:, ~on])


def test_cached_block_matrix_keeps_no_data_between_calls():
    """Interleaved (shell, stack size) calls on fresh inputs each match a fresh
    reference; full-plan calls on dense data alternate with restricted-plan
    calls on one-mode data."""
    lat = LATTICES["cube6"]
    every, shell1 = np.ones(lat.n_modes, dtype=bool), lat.shell_of == 0
    one_mode = functools.partial(_sparse_samples, keep=1)
    for seed, n, lam, on, samples in [
            (1, 3, lat.eigenvalues[0], shell1, _samples), (5, 3, None, every, one_mode),
            (2, 1, None, every, _samples), (6, 1, lat.eigenvalues[0], shell1, one_mode),
            (3, 3, lat.eigenvalues[0], shell1, _samples), (7, 1, None, every, one_mode),
            (4, 1, None, every, _samples), (8, 3, None, every, one_mode)]:
        X, ts = samples(lat, seed, n)
        Y, _ = samples(lat, seed + 100, n)
        _drop_restricted_plans(lat)
        got = advect(lat, X, Y, ts, 5.0, lam)
        assert _restricted_plans(lat) == ({} if samples is _samples else
                                          {lam: _support_key(lat, X, Y)})
        for b in range(n):
            want = _advect_reference(lat, X[b], Y[b], float(ts[b]), 5.0)
            _assert_bits_equal(got[b, on], want[on])
            assert not np.any(got[b, ~on])


def _sparse_samples(lat, seed, n, keep):
    """n real-paired fields as an (n,M,3) stack: each is random_gevrey data
    with every representative mode but `keep` random ones zeroed, then
    mirrored; and n sample times."""
    X, ts = _samples(lat, seed, n)
    rng = np.random.default_rng(seed)
    reps = np.flatnonzero(lat.rep_mask)
    for b in range(n):
        X[b, rng.permutation(reps)[keep:]] = 0.0
    X[:, lat.conj_idx[reps]] = np.conj(X[:, reps])
    return X, ts


def _restricted_plans(lat):
    """{shell: support key} of the restricted plans the lattice has cached."""
    return {lam: record.key for lam, record in lat.__dict__.get("_conv_plans", {}).items()
            if record.restricted is not None}


def _drop_restricted_plans(lat):
    for record in lat.__dict__.get("_conv_plans", {}).values():
        record.key = record.restricted = None


def _support_key(lat, X, Y):
    """The cache key of the plan restricted to the modes non-zero in some sample of X and of Y."""
    def rows(A):
        return np.flatnonzero(A.reshape(-1, lat.n_modes, 3).any(axis=(0, 2)))
    return rows(X).tobytes(), rows(Y).tobytes()


@given(st.sampled_from(["cube6", "ray10"]), st.integers(0, 2**16), st.sampled_from([1, 3]),
       st.integers(0, 2), st.integers(0, 2), st.booleans(), st.sampled_from([0.0, 5.0]),
       st.sampled_from(["none", "eigen", "other"]))
@settings(deadline=None, max_examples=40)
def test_restricted_plan_matches_reference(name, seed, n, keep_x, keep_y, same, omega, shell):
    """advect on data zeroed off a few random representative modes gives the
    full-plan reference's bits, through a restricted plan whenever
    nnz(X) nnz(Y) is below the plan's pair count, which it always is
    without a shell."""
    lat = STACKS[name][0]
    X, ts = _sparse_samples(lat, seed, n, keep_x)
    Y = _sparse_samples(lat, seed + 1, n, keep_y)[0]
    if n == 1:
        X, Y, ts = X[0], Y[0], float(ts[0])
    if same:
        Y = X
    rng = np.random.default_rng(seed)
    lam = {"none": None, "eigen": lat.eigenvalues[rng.integers(len(lat.eigenvalues))],
           "other": Fraction(1, 3)}[shell]
    _drop_restricted_plans(lat)
    got = advect(lat, X, Y, ts, omega, lam)
    restricted = np.count_nonzero(X) * np.count_nonzero(Y) < _shell_plans(lat, lam).n_pairs
    assert restricted or lam is not None
    assert _restricted_plans(lat) == ({lam: _support_key(lat, X, Y)} if restricted else {})
    Xs, Ys, tt = (X, Y, ts) if n > 1 else (X[None], Y[None], [ts])
    on = np.ones(lat.n_modes, dtype=bool) if lam is None else lat.shell_of == lat.shell(lam)
    for b in range(n):
        want = _advect_reference(lat, Xs[b], Xs[b] if same else Ys[b], float(tt[b]), omega)
        _assert_bits_equal(np.reshape(got, Xs.shape)[b, on], want[on])
        assert not np.any(np.reshape(got, Xs.shape)[b, ~on])


@pytest.mark.parametrize("lam", [None, Fraction(3)])
@pytest.mark.parametrize("omega", [0.0, 5.0])
def test_advect_of_zero_input_keeps_full_plan_bits(lam, omega):
    """X = 0 against dense Y, as a stack and alone, with and without a shell:
    the empty restricted plan gives the full plan's bits, as does Y = 0."""
    lat = LATTICES["cube6"]
    Y, ts = _samples(lat, 9, 4)
    X = np.zeros_like(Y)
    on = np.ones(lat.n_modes, dtype=bool) if lam is None else lat.shell_of == lat.shell(lam)
    want = np.array([_advect_reference(lat, X[b], Y[b], float(ts[b]), omega) for b in range(4)])
    for A, B, t, w in [(X, Y, ts, want), (X[0], Y[0], float(ts[0]), want[0])]:
        _drop_restricted_plans(lat)
        got = advect(lat, A, B, t, omega, lam)
        assert _restricted_plans(lat) == {lam: _support_key(lat, A, B)}  # no rows of X
        _assert_bits_equal(got[..., on, :], w[..., on, :])
        assert not np.any(got[..., ~on, :])
    got = advect(lat, Y, X, ts, omega, lam)
    want = [_advect_reference(lat, Y[b], X[b], float(ts[b]), omega) for b in range(4)]
    _assert_bits_equal(got[:, on], np.array(want)[:, on])
    # a zero first sample does not make a dense stack sparse: nnz counts every sample
    Z = Y.copy()
    Z[0] = 0.0
    _drop_restricted_plans(lat)
    got = advect(lat, Z, Y, ts, omega, lam)
    assert _restricted_plans(lat) == {}
    want = [_advect_reference(lat, Z[b], Y[b], float(ts[b]), omega) for b in range(4)]
    _assert_bits_equal(got[:, on], np.array(want)[:, on])


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e308])
@pytest.mark.parametrize("omega", [0.0, 5.0])
def test_restricted_plan_keeps_non_finite_products(value, omega):
    """A non-finite entry, or one whose dot products overflow, takes the full
    plan, which forms inf times zero as NaN: the bits are the reference's."""
    lat = STACKS["ray10"][0]
    X, ts = _sparse_samples(lat, 4, 1, keep=1)
    Y, _ = _sparse_samples(lat, 5, 1, keep=2)
    i = np.flatnonzero(X[0].any(axis=1))
    X[0, i, 0] = value
    with np.errstate(all="ignore"):
        for A, B in [(X[0], Y[0]), (Y[0], X[0]), (X[0], X[0])]:
            _assert_bits_equal(advect(lat, A, B, float(ts[0]), omega),
                               _advect_reference(lat, A, B, float(ts[0]), omega))


def test_plan_builder_restricts_the_full_plan_in_order():
    """With full supports the builder gives today's plan array for array; with
    random supports it gives the full plan's pairs (m, j) with m and j in
    them, in the full plan's order."""
    rng = np.random.default_rng(3)
    for lat in (LAT3, LATTICES["cube6"], STACKS["ray10"][0]):
        M, every = lat.n_modes, np.arange(lat.n_modes)
        for lam in [None] + lat.eigenvalues + [Fraction(1, 3)]:
            full = _Plan(lat, lam, None)
            assert len(full.im) == _shell_plans(lat, lam).n_pairs
            whole = _Plan(lat, lam, (every, every))
            for name in ("im", "ij", "kc", "indptr"):
                got, want = getattr(whole, name), getattr(full, name)
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype and got.flags.c_contiguous
            im, ij, kc, indptr = full.im, full.ij, full.kc, full.indptr
            io = np.repeat(every, np.diff(indptr))
            for size in (0, 1, 5, M // 3):
                rows_u = np.sort(rng.choice(M, size, replace=False))
                rows_v = np.sort(rng.choice(M, M - size, replace=False))
                keep = np.isin(im, rows_u) & np.isin(ij, rows_v)
                r = _Plan(lat, lam, (rows_u, rows_v))
                np.testing.assert_array_equal(r.im, im[keep])
                np.testing.assert_array_equal(r.ij, ij[keep])
                np.testing.assert_array_equal(r.kc, kc[:, keep])
                np.testing.assert_array_equal(
                    r.indptr, np.r_[0, np.cumsum(np.bincount(io[keep], minlength=M))])


def _spy_plans(monkeypatch):
    """Record (support key, weak reference to the plan's complex wave
    vectors) for every plan the kernel builds; the key is None for a full
    plan."""
    import rotspec.fields as fields
    built = []
    plan = fields._Plan

    def spy(lattice, lam, support):
        p = plan(lattice, lam, support)
        key = None if support is None else tuple(r.tobytes() for r in support)
        built.append((key, weakref.ref(p.kc)))
        return p

    monkeypatch.setattr(fields, "_Plan", spy)
    return built


def test_growing_support_keeps_one_restricted_plan_per_shell(monkeypatch):
    """A u-form run from two non-colinear rays fills in new modes every step:
    it goes through several restricted plans, and the lattice caches only
    the last one, with block matrices for single samples only."""
    lat = build_lattice(cutoff=10)
    u0 = (VkData.random((1, 0, 1), (1,), 3, lat).field(lat)
          + VkData.random((0, 1, 1), (1,), 4, lat).field(lat))
    built = _spy_plans(monkeypatch)
    traj = integrate(u0, SolverConfig(dt=0.01, t_end=0.05, omega=5.0, form="u"))
    assert np.count_nonzero(traj.coeffs[-1].any(axis=1)) > np.count_nonzero(u0.coeffs.any(axis=1))
    seen = {key for key, _ in built}
    assert len(seen) >= 3 and None not in seen
    plans = _restricted_plans(lat)
    assert list(plans) == [None] and plans[None] in seen
    record = lat._conv_plans[None]
    assert list(record.restricted.blocks) == [1]
    # the complex wave vectors went away with the plans they belong to: only
    # the last restricted plan's are alive, and the full plan, which no
    # convolution took, was never built
    gc.collect()
    live = {id(kc) for kc in (r() for _, r in built) if kc is not None}
    assert live == {id(record.restricted.kc)}
    assert record.full is None


def test_full_plan_is_built_only_when_used(monkeypatch):
    """A u-form ray run on a fresh lattice caches the shell's pair count and
    one restricted plan, and no full plan; a dense advect then builds
    exactly one full plan, whose complex wave vectors are read-only with
    the bits of kcheck at its outputs, and later calls reuse it."""
    lat = build_lattice(cutoff=8)  # fresh: no plan cached yet
    u0 = VkData.random((1, 0, 1), (1, 2), 3, lat).field(lat)
    integrate(u0, SolverConfig(dt=0.01, t_end=0.03, omega=5.0, form="u"))
    assert list(lat._conv_plans) == [None]
    record = lat._conv_plans[None]
    assert record.full is None and record.restricted is not None
    assert record.n_pairs == len(_Plan(lat, None, None).im)
    built = _spy_plans(monkeypatch)
    X, ts = _samples(lat, 1, 2)
    advect(lat, X, X, ts, 5.0)
    assert [key for key, _ in built] == [None]
    full = record.full
    io = np.repeat(np.arange(lat.n_modes), np.diff(full.indptr))
    assert full.kc.dtype == complex and full.kc.shape == (3, record.n_pairs)
    _assert_bits_equal(full.kc.real, lat.kcheck[io].T)
    assert not np.any(np.ascontiguousarray(full.kc.imag).view(np.uint64))  # +0.0 throughout
    with pytest.raises(ValueError):
        full.kc[0, 0] = 1.0
    advect(lat, X[0], X[0], float(ts[0]), 5.0)
    assert len(built) == 1 and lat._conv_plans[None].full is full


def test_advect_rejects_mismatched_stacks():
    lat = LATTICES["cube3"]
    X, _ = _samples(lat, 1, 3)
    for a, b in [(X, X[0]), (X[0], X), (X[:2], X)]:
        with pytest.raises(ValueError):
            advect(lat, a, b)


@given(st.sampled_from(sorted(LATTICES)), st.integers(0, 2**16), st.integers(1, 4),
       st.sampled_from([0.0, 5.0, -2.5]), st.integers(-1, 8))
@settings(deadline=None, max_examples=30)
def test_stacked_advect_reality_and_shells(name, seed, n, omega, shell):
    lat = LATTICES[name]
    X, ts = _samples(lat, seed, n)
    Y, _ = _samples(lat, seed + 100, n)
    lam = None if shell < 0 else Fraction(shell, 2)  # halves: some are not eigenvalues
    out = advect(lat, X, Y, ts, omega, lam)
    scale = max(1.0, float(np.abs(out).max()))
    assert np.abs(out[:, lat.conj_idx] - np.conj(out)).max() <= 1e-13 * scale
    if lam is not None and lam not in lat.eigenvalues:
        assert not np.any(out)
    elif lam is not None:
        assert not np.any(out[:, lat.shell_of != lat.eigenvalues.index(lam)])


def test_complex_operators_are_cast_once_and_read_only():
    lat = build_lattice(cutoff=4)  # fresh: nothing has cached its operators yet
    assert getattr(lat, "_complex_ops", None) is None
    jk, proj = _complex_ops(lat)
    for op, real in ((jk, lat.jk), (proj, lat.proj)):
        assert op.dtype == complex and real.dtype == float
        _assert_bits_equal(op.real, real)  # signed zeros included
        assert not np.any(np.ascontiguousarray(op.imag).view(np.uint64))  # +0.0 throughout
        with pytest.raises(ValueError):
            op[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            op *= 2.0
    # every rotation user reads the one cached pair
    u = random_gevrey(lat, seed=3)
    advect(lat, u.coeffs, u.coeffs, 0.5, 2.0, lat.eigenvalues[1])
    apply_S(apply_expS(u, 0.5))
    linear_evolution(u, 0.5, 2.0)
    integrate(u, SolverConfig(dt=0.01, t_end=0.01, omega=2.0, form="u"))
    ops = _complex_ops(lat)
    assert ops[0] is jk and ops[1] is proj
    assert lat.jk.flags.writeable and lat.proj.flags.writeable


def test_plan_wave_vectors_are_cast_once_and_read_only():
    """A plan's complex wave vectors are cast once, when a convolution first
    takes the plan, read-only, with the real vectors' bits; a shell whose
    record is only looked up builds no plan."""
    lat = build_lattice(cutoff=4)  # fresh: no plan cached yet
    U, ts = _samples(lat, 3, 3)
    lam = lat.eigenvalues[2]
    for shell in (None, lam):
        record = _shell_plans(lat, shell)
        assert record.full is None
        advect(lat, U, U, ts, 2.0, shell)
        kc = record.full.kc
        io = np.repeat(np.arange(lat.n_modes), np.diff(record.full.indptr))
        assert kc.dtype == complex and kc.shape == (3, record.n_pairs)
        _assert_bits_equal(kc.real, lat.kcheck[io].T)
        assert not np.any(np.ascontiguousarray(kc.imag).view(np.uint64))  # +0.0 throughout
        with pytest.raises(ValueError):
            kc[0, 0] = 1.0
        advect(lat, U[0], U[0], float(ts[0]), 2.0, shell)
        assert lat._conv_plans[shell].full.kc is kc


def _rotate_reference(lat, C, theta):
    """cos(theta) C + sin(theta) J_k C with the real operator, as einsum casts it."""
    rot = np.einsum("mij,...mj->...mi", lat.jk, C)
    return np.cos(theta)[..., None] * C + np.sin(theta)[..., None] * rot


def _u_step_reference(lat, C, h, omega):
    """One u-form step of integrate, its propagator built from the real operator."""
    def prop(s):
        decay = np.exp(-s * lat.lam_f)[:, None]
        return lambda Z: decay * _rotate_reference(lat, Z, -omega * lat.kt3 * s)

    def N(Z):
        return -advect(lat, Z, Z)

    Ph, Ph2 = prop(h), prop(0.5 * h)
    a = N(C)
    b = N(Ph2(C + 0.5 * h * a))
    c = N(Ph2(C) + 0.5 * h * b)
    d = N(Ph(C) + h * Ph2(c))
    return Ph(C) + (h / 6.0) * (Ph(a) + 2.0 * Ph2(b + c) + d)


@pytest.mark.parametrize("name", ["cube6", "ray10", "zeros6"])
def test_rotation_users_match_real_operator_bits(name):
    """apply_expS, apply_S, linear_evolution and a u-form integrate step give
    the bits of the real-operator einsum formulas, signed zeros included."""
    lat, samples = STACKS[name]
    X, times = samples(lat, 7, 3)
    omega = 5.0
    for C, t in zip(X, times):
        u = SpectralField(lat, C)
        _assert_bits_equal(apply_expS(u, t).coeffs, _rotate_reference(lat, C, lat.kt3 * t))
        inner_p = np.einsum("mij,mj->mi", lat.proj, C)
        _assert_bits_equal(apply_S(u).coeffs,
                           np.einsum("mij,mj->mi", lat.proj, inner_p @ _J_VERT.T))
        _assert_bits_equal(linear_evolution(u, t, omega).coeffs,
                           _rotate_reference(lat, C, -omega * lat.kt3 * t)
                           * np.exp(-lat.lam_f * t)[:, None])
    h = 0.01
    got = integrate(SpectralField(lat, X[0]), SolverConfig(dt=h, t_end=h, omega=omega, form="u"))
    _assert_bits_equal(got.coeffs[1], _u_step_reference(lat, X[0], h, omega))
    # transform_trajectory on the stack, both directions, against the
    # per-sample formula
    for form, to_form, sign in (("u", "v", 1.0), ("v", "u", -1.0)):
        traj = Trajectory(lat, form, omega, times, X)
        want = [_rotate_reference(lat, C, sign * omega * lat.kt3 * t) for C, t in zip(X, times)]
        _assert_bits_equal(transform_trajectory(traj, to_form).coeffs, want)


@pytest.mark.parametrize("name", ["cube6", "ray10"])
def test_back_rotation_by_negated_sine_is_rotation_by_minus_theta(name):
    """advect rotates back with (cos theta, -sin theta).  numpy's cos is even
    and its sin odd bit for bit, so that is the rotation by -theta."""
    lat, samples = STACKS[name]
    X, times = samples(lat, 11, 40)
    theta = -5.0 * lat.kt3 * times[:, None]
    c, s = np.cos(theta), np.sin(theta)
    _assert_bits_equal(np.cos(-theta), c)
    _assert_bits_equal(np.sin(-theta), -s)
    _assert_bits_equal(_rotate_coeffs(lat, X, c, -s), _rotate_reference(lat, X, -theta))


def test_bilinear_energy_orthogonality():
    b = bilinear_B(U3, V3)
    scale = U3.norm() * V3.norm()
    assert abs(inner(b, V3)) < 1e-13 * scale
    assert abs(inner(b, U3) + inner(bilinear_B(U3, U3), V3)) < 1e-13 * scale
    assert b.reality_error() < 1e-15
    assert b.divergence_error() < 1e-13


def test_rotated_bilinear_composition():
    t, om = 0.42, 3.0
    direct = SpectralField(LAT3, advect(LAT3, U3.coeffs, V3.coeffs, t, om))
    composed = apply_expS(
        bilinear_B(apply_expS(U3, -om * t), apply_expS(V3, -om * t)), om * t)
    np.testing.assert_allclose(direct.coeffs, composed.coeffs, atol=1e-14)
    assert abs(inner(direct, V3)) < 1e-13 * U3.norm() * V3.norm()
    assert advect(LAT3, U3.coeffs, V3.coeffs, t, 0.0) == pytest.approx(bilinear_B(U3, V3).coeffs)


def _json_roundtrip(u, lat):
    return field_from_doc(json.loads(json.dumps(field_to_doc(u))), lat)


def test_field_json_roundtrip():
    doc = field_to_doc(U3)
    assert doc["L"] == [float(x) for x in LAT3.L]
    assert len(doc["modes"]) == np.count_nonzero(LAT3.rep_mask & np.any(U3.coeffs, axis=1))
    back = _json_roundtrip(U3, LAT3)
    np.testing.assert_array_equal(back.coeffs, U3.coeffs)
    np.testing.assert_array_equal(back.mean, U3.mean)


def test_field_from_doc_checks():
    lat = LAT3
    i, j = lat.index_of([(1, 1, 0), (-1, -1, 0)])
    z = lat.proj[i] @ np.array([1.0 + 2.0j, -0.5j, 0.0])

    def doc(*modes):
        return {"modes": [{"k": list(k), "re": c.real.tolist(), "im": c.imag.tolist()}
                          for k, c in modes]}

    u = field_from_doc(doc(((1, 1, 0), z)), lat)  # conjugate filled
    np.testing.assert_array_equal(u.coeffs[j], np.conj(z))
    assert np.count_nonzero(np.any(u.coeffs, axis=1)) == 2
    both = field_from_doc(doc(((1, 1, 0), z), ((-1, -1, 0), np.conj(z))), lat)
    np.testing.assert_array_equal(both.coeffs, u.coeffs)
    with pytest.raises(ValueError, match="pairing"):
        field_from_doc(doc(((1, 1, 0), z), ((-1, -1, 0), z)), lat)
    with pytest.raises(ValueError, match=r"\(9, 0, 0\)"):
        field_from_doc(doc(((1, 1, 0), z), ((9, 0, 0), z)), lat)
    with pytest.raises(KeyError):
        field_from_doc({"modes": [{"k": [1, 1, 0], "re": [0.0, 0.0, 0.0]}]}, lat)
    assert not np.any(field_from_doc({"modes": []}, lat).coeffs)
    # wave vectors are three integers; one beyond int64 is off the lattice
    for k, match in [([1.5, 1, 0], "not three integers"), ([True, 1, 0], "not three integers"),
                     ([1, 1], "not three integers"), ("110", "not three integers"),
                     (5, "not three integers"), ([2**63, 0, 0], r"\(9223372036854775808, 0, 0\)")]:
        bad = doc(((1, 1, 0), z))
        bad["modes"].append({"k": k, "re": [0.0] * 3, "im": [0.0] * 3})
        with pytest.raises(ValueError, match=match):
            field_from_doc(bad, lat)
    # coefficient parts are three numbers, and orthogonal to the wave vector
    for re, match in [([0, 0, 1.5], None), ([1.5, 1.5, 0], None),
                      (["0", 0.5, 0], "not three numbers"), ([False, 0.0, 0.0], "not three numbers"),
                      ([1, -1, 0], "not orthogonal"), ([1e-11, 0.0, 0.0], None),
                      ([2e5, 2e5 - 1e-5, 0.0], None), ([2e5, 2e5 - 1e-4, 0.0], "not orthogonal")]:
        bad = doc(((1, 1, 0), z))
        bad["modes"].append({"k": [1, -1, 0], "re": re, "im": [0, 0, 0]})
        if match is None:  # within 1e-10 of the coefficient's size
            field_from_doc(bad, lat)
            continue
        with pytest.raises(ValueError, match=match):
            field_from_doc(bad, lat)
    # the JSON round trip is exact
    np.testing.assert_array_equal(_json_roundtrip(U3, LAT3).coeffs, U3.coeffs)


def test_field_doc_mean_is_three_numbers():
    z = LAT3.proj[0] @ np.array([1.0 + 2.0j, -0.5j, 0.0])
    doc = {"modes": [{"k": LAT3.ks[0].tolist(), "re": z.real.tolist(), "im": z.imag.tolist()}]}
    np.testing.assert_array_equal(field_from_doc(doc, LAT3).mean, np.zeros(3))  # absent
    u = field_from_doc({**doc, "mean": [1, -2, 0.5]}, LAT3)
    assert u.mean.dtype == np.float64 and u.mean.tolist() == [1.0, -2.0, 0.5]
    for mean, match in [(["0", True, 0.5], "not three numbers"), ([1, 2], "not three numbers"),
                        ([0.0, False, 1.0], "not three numbers"), (None, "not three numbers"),
                        ([1.0, 10**400, 0.0], "beyond the float range")]:
        with pytest.raises(ValueError, match=match):
            field_from_doc({**doc, "mean": mean}, LAT3)


def test_field_json_anisotropic():
    lat = build_lattice(ell=(1, 1, "1/2"), cutoff=5)
    u = random_gevrey(lat, seed=9)
    u.mean[:] = [0.1, -0.2, 0.3]
    back = _json_roundtrip(u, lat)
    np.testing.assert_array_equal(back.mean, u.mean)
    np.testing.assert_array_equal(back.coeffs, u.coeffs)
    assert field_to_doc(u)["L"] == [2 * math.pi, 2 * math.pi, math.pi]
