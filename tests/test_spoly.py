import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from rotspec.fields import SpectralField, _rotate_by, advect, random_gevrey
from rotspec.lattice import build_lattice
from rotspec.spoly import (
    ROUNDOFF,
    _freq_doc,
    _freq_from_doc,
    _sum_spoly,
    Frequency,
    OdeResonanceError,
    SPoly,
    antiderivative,
    apply_expS_spoly,
    bilinear_spoly,
    ode_solve,
    spoly_from_doc,
    spoly_to_doc,
)

LAT = build_lattice(cutoff=3)


def _mode_dict(lat):
    """{k: mode index} read off lat.ks, a reference independent of Lattice.index_of."""
    return {tuple(k): i for i, k in enumerate(lat.ks.tolist())}


LAT_MODES = _mode_dict(LAT)
OMEGA = 3.0


def _root7(x):
    """A frequency of value x on a sqrt(7) generator: no cube lattice has a
    sqrt(7) rotation class (7 s^2 is no sum of three squares), so it mixes
    with any rotation rate."""
    return Frequency([(("rot", 7), Fraction(1 if x > 0 else -1), abs(x))])


def _field_spoly(u, m=0, freq=Frequency.zero()):
    """t^m e^{i freq t} u's representative half through the dict constructor."""
    ks = u.lattice.ks.tolist()
    return SPoly(u.lattice, {(tuple(ks[i]), m, freq): u.coeffs[i] for i in np.flatnonzero(
        u.lattice.rep_mask & np.any(u.coeffs != 0, axis=1))})


def _random_spoly(lat, seed, degrees=(0, 1, 2), omega=OMEGA, n_modes=None):
    """Real polynomial with mixed powers, still and rotating frequencies,
    given by its representative half.

    n_modes picks that many representative modes at random (default: all).
    """
    rng = np.random.default_rng(seed)
    reps = np.flatnonzero(lat.rep_mask)
    if n_modes is not None:
        reps = np.sort(rng.choice(reps, n_modes, replace=False))
    terms = {}
    for i in reps:
        k = tuple(int(x) for x in lat.ks[i])
        for m in degrees:
            w_rot = Frequency.rotation(lat.freq_sqfree[i], lat.freq_coef[i], omega)
            for w in (Frequency.zero(), w_rot):
                c = lat.proj[i] @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
                terms[(k, m, w)] = terms.get((k, m, w), 0.0) + c
    return SPoly(lat, terms)


def _partner(key, c):
    """The conjugate partner (-k, m, -w, conj c) of a term."""
    k, m, w = key
    return (tuple(-x for x in k), m, -w), np.conj(c)


def _assert_real(f, ts=(0.0, 0.7, 2.3)):
    """Reality as a structure: every row lies on a representative mode and
    the samples are exact conjugate pairs."""
    lat = f.lattice
    assert lat.rep_mask[f.mode].all()
    out = f.evaluate_many(np.array(ts))
    assert np.array_equal(out[:, lat.conj_idx].view(np.uint64), np.conj(out).view(np.uint64))


# -- formal frequencies -----------------------------------------------------

fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def frequencies(draw):
    parts = []
    if draw(st.booleans()):
        parts.append((("rot", 2), draw(fracs), OMEGA * math.sqrt(2)))
    if draw(st.booleans()):
        parts.append((("rot", 3), draw(fracs), OMEGA * math.sqrt(3)))
    if draw(st.booleans()):
        parts.append((("rot", 7), draw(fracs), 0.7))
    return Frequency(parts)


@given(frequencies(), frequencies(), frequencies())
@settings(max_examples=100)
def test_frequency_algebra(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a - a).is_zero
    assert (a + Frequency.zero()) == a
    assert (a + a).value == pytest.approx(2 * a.value, abs=1e-12)
    assert (a + b).value == pytest.approx(a.value + b.value, abs=1e-12)
    assert (-a).value == -a.value
    if a == b:
        assert hash(a) == hash(b)


def _scaled(a, factor):
    return Frequency([(key, coef * factor, unit) for key, coef, unit in a.parts])


@given(frequencies(), frequencies())
@settings(deadline=None)
def test_frequency_hash_follows_id(a, b):
    """Equal ids hash equally, however the objects were built."""
    zero = Frequency.zero()
    same = [
        (a + b - b, a),
        (-(-a), a),
        (_scaled(a, -1), -a),
        (_scaled(a, 2), a + a),
        (_freq_from_doc(_freq_doc(a)), a),
        (a - a, zero),
        (_scaled(a, 0), zero),
        (Frequency(list(a.parts)), a),
        (Frequency(), zero),
    ]
    for x, y in same:
        assert x == y
        assert hash(x) == hash(y)


def test_frequency_rotation_sign():
    f = Frequency.rotation(2, Fraction(1, 2), -OMEGA)
    assert f.value == pytest.approx(-0.5 * OMEGA * math.sqrt(2), rel=1e-15)
    assert Frequency.rotation(2, 0, OMEGA).is_zero
    assert Frequency.rotation(2, 1, 0.0).is_zero
    g = Frequency.rotation(1, 1, -0.25)
    assert g.value == -0.25
    assert (-g) == Frequency.rotation(1, 1, 0.25)


def test_frequency_identity_includes_unit():
    """One combination at two rotation rates is two frequencies, so a sum of
    polynomials at both rates keeps every term in its terms view."""
    a, b = Frequency.rotation(2, 1, 3.0), Frequency.rotation(2, 1, 4.0)
    assert a != b
    assert len({a: 0, b: 1}) == 2
    u = random_gevrey(LAT, seed=1)
    s = _field_spoly(u, freq=a) + _field_spoly(u, freq=b)
    assert s.n_terms() == 2 * SPoly.from_field(u).n_terms()
    assert len(s.terms) == s.n_terms()


def test_frequency_unit_conflict():
    with pytest.raises(ValueError):
        Frequency([(("rot", 2), Fraction(1), 3.0), (("rot", 2), Fraction(1), 4.0)])


# -- closed-form antiderivative ---------------------------------------------

@pytest.mark.parametrize("m,alpha,omega", [
    (0, -1.5, 2.7), (1, -1.5, 2.7), (3, 0.8, -1.3), (2, 0.0, 1.0), (2, -2.0, 0.0),
])
def test_integrate_term_against_quadrature(m, alpha, omega):
    """A closed-form integral of t^m e^{alpha t} e^{i omega t} is e^{alpha t} q
    with q' + alpha q = t^m e^{i omega t}; its real and imaginary parts
    integrate the cosine and sine terms."""
    k = (1, 0, 0)
    q = ode_solve(alpha, SPoly(LAT, {(k, m, Frequency.rotation(1, 1, omega)):
                                     np.array([1.0, 0.0, 0.0])}))

    def F(t):
        return math.exp(alpha * t) * complex(q.evaluate(t).coeffs[LAT_MODES[k], 0])

    a, b = 0.3, 1.1
    for part, trig in [(lambda z: z.real, math.cos), (lambda z: z.imag, math.sin)]:
        want, err = quad(lambda t: t**m * math.exp(alpha * t) * trig(omega * t), a, b,
                         epsabs=1e-13, epsrel=1e-13)
        assert part(F(b) - F(a)) == pytest.approx(want, abs=1e-10)


# -- container behaviour ----------------------------------------------------

def test_spoly_canonicalization():
    k = (1, 0, 0)
    z = np.array([0.0, 1.0, 1.0])
    f = SPoly(LAT, {(k, 0, Frequency.zero()): z})
    g = SPoly(LAT, {(k, 0, Frequency.zero()): -z})
    assert (f + g).is_zero
    assert (f - f).is_zero
    assert f.scale(0).is_zero
    assert SPoly.zero(LAT).max_abs() == 0.0
    h = f + f.scale(2.0)
    assert h.n_terms() == 1
    np.testing.assert_allclose(h.terms[(k, 0, Frequency.zero())], 3 * z)


def test_spoly_refuses_off_lattice_modes():
    z = np.array([0.0, 1.0, 0.0])
    for k in [(2, 0, 0), (0, 0, 9), (-2**63, 0, 0)]:
        with pytest.raises(ValueError, match="outside the lattice"):
            SPoly(LAT, {((1, 0, 0), 0, Frequency.zero()): z, (k, 0, Frequency.zero()): z})


def test_from_field_and_restrict():
    u = random_gevrey(LAT, seed=8)
    f = SPoly.from_field(u)
    np.testing.assert_allclose(f.evaluate(17.3).coeffs, u.coeffs, atol=1e-16)
    assert f.support_lams() == LAT.eigenvalues
    parts = [f.restrict_shell(l) for l in LAT.eigenvalues]
    total = SPoly.zero(LAT)
    for p in parts:
        total = total + p
    np.testing.assert_allclose(total.evaluate(0.5).coeffs, u.coeffs, atol=1e-16)
    assert f.apply_stokes().evaluate(0.0).norm() == pytest.approx(u.norm(alpha=1.0), rel=1e-12)


def test_evaluate_many_matches_pointwise():
    f = _random_spoly(LAT, seed=2)
    ts = np.array([0.0, 0.3, 0.9, 2.1])
    block = f.evaluate_many(ts)
    for j, t in enumerate(ts):
        np.testing.assert_allclose(block[j], f.evaluate(float(t)).coeffs, atol=1e-13)
    _assert_real(f)
    # bit-equal to one series per term, scattered in term order, then mirrored
    ref = np.zeros_like(block)
    for (k, m, w), c in f.terms.items():
        series = ts**m * np.exp(1j * w.value * ts)
        ref[:, LAT_MODES[k], :] += series[:, None] * c[None, :]
    np.testing.assert_array_equal(block.view(np.uint64), _ref_mirror(ref).view(np.uint64))


def test_time_shift():
    f = _random_spoly(LAT, seed=3)
    g = f.time_shift(0.8)
    for t in (0.0, 0.45, 1.7):
        np.testing.assert_allclose(g.evaluate(t).coeffs, f.evaluate(t + 0.8).coeffs,
                                   atol=1e-12)
    assert f.time_shift(0.0).n_terms() == f.n_terms()


def test_differentiate_finite_difference():
    f = _random_spoly(LAT, seed=5)
    df = f.differentiate()
    t, h = 0.7, 1e-6
    fd = (f.evaluate(t + h).coeffs - f.evaluate(t - h).coeffs) / (2 * h)
    np.testing.assert_allclose(df.evaluate(t).coeffs, fd, atol=1e-8)


def test_antiderivative_inverts_differentiate():
    f = _random_spoly(LAT, seed=6)
    F = antiderivative(f)
    resid = F.differentiate() - f
    assert resid.max_abs() < 1e-13 * f.max_abs()
    assert F.evaluate(0.0).norm() < 1e-14


# -- the three-branch mode ODE ----------------------------------------------

@pytest.mark.parametrize("beta", [Fraction(3, 2), -2, Fraction(0)])
def test_ode_solve_residual(beta):
    p = _random_spoly(LAT, seed=7)
    q = ode_solve(beta, p)
    resid = q.differentiate() + q.scale(float(beta)) - p
    assert resid.max_abs() < 1e-12 * p.max_abs()
    _assert_real(q)


betas = st.one_of(
    st.just(0), st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.floats(min_value=0.25, max_value=3.0).flatmap(lambda b: st.sampled_from([b, -b])),
)


@given(betas, st.integers(0, 2**16), st.sampled_from([(0,), (0, 1, 2), (1, 3)]))
@settings(deadline=None, max_examples=40)
def test_ode_solve_properties(beta, seed, degrees):
    """q' + beta q = p to round-off and q is real, for every beta: exact
    resonances (0, Fraction) as well as decaying and growing ones."""
    p = _random_spoly(LAT, seed, degrees, n_modes=5)
    q = ode_solve(beta, p)
    scale = max(p.max_abs(), q.max_abs(), abs(float(beta)) * q.max_abs())
    resid = q.differentiate() + q.scale(float(beta)) - p
    assert resid.max_abs() <= 1e-13 * scale
    _assert_real(q)


def test_ode_solve_single_mode_closed_form():
    k = (0, 0, 1)
    w = Frequency.rotation(1, 1, 2.0)
    c = np.array([1.0, 1.0j, 0.0])
    p = SPoly(LAT, {(k, 0, w): c})
    q = ode_solve(Fraction(3), p)
    np.testing.assert_allclose(q.terms[(k, 0, w)], c / (3 + 2j), atol=1e-15)
    # degree 1: q = (t/gamma - 1/gamma^2) c e^{iwt}
    p1 = SPoly(LAT, {(k, 1, w): c})
    q1 = ode_solve(Fraction(3), p1)
    np.testing.assert_allclose(q1.terms[(k, 1, w)], c / (3 + 2j), atol=1e-15)
    np.testing.assert_allclose(q1.terms[(k, 0, w)], -c / (3 + 2j) ** 2, atol=1e-15)


def test_ode_solve_resonant_pins_initial_value():
    p = _random_spoly(LAT, seed=9)
    q = ode_solve(0, p)
    np.testing.assert_allclose(q.evaluate(0.0).coeffs, 0.0, atol=1e-13)
    resid = q.differentiate() - p
    assert resid.max_abs() < 1e-12 * p.max_abs()
    # monomial rule raises the degree on still terms
    assert q.degree() == p.degree() + 1


def test_ode_solve_degenerate_gamma():
    k = (1, 0, 0)
    p = SPoly(LAT, {(k, 0, Frequency.rotation(1, 1, 1e-12)): np.array([0.0, 1.0, 0.0])})
    with pytest.raises(OdeResonanceError):
        ode_solve(0, p)
    with pytest.raises(OdeResonanceError):
        ode_solve(1e-12, SPoly(LAT, {(k, 0, Frequency.zero()): np.array([0.0, 1.0, 0.0])}))


# -- wave-group action and bilinear form ------------------------------------

def test_apply_expS_spoly_matches_numeric():
    u = random_gevrey(LAT, seed=11)
    f = apply_expS_spoly(SPoly.from_field(u), OMEGA)
    for t in (0.0, 0.37, 1.9):
        np.testing.assert_allclose(
            f.evaluate(t).coeffs, _rotate_by(LAT, u.coeffs, 1.0, OMEGA * t), atol=1e-13)
    _assert_real(f)
    assert apply_expS_spoly(SPoly.from_field(u), 0.0).n_terms() == SPoly.from_field(u).n_terms()


def test_bilinear_spoly_matches_numeric(b_omega):
    u = random_gevrey(LAT, seed=12)
    v = random_gevrey(LAT, seed=13)
    h = b_omega(SPoly.from_field(u), SPoly.from_field(v), OMEGA)
    for t in (0.0, 0.51, 1.2):
        np.testing.assert_allclose(
            h.evaluate(t).coeffs, advect(LAT, u.coeffs, v.coeffs, t, OMEGA), atol=1e-13)
    _assert_real(h)
    # bilinearity in the polynomial multiplier: B(t*u, v) = t * B(u, v)
    h1 = b_omega(_field_spoly(u, m=1), SPoly.from_field(v), OMEGA)
    t = 0.73
    np.testing.assert_allclose(
        h1.evaluate(t).coeffs, t * advect(LAT, u.coeffs, v.coeffs, t, OMEGA), atol=1e-13)


def _both_halves(f):
    """f's terms in row order, then their conjugate partners in the same order."""
    items = list(f.terms.items())
    return items + [_partner(key, c) for key, c in items]


def _above_roundoff(out, scale):
    """The terms of a dict whose largest component exceeds ROUNDOFF times
    the key's summed round-off scale."""
    return {key: c for key, c in out.items() if np.abs(c).max() > ROUNDOFF * scale[key]}


def _bilinear_reference(f, g, omega):
    """The product as a double loop over the term pairs of the two factors'
    both halves, one dict update per hit on a representative output mode,
    then the keys within round-off of their pairs' scales dropped."""
    lat = f.lattice
    fr = apply_expS_spoly(f, -omega)
    gr = apply_expS_spoly(g, -omega)
    out, scale = {}, {}
    idx = _mode_dict(lat)
    for (k1, m1, w1), c1 in _both_halves(fr):
        for (k2, m2, w2), c2 in _both_halves(gr):
            ko = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
            o = idx.get(ko)
            if o is None or not lat.rep_mask[o]:
                continue
            dot = 1j * np.dot(c1, lat.kcheck[o])
            if dot == 0:
                continue
            val = dot * (lat.proj[o] @ c2)
            key = (ko, m1 + m2, w1 + w2)
            out[key] = out.get(key, 0.0) + val
            scale[key] = scale.get(key, 0.0) \
                + np.dot(np.abs(c1), np.abs(lat.kcheck[o])) * np.abs(c2).sum()
    return apply_expS_spoly(SPoly(lat, _above_roundoff(out, scale)), omega)


def _assert_identical(got, want):
    """Same keys in the same order and bit-equal coefficients; want is an
    SPoly or a term dict."""
    want = want.terms if isinstance(want, SPoly) else want
    assert list(got.terms) == list(want)
    for c, w in zip(got.terms.values(), want.values()):
        assert np.array_equal(np.asarray(c).view(np.uint64), np.asarray(w).view(np.uint64))


def _expS_reference(f, omega):
    """exp(Omega t S) f with the rotation and both shifted frequencies built
    per term, then the keys within round-off of their terms' |c|_1 dropped."""
    lat = f.lattice
    idx = _mode_dict(lat)
    out, scale = {}, {}
    for (k, m, w), c in f.terms.items():
        i = idx[k]
        size = np.abs(c).sum()
        if lat.freq_coef[i] == 0:
            out[(k, m, w)] = out.get((k, m, w), 0.0) + c
            scale[(k, m, w)] = scale.get((k, m, w), 0.0) + size
            continue
        g = Frequency.rotation(lat.freq_sqfree[i], lat.freq_coef[i], omega)
        jc = lat.jk[i] @ c
        for freq, val in ((w + g, 0.5 * (c - 1j * jc)), (w - g, 0.5 * (c + 1j * jc))):
            out[(k, m, freq)] = out.get((k, m, freq), 0.0) + val
            scale[(k, m, freq)] = scale.get((k, m, freq), 0.0) + size
    return SPoly(lat, _above_roundoff(out, scale))


_LATTICES = {
    "cube3": LAT,
    "aniso5": build_lattice(ell=(1, 1, "1/2"), cutoff=5),
    "cube6": build_lattice(cutoff=6),
}


@pytest.mark.parametrize("degrees", [((0, 1, 2), (0, 3)), ((0, 3), (0, 1, 2)), ((1,), (2,))])
@pytest.mark.parametrize("omega", [0.0, 3.0, -2.5])
@pytest.mark.parametrize("name", list(_LATTICES))
def test_bilinear_spoly_matches_reference_loop(b_omega, name, omega, degrees):
    lat = _LATTICES[name]
    wgen = omega or OMEGA
    f = _random_spoly(lat, seed=20, degrees=degrees[0], omega=wgen, n_modes=6)
    g = _random_spoly(lat, seed=21, degrees=degrees[1], omega=wgen, n_modes=6)
    g = g + SPoly(lat, {((1, 0, 0), 1, _root7(0.37)): np.array([0.0, 1.0, -1.0])})
    want = _bilinear_reference(f, g, omega)
    assert want.n_terms() > 0
    _assert_identical(b_omega(f, g, omega), want)


@given(st.sampled_from(["cube3", "aniso5"]), st.integers(0, 2**16),
       st.sampled_from([0.0, 3.0, -2.5, 0.7]))
@settings(deadline=None, max_examples=25)
def test_bilinear_spoly_reality(b_omega, name, seed, omega):
    """Real factors give a real product."""
    lat = _LATTICES[name]
    wgen = omega or OMEGA
    f = _random_spoly(lat, seed, degrees=(0, 1), omega=wgen, n_modes=4).scale(0.1)
    g = _random_spoly(lat, seed + 1, degrees=(0, 2), omega=wgen, n_modes=4).scale(0.1)
    _assert_real(b_omega(f, g, omega))


@pytest.mark.parametrize("omega", [3.0, -2.5])
@pytest.mark.parametrize("name", list(_LATTICES))
def test_apply_expS_spoly_matches_reference_loop(name, omega):
    lat = _LATTICES[name]
    w = _root7(0.37)  # a second generator: w +/- g gets two parts
    extra = {}
    for k in ((1, 0, 1), (0, 0, 1), (1, 0, 0)):
        extra[(k, 1, w)] = np.array([0.0, 1.0, -1.0j])
    f = _random_spoly(lat, seed=22, omega=omega) + SPoly(lat, extra)
    got, want = apply_expS_spoly(f, omega), _expS_reference(f, omega)
    _assert_identical(got, want)
    assert [w.value for (_, _, w) in got.terms] == [w.value for (_, _, w) in want.terms]


@given(st.sampled_from(["cube3", "aniso5"]), st.integers(0, 2**16),
       st.sampled_from([3.0, -2.5, 7.0]), st.sampled_from([(0,), (0, 2), (1, 3)]))
@settings(deadline=None, max_examples=25)
def test_apply_expS_spoly_reality(name, seed, omega, degrees):
    lat = _LATTICES[name]
    f = _random_spoly(lat, seed, degrees, omega=omega, n_modes=6)
    for om in (omega, -omega):
        _assert_real(apply_expS_spoly(f, om))


# -- round-off terms ---------------------------------------------------------
# Each case forms, at one site of spoly's round-off rule, a value that is zero
# in exact arithmetic and round-off in floats, plus d times a genuine value of
# its scale; it returns the number of terms on that value's key.

_C6 = _LATTICES["cube6"]
_Z = Frequency.zero()
_Z6 = np.array([0.3 + 0.1j, -0.7, 0.2j])


def _split_case(d):
    """A circular c (one half of c0) plus d times its other half, rotated."""
    i = _C6.index_of((1, 0, 1))
    c0 = _C6.proj[i] @ _Z6
    halves = [0.5 * (c0 + s * 1j * (_C6.jk[i] @ c0)) for s in (-1, 1)]
    c = halves[0] + d * halves[1]
    jc = _C6.jk[i] @ c
    assert min(np.abs(c - 1j * jc).max(), np.abs(c + 1j * jc).max()) > 0
    return apply_expS_spoly(SPoly(_C6, {((1, 0, 1), 0, _Z): c}), OMEGA).n_terms() - 1


def _on_110(h, deg=None):
    return sum(1 for k, m, _ in h.terms if k == (1, 1, 0) and deg in (None, m))


def _dot_case(d):
    """c1 in o's plane plus d times kcheck_o, times a c2 that P_o keeps."""
    o = _C6.index_of((1, 1, 0))
    c1 = _C6.proj[o] @ _Z6 + d * _C6.kcheck[o]
    assert c1 @ _C6.kcheck[o] != 0
    f = SPoly(_C6, {((1, 0, 0), 0, _Z): c1})
    return _on_110(bilinear_spoly(f, SPoly(_C6, {((0, 1, 0), 0, _Z): np.array([0, 0, 1.0])})))


def _projection_case(d):
    """c2 along o plus d times a vector P_o keeps."""
    o = _C6.index_of((1, 1, 0))
    c2 = (0.3 - 0.8j) * _C6.kcheck[o] + d * np.array([0, 0, 1.0])
    assert np.any(_C6.proj[o] @ c2 != 0)
    f = SPoly(_C6, {((1, 0, 0), 0, _Z): np.array([0, 1.0, 1.0])})
    return _on_110(bilinear_spoly(f, SPoly(_C6, {((0, 1, 0), 0, _Z): c2})))


def _key_sum_case(d):
    """(c1 t + 3 c1) times (c2 t - (1 + d) c2/3 t^2): two pairs of degree 2
    that cancel."""
    c1, c2 = (0.3 + 0.1j) * np.array([0, 1.0, 1.0]), np.array([0.3, 0.1, 0.7j])
    f = SPoly(_C6, {((1, 0, 0), 1, _Z): c1, ((1, 0, 0), 0, _Z): 3 * c1})
    g = SPoly(_C6, {((0, 1, 0), 1, _Z): c2, ((0, 1, 0), 2, _Z): -(1 + d) * c2 / 3})
    return _on_110(bilinear_spoly(f, g), deg=2)


def _products_case(d):
    """p plus -(1 + d) (3 p)/3, summed as expand sums its products."""
    p = SPoly(_C6, {((1, 1, 0), 0, _Z): _Z6})
    q = SPoly(_C6, {((1, 1, 0), 0, _Z): -(1 + d) * (3 * _Z6) / 3})
    assert not (p + q).is_zero
    return _on_110(_sum_spoly([p, q]))


@pytest.mark.parametrize("case", [_split_case, _dot_case, _projection_case, _key_sum_case,
                                  _products_case], ids=lambda f: f.__name__[1:-5])
def test_roundoff_terms_are_dropped(case):
    """A value that is zero in exact arithmetic forms no term at any site;
    one of 1e-10 times its scale is kept."""
    assert case(0.0) == 0
    assert case(1e-10) == 1


# -- JSON --------------------------------------------------------------------

def test_spoly_json_roundtrip():
    f = _random_spoly(LAT, seed=15, degrees=(0, 2))
    g = f + SPoly(LAT, {((1, 1, 0), 1, _root7(0.37)): np.array([1.0, -1.0, 0.0])})
    back = spoly_from_doc(json.loads(json.dumps(spoly_to_doc(g))), LAT)
    assert set(back.terms) == set(g.terms)
    for key, c in g.terms.items():
        assert np.array_equal(back.terms[key].view(np.uint64), c.view(np.uint64))


def test_spoly_json_roundtrip_keeps_signed_zeros():
    c = np.array([complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 1.0)])
    f = SPoly(LAT, {((1, 0, 0), 2, _root7(0.5)): c})
    back = spoly_from_doc(json.loads(json.dumps(spoly_to_doc(f))), LAT)
    _assert_identical(back, f)


def test_spoly_doc_refuses_unknown_generator():
    doc = spoly_to_doc(SPoly(LAT, {((1, 0, 0), 0, _root7(0.5)): np.array([0.0, 1.0, 0.0])}))
    doc["freqs"][0]["combo"][0] = {"kind": "user", "num": 1, "den": 2,
                                   "coef": "1", "unit": 0.5}
    with pytest.raises(ValueError, match="user"):
        spoly_from_doc(doc, LAT)


def test_spoly_doc_lists_each_frequency_once():
    """Terms point into one frequency table: no term embeds a frequency."""
    f = _random_spoly(LAT, seed=3, degrees=(0, 1, 2))
    doc = spoly_to_doc(f)
    assert "terms" not in doc
    assert sorted(doc) == ["L", "cutoff", "freqs", "im", "k", "m", "re", "w"]
    text = json.dumps(doc)
    assert text.count('"combo"') == len(doc["freqs"]) == len(set(doc["w"]))
    assert len(doc["freqs"]) < f.n_terms()
    assert [len(doc[key]) for key in ("k", "m", "w", "re", "im")] == [f.n_terms()] * 5


def _doc_edit(key, value):
    def edit(doc):
        doc[key] = value(doc[key]) if callable(value) else value
    return edit


def _generator_edit(key, value):
    """Set one field of the last frequency's first generator (the first
    frequency is zero, with no generators)."""
    def edit(doc):
        doc["freqs"][-1]["combo"][0][key] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_doc_edit("m", lambda m: m[:-1]), "one length"),
    (_doc_edit("re", lambda re: re + [[0.0, 0.0, 0.0]]), "one length"),
    (_doc_edit("k", None), "one length"),
    (lambda doc: doc.pop("im"), "KeyError"),
    (lambda doc: doc.pop("freqs"), "KeyError"),
    (_doc_edit("w", lambda w: [len(w) + 5] + w[1:]), "frequency row w"),
    (_doc_edit("w", lambda w: [-1] + w[1:]), "frequency row w"),
    (_doc_edit("w", lambda w: [1.0] + w[1:]), "frequency row w"),
    (_doc_edit("w", lambda w: [True] + w[1:]), "frequency row w"),
    (_doc_edit("w", lambda w: [10**30] + w[1:]), "frequency row w"),
    (_doc_edit("m", lambda m: [True] + m[1:]), "degree m"),
    (_doc_edit("m", lambda m: [-1] + m[1:]), "degree m"),
    (_doc_edit("m", lambda m: [1 << 12] + m[1:]), "degree m"),
    (_doc_edit("k", lambda k: [[9, 0, 0]] + k[1:]), "outside the lattice"),
    (_doc_edit("k", lambda k: [[1, 0]] + k[1:]), "not three integers"),
    (_doc_edit("im", lambda im: [["0", 0.0, 0.0]] + im[1:]), "not three numbers"),
    (_doc_edit("freqs", lambda fs: [{"value": 0.0}] + fs[1:]), "KeyError"),
    (_doc_edit("freqs", lambda fs: fs[:1] + fs[:1] + fs[2:]), "twice"),
    (_doc_edit("w", lambda w: w[:1] * len(w)), "twice"),
    (_generator_edit("s", 2.5), "frequency generator"),
    (_generator_edit("s", True), "frequency generator"),
    (_generator_edit("coef", 0.1), "frequency generator"),
    (_generator_edit("unit", "3"), "frequency generator"),
    (_doc_edit("L", lambda L: [L[0], L[1] / 2, L[2]]), "document's lattice"),
    (_doc_edit("cutoff", "12"), "document's lattice"),
], ids=["short-m", "long-re", "null-k", "no-im", "no-freqs", "w-past-end", "w-negative",
        "w-float", "w-bool", "w-huge", "m-bool", "m-negative", "m-huge", "k-off-lattice",
        "k-short", "im-string", "freq-no-combo", "freq-repeated", "key-repeated",
        "s-float", "s-bool", "coef-float", "unit-string", "L-other", "cutoff-other"])
def test_spoly_doc_refuses_malformed_columns(edit, message):
    """A malformed order document raises ValueError, never IndexError or KeyError."""
    doc = json.loads(json.dumps(spoly_to_doc(_random_spoly(LAT, seed=5, degrees=(0, 1)))))
    assert len(doc["freqs"]) > 2 and len(doc["w"]) > 2
    edit(doc)
    with pytest.raises(ValueError, match=message):
        spoly_from_doc(doc, LAT)


# -- the columnar container against the dict implementation -----------------
#
# Each _ref_* function is the earlier dict-of-terms body of the operation: a
# term map {(k, m, Frequency): c} updated one term at a time.  The columnar
# SPoly must give the same keys in the same order and bit-equal coefficients.

def _ref_canon(terms):
    """The dict constructor: exactly-zero coefficients dropped."""
    return {key: np.asarray(c, dtype=complex) for key, c in terms.items() if np.any(c)}


def _ref_accumulate(items):
    out = {}
    for key, val in items:
        out[key] = out.get(key, 0.0) + val
    return _ref_canon(out)


def _ref_add(f, g):
    out = {key: c.copy() for key, c in f.items()}
    for key, c in g.items():
        cur = out.get(key)
        s = c if cur is None else cur + c
        if np.any(s):
            out[key] = s.copy() if cur is None else s
        elif cur is not None:
            del out[key]
    return out


def _ref_scale(f, a):
    return {} if a == 0 else _ref_canon({key: c * a for key, c in f.items()})


def _ref_differentiate(f):
    items = []
    for (k, m, w), c in f.items():
        if m >= 1:
            items.append(((k, m - 1, w), m * c))
        if not w.is_zero:
            items.append(((k, m, w), 1j * w.value * c))
    return _ref_accumulate(items)


def _ref_time_shift(f, T):
    if T == 0.0:
        return dict(f)
    items = []
    for (k, m, w), c in f.items():
        base = c * np.exp(1j * w.value * T)
        items += [((k, n, w), math.comb(m, n) * T ** (m - n) * base) for n in range(m + 1)]
    return _ref_accumulate(items)


def _ref_mirror(u):
    """Each representative mode's conjugate partner set to its conjugate."""
    for k, i in LAT_MODES.items():
        if LAT.rep_mask[i]:
            u[..., LAT_MODES[tuple(-x for x in k)], :] = np.conj(u[..., i, :])
    return u


def _ref_evaluate(f, t):
    u = np.zeros((LAT.n_modes, 3), dtype=complex)
    for (k, m, w), c in f.items():
        u[LAT_MODES[k]] += (t**m) * np.exp(1j * w.value * t) * c
    return _ref_mirror(u)


def _ref_evaluate_many(f, ts):
    out = np.zeros((len(ts), LAT.n_modes, 3), dtype=complex)
    series = {}
    for (k, m, w), c in f.items():
        s = series.get((m, w))
        if s is None:
            s = series[(m, w)] = (ts**m * np.exp(1j * w.value * ts))[:, None]
        out[:, LAT_MODES[k], :] += s * c[None, :]
    return _ref_mirror(out)


def _ref_ode_solve(beta, f):
    resonant, bf = beta == 0, float(beta)
    items = []
    for (k, m, w), c in f.items():
        if resonant and w.is_zero:
            items.append(((k, m + 1, w), c / (m + 1)))
            continue
        gamma = bf + 1j * w.value
        a = c / gamma
        items.append(((k, m, w), a))
        for n in range(m - 1, -1, -1):
            a = -(n + 1) * a / gamma
            items.append(((k, n, w), a))
    q = _ref_accumulate(items)
    if resonant:
        delta = np.zeros((LAT.n_modes, 3), dtype=complex) - _ref_evaluate(q, 0.0)
        extra = {(tuple(int(x) for x in LAT.ks[i]), 0, Frequency.zero()): delta[i]
                 for i in range(LAT.n_modes) if LAT.rep_mask[i] and np.any(delta[i])}
        q = _ref_add(q, _ref_canon(extra))
    return q


def _ref_doc(f):
    items = sorted(f.items(), key=lambda kv: kv[0])
    freqs = sorted({w for (_, _, w) in f})
    return {"L": [float(x) for x in LAT.L], "cutoff": str(LAT.cutoff),
            "freqs": [_freq_doc(w) for w in freqs],
            "k": [list(k) for (k, _, _), _ in items], "m": [m for (_, m, _), _ in items],
            "w": [freqs.index(w) for (_, _, w), _ in items],
            "re": [[float(x) for x in c.real] for _, c in items],
            "im": [[float(x) for x in c.imag] for _, c in items]}


_W1 = Frequency.rotation(2, Fraction(1, 2), OMEGA)
_W2 = _root7(0.37)
# distinct objects for one frequency: (_W1 + _W2) - _W2 and 2 _W1 - _W1 are _W1
_FREQ_POOL = [Frequency.zero(), _W1, -_W1, _W2, _W1 + _W2, _W2 + _W1,
              (_W1 + _W2) - _W2, (_W1 + _W1) - _W1]
# representative modes on all three shells: a term map drawn from them is a real polynomial
_MODE_POOL = [tuple(int(x) for x in LAT.ks[i])
              for i in np.flatnonzero(LAT.rep_mask)[[0, 1, 2, 3, 4, 7, 10, 12]]]
_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5]),
                   st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))
_coefs = st.lists(st.tuples(_parts, _parts), min_size=3, max_size=3).map(
    lambda xs: np.array([complex(a, b) for a, b in xs]))


def _term_maps(modes, freqs):
    return st.dictionaries(
        st.tuples(st.sampled_from(modes), st.integers(0, 3), st.sampled_from(freqs)),
        _coefs, max_size=12)


@st.composite
def _operands(draw, modes=_MODE_POOL, freqs=_FREQ_POOL):
    """Two term maps; g repeats some of f's terms, negated or not, so that
    f + g and f - g cancel those keys exactly."""
    f, g = draw(_term_maps(modes, freqs)), draw(_term_maps(modes, freqs))
    for key in draw(st.lists(st.sampled_from(list(f)), max_size=4)) if f else []:
        g[key] = -f[key] if draw(st.booleans()) else f[key].copy()
    return f, g


@given(_operands())
@settings(deadline=None, max_examples=150)
def test_columnar_linear_ops_match_dict_reference(operands):
    fd, gd = operands
    f, g = SPoly(LAT, fd), SPoly(LAT, gd)
    rf, rg = _ref_canon(fd), _ref_canon(gd)
    zero = SPoly.zero(LAT)
    _assert_identical(f, rf)
    _assert_identical(f + g, _ref_add(rf, rg))
    _assert_identical(f - g, _ref_add(rf, _ref_scale(rg, -1.0)))
    _assert_identical(f + zero, rf)
    _assert_identical(zero - f, _ref_scale(rf, -1.0))
    for a in (2.5, -1.0, 0.0, 0.3j, 1e-320):
        _assert_identical(f.scale(a), _ref_scale(rf, a))
    _assert_identical(f.apply_stokes(), _ref_canon(
        {key: c * LAT.lam_f[LAT_MODES[key[0]]] for key, c in rf.items()}))
    for lam in (*LAT.eigenvalues, Fraction(1, 2)):
        on = LAT.shell_of == LAT.shell(lam)
        _assert_identical(f.restrict_shell(lam), {
            key: c for key, c in rf.items() if on[LAT_MODES[key[0]]]})


@given(_operands(_MODE_POOL[:2], _FREQ_POOL[:2] + _FREQ_POOL[6:]))
@settings(deadline=None, max_examples=100)
def test_columnar_calculus_matches_dict_reference(operands):
    """Few modes and frequencies, so that many terms share a mode and a
    frequency and the outputs sum several contributions per key."""
    fd, _ = operands
    f, rf = SPoly(LAT, fd), _ref_canon(fd)
    _assert_identical(f.differentiate(), _ref_differentiate(rf))
    for T in (0.0, 0.7, -1.3):
        _assert_identical(f.time_shift(T), _ref_time_shift(rf, T))
    for beta in (0, Fraction(3, 2), -2, 0.7):
        _assert_identical(ode_solve(beta, f), _ref_ode_solve(beta, rf))
    ts = np.array([0.0, 0.4, 2.3])
    got, want = f.evaluate_many(ts), _ref_evaluate_many(rf, ts)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert json.dumps(spoly_to_doc(f)) == json.dumps(_ref_doc(rf))


# -- the representative half ---------------------------------------------------

@given(st.sampled_from(["cube3", "aniso5"]), st.integers(0, 2**16), st.data())
@settings(deadline=None, max_examples=40)
def test_terms_are_read_on_either_half(name, seed, data):
    """A term on a non-representative mode stands for its partner: a real
    polynomial given by both halves, by its representative half or by the
    other half is one SPoly, bit for bit.  A pair that disagrees is a key
    given twice.  Evaluation gives exact conjugate pairs."""
    lat = _LATTICES[name]
    half = dict(_random_spoly(lat, seed, degrees=(0, 2), n_modes=4).terms)
    other = dict(_partner(key, c) for key, c in half.items())
    both = {}
    for pair in zip(half.items(), other.items()):
        both.update(pair if data.draw(st.booleans()) else pair[::-1])
    want = SPoly(lat, half)
    for terms in (both, other):
        got = SPoly(lat, terms)
        for col in ("mode", "deg", "fid"):
            assert np.array_equal(getattr(got, col), getattr(want, col))
        assert np.array_equal(got.coef.view(np.uint64), want.coef.view(np.uint64))
    key, c = data.draw(st.sampled_from(list(half.items())))
    pkey, pc = _partner(key, c)
    with pytest.raises(ValueError, match="twice"):
        SPoly(lat, {**half, pkey: pc + data.draw(st.sampled_from([1.0, 1e-12, -1j]))})
    _assert_real(want)
