import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rotspec.cli import main
from rotspec.lattice import (
    Lattice,
    LatticeError,
    SemigroupTable,
    build_lattice,
    _squarefree_decompose,
    semigroup_table,
)

@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200)
def test_squarefree_decompose(n):
    a, s = _squarefree_decompose(n)
    assert a * a * s == n
    for p in range(2, int(math.isqrt(s)) + 1):
        assert s % (p * p) != 0


def test_cube_eigenvalues_brute_force():
    """Enumerate |k|^2 <= 12 directly and compare against the lattice."""
    lat = build_lattice(cutoff=12)
    seen = {}
    for k1 in range(-4, 5):
        for k2 in range(-4, 5):
            for k3 in range(-4, 5):
                n = k1 * k1 + k2 * k2 + k3 * k3
                if 0 < n <= 12:
                    seen[n] = seen.get(n, 0) + 1
    assert [int(l) for l in lat.eigenvalues] == sorted(seen)
    assert sorted(seen) == [1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12]  # 7 is no sum of 3 squares
    for lam, mult in zip(lat.eigenvalues, lat.multiplicity):
        assert seen[int(lam)] == mult


def test_cube_multiplicity_table(cube6):
    assert {int(l): m for l, m in zip(cube6.eigenvalues, cube6.multiplicity)} == {
        1: 6, 2: 12, 3: 8, 4: 6, 5: 24, 6: 24,
    }


def test_mode_ordering_and_arrays(cube6):
    lat = cube6
    # sorted by (eigenvalue, lexicographic k); arrays consistent mode-wise
    lams = [lat.eigenvalues[s] for s in lat.shell_of]
    assert lams == sorted(lams)
    for i in range(lat.n_modes):
        k = tuple(int(c) for c in lat.ks[i])
        assert lat.index_of(k) == i
        lam = sum(q * c * c for q, c in zip(lat.q, k))
        assert lat.eigenvalues[lat.shell_of[i]] == lam
        assert abs(lat.lam_f[i] - float(lam)) < 1e-15 * float(lam)
        np.testing.assert_allclose(lat.kcheck[i] @ lat.kcheck[i], float(lam), rtol=1e-14)
        np.testing.assert_allclose(lat.ktil[i] @ lat.ktil[i], 1.0, rtol=1e-14)


def test_conjugate_pairing(cube6):
    lat = cube6
    for i in range(lat.n_modes):
        j = lat.conj_idx[i]
        assert tuple(lat.ks[j]) == tuple(-c for c in lat.ks[i])
        assert lat.rep_mask[i] != lat.rep_mask[j]


def test_index_of(cube6):
    lat = cube6
    modes = np.arange(lat.n_modes)
    pos = {tuple(k): i for i, k in enumerate(lat.ks.tolist())}
    np.testing.assert_array_equal(lat.index_of(lat.ks), modes)
    np.testing.assert_array_equal(lat.index_of(-lat.ks), [pos[tuple(-k)] for k in lat.ks])
    np.testing.assert_array_equal(lat.index_of(-lat.ks), lat.conj_idx)
    np.testing.assert_array_equal(lat.index_of(lat.ks.reshape(2, -1, 3)), modes.reshape(2, -1))
    # (2,2,2) and 0 lie inside the code box but are no modes; the others lie outside it
    assert (2, 2, 2) not in pos
    off = np.array([[2, 2, 2], [0, 0, 9], [0, 0, 0], [-2**63, 0, 0]])
    np.testing.assert_array_equal(lat.index_of(off), [-1, -1, -1, -1])


def test_projector_and_cross_matrix(cube6):
    lat = cube6
    rng = np.random.default_rng(0)
    for i in rng.integers(0, lat.n_modes, 12):
        P = lat.proj[i]
        np.testing.assert_allclose(P @ P, P, atol=1e-14)
        np.testing.assert_allclose(P @ lat.ktil[i], 0.0, atol=1e-14)
        z = rng.standard_normal(3)
        np.testing.assert_allclose(lat.jk[i] @ z, np.cross(lat.ktil[i], z), atol=1e-14)


def test_vertical_frequency_data(cube6):
    """kt3 = coef * sqrt(sqfree) with coef^2 * sqfree == q3 k3^2 / lam, exactly."""
    lat = cube6
    for i in range(lat.n_modes):
        k = lat.ks[i]
        ratio = lat.q[2] * int(k[2]) ** 2 / lat.eigenvalues[lat.shell_of[i]]
        coef = lat.freq_coef[i]
        s = lat.freq_sqfree[i]
        assert coef * coef * s == ratio
        assert math.copysign(1, float(coef) if coef else 1.0) == math.copysign(1, k[2] if k[2] else 1.0)
        np.testing.assert_allclose(lat.kt3[i], float(coef) * math.sqrt(s), atol=1e-15)


def test_anisotropic_box():
    # L3 = pi means q3 = 4; the spectrum picks up the stretched direction
    lat = build_lattice(ell=(1, 1, "1/2"), cutoff=6)
    assert lat.q == (Fraction(1), Fraction(1), Fraction(4))
    for i in range(lat.n_modes):
        k1, k2, k3 = (int(c) for c in lat.ks[i])
        assert lat.eigenvalues[lat.shell_of[i]] == k1 * k1 + k2 * k2 + 4 * k3 * k3
    assert Fraction(4) in lat.eigenvalues
    assert lat.index_of((0, 0, 1)) >= 0
    assert lat.index_of((0, 0, 2)) == -1


def _reference_lattice(ell, cutoff):
    """The lattice attributes from a Fraction triple loop over the box
    |k_j| <= isqrt(cutoff/q_j), one mode at a time."""
    ell = [Fraction(e) for e in ell]
    q = [1 / (e * e) for e in ell]
    cutoff = Fraction(cutoff)
    bounds = [math.isqrt(int(cutoff / qj)) for qj in q]
    found = []
    for k1 in range(-bounds[0], bounds[0] + 1):
        for k2 in range(-bounds[1], bounds[1] + 1):
            for k3 in range(-bounds[2], bounds[2] + 1):
                lam = q[0] * k1 * k1 + q[1] * k2 * k2 + q[2] * k3 * k3
                if 0 < lam <= cutoff:
                    found.append((lam, (k1, k2, k3)))
    found.sort()
    lam = [l for l, _ in found]
    ks = [k for _, k in found]
    eigenvalues = sorted(set(lam))
    pos = {k: i for i, k in enumerate(ks)}
    kcheck = np.array(ks, dtype=int) * np.array([math.sqrt(float(qj)) for qj in q])[None, :]
    lam_f = np.array([float(l) for l in lam])
    ktil = kcheck / np.sqrt(lam_f)[:, None]
    freq_sqfree, freq_coef = [], []
    for k, l in zip(ks, lam):
        if k[2] == 0:
            freq_sqfree.append(1)
            freq_coef.append(Fraction(0))
            continue
        ratio = q[2] * k[2] * k[2] / l
        a, sqfree = _squarefree_decompose(ratio.numerator * ratio.denominator)
        freq_sqfree.append(sqfree)
        freq_coef.append(Fraction(a, ratio.denominator) * (1 if k[2] > 0 else -1))
    return {
        "ks": ks,
        "lam": lam,
        "eigenvalues": eigenvalues,
        "multiplicity": [lam.count(l) for l in eigenvalues],
        "shell_of": [eigenvalues.index(l) for l in lam],
        "rep_mask": [next(c > 0 for c in k if c != 0) for k in ks],
        "conj_idx": [pos[tuple(-c for c in k)] for k in ks],
        "freq_sqfree": freq_sqfree,
        "freq_coef": freq_coef,
        "lam_f": lam_f,
        "kcheck": kcheck,
        "jk": np.array([[[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]]
                        for u in ktil]),
    }


_periods = st.builds(Fraction, st.integers(1, 4), st.integers(1, 4))


@given(st.lists(_periods, min_size=3, max_size=3).map(lambda e: [x / max(e) for x in e]),
       st.builds(Fraction, st.integers(2, 24), st.integers(1, 2)))
@example(["1", "3037000493/3037000500", "1/2"], 3)  # numerators beyond int64
@settings(deadline=None, max_examples=60)
def test_lattice_matches_reference_loop(ell, cutoff):
    """Every attribute equals the one-mode-at-a-time construction: exactly for
    the integers, Fractions and masks, bit for bit for the float arrays."""
    lat = Lattice(ell, cutoff)
    want = _reference_lattice(ell, cutoff)
    assert lat.ks.tolist() == [list(k) for k in want["ks"]]
    assert [lat.eigenvalues[s] for s in lat.shell_of] == want["lam"]
    for name in ("eigenvalues", "multiplicity", "freq_sqfree", "freq_coef"):
        assert getattr(lat, name) == want[name], name
    for name in ("shell_of", "rep_mask", "conj_idx"):
        assert getattr(lat, name).tolist() == want[name], name
    for name in ("lam_f", "kcheck", "jk"):
        got = getattr(lat, name)
        assert got.shape == want[name].shape and got.tobytes() == want[name].tobytes(), name
    np.testing.assert_array_equal(lat.index_of(lat.ks), np.arange(lat.n_modes))


def test_squarefree_decompose_past_the_trial_bound():
    """Cofactors with no prime below 2^16: a prime, a square, two primes, or refused."""
    p, q, r = 65537, 65539, 1000003  # primes above the bound
    assert _squarefree_decompose(12 * p) == (2, 3 * p)
    assert _squarefree_decompose(18 * p * p) == (3 * p, 2)
    assert _squarefree_decompose(5 * p * q) == (1, 5 * p * q)
    assert _squarefree_decompose(4 * (p * q) ** 2) == (2 * p * q, 1)
    with pytest.raises(LatticeError, match="square-free part"):
        _squarefree_decompose(p * q * r)


def test_large_period_denominators_are_refused_quickly(capsys):
    """Periods whose radical form needs factoring numbers near 10^36 end within
    2 s: the lattice is built or refused with LatticeError, and spectrum exits 2."""
    start = time.perf_counter()
    with pytest.raises(LatticeError, match="radical form"):
        build_lattice(cutoff=6, ell=(1, "999999999/1000000000", 1))
    assert time.perf_counter() - start < 2.0
    assert main(["spectrum", "--L", "1,999999999/1000000000,1", "--cutoff", "6"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config" and "radical form" in err["message"]


def test_radical_form_is_taken_once_per_shell(monkeypatch):
    """k3til = k3 sqrt(q3/lam): the cutoff-30 cube decomposes q3/lam once on
    each of its 26 shells, not once on each of its 642 modes with k3 != 0,
    and keeps no per-mode list of eigenvalues."""
    import rotspec.lattice

    calls = []

    def spy(n):
        calls.append(n)
        return _squarefree_decompose(n)

    monkeypatch.setattr(rotspec.lattice, "_squarefree_decompose", spy)
    lat = build_lattice(cutoff=30)
    assert len(calls) == len(lat.eigenvalues) == 26 and lat.n_modes == 738
    assert not hasattr(build_lattice(cutoff=2), "lam")


def test_periods_without_a_radical_form_are_refused(capsys):
    """On the shell of k = (1, 0, 1), q3/lam = 14034520^2 / (9208423^2 +
    14034520^2), whose denominator is 65537 * 65557 * 65581, three primes
    past the trial bound: its square-free part is unknown, so the lattice
    is refused and spectrum exits 2."""
    assert 9208423 ** 2 + 14034520 ** 2 == 65537 * 65557 * 65581
    with pytest.raises(LatticeError, match="cannot be put in radical form"):
        Lattice((1, 1, "9208423/14034520"), 4)
    assert main(["spectrum", "--L", "1,1,9208423/14034520", "--cutoff", "4"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config" and "cannot be put in radical form" in err["message"]


def test_code_table_size_is_bounded(capsys):
    """A cutoff whose pairwise-sum code table would pass 2^24 entries is
    refused before anything is allocated; cube cutoff 4095 is the largest."""
    with pytest.raises(LatticeError, match="wave-vector codes"):
        build_lattice(cutoff=10**6)
    with pytest.raises(LatticeError, match="wave-vector codes"):
        build_lattice(cutoff=4096)
    assert main(["spectrum", "--cutoff", "1000000"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config" and "wave-vector codes" in err["message"]


def test_period_validation():
    with pytest.raises(LatticeError):
        build_lattice(ell=(2, 1, 1), cutoff=4)  # period above 2*pi breaks lam1 = 1
    with pytest.raises(LatticeError):
        build_lattice(cutoff=0)
    with pytest.raises(LatticeError):
        build_lattice(cutoff="1/2")  # no modes at all


@pytest.mark.parametrize("kwargs, name", [
    ({"cutoff": "1/0"}, "cutoff"), ({"cutoff": float("nan")}, "cutoff"),
    ({"cutoff": float("inf")}, "cutoff"), ({"cutoff": [6]}, "cutoff"),
    ({"ell": (1, 1, "1/0")}, "ell"), ({"ell": (1, "abc", 1)}, "ell"),
    ({"ell": (1, 1)}, "ell"), ({"ell": (1, 1, "1e-308")}, "ell"),
])
def test_lattice_names_a_bad_parameter(kwargs, name):
    with pytest.raises(LatticeError, match=f"^{name} "):
        build_lattice(**kwargs)


@pytest.mark.parametrize("cap", ["1/0", "nan", float("-inf"), None])
def test_semigroup_names_a_bad_cap(cap):
    with pytest.raises(LatticeError, match="^cap must be a rational number"):
        SemigroupTable([Fraction(1)], cap)


@pytest.mark.parametrize("eigenvalues, cap", [([1], 10**9), ([-1, 1], 5)])
def test_semigroup_closure_is_bounded(eigenvalues, cap):
    """A closure past 2**12 elements (one the cap leaves unbounded, or one
    below a negative eigenvalue) stops with an error naming the cap."""
    with pytest.raises(LatticeError, match=f"below cap {cap} has more than 4096 elements"):
        SemigroupTable(eigenvalues, cap)


def test_semigroup_brute_force():
    """Unbounded-knapsack reachability as an independent oracle."""
    lat = build_lattice(cutoff=12)
    table = semigroup_table(lat, cap=10)
    cap = 10
    reach = [False] * (cap + 1)
    reach[0] = True
    for e in [int(l) for l in lat.eigenvalues if l <= cap]:
        for s in range(e, cap + 1):
            reach[s] = reach[s] or reach[s - e]
    expected = [Fraction(s) for s in range(1, cap + 1) if reach[s]]
    assert table.mu == expected
    assert table.mu == [Fraction(n) for n in range(1, 11)]


def test_semigroup_decompositions():
    lat = build_lattice(cutoff=3)
    assert lat.eigenvalues == [Fraction(1), Fraction(2), Fraction(3)]
    table = SemigroupTable(lat.eigenvalues, cap=6)
    for n, mu in enumerate(table.mu):
        for (i, j) in table.decompositions[n]:
            assert table.mu[i] + table.mu[j] == mu
        # exhaustiveness against a direct double loop
        direct = {(i, j) for i in range(len(table.mu)) for j in range(len(table.mu))
                  if table.mu[i] + table.mu[j] == mu}
        assert set(table.decompositions[n]) == direct
    assert lat.shell(Fraction(2)) >= 0
    assert lat.shell(Fraction(6)) < 0


def _finite_sums(eigenvalues, cap):
    """Every sum of one or more eigenvalues (repeats allowed) that is <= cap."""
    out = set()

    def extend(total, start):
        for i in range(start, len(eigenvalues)):
            s = total + eigenvalues[i]
            if s <= cap:
                out.add(s)
                extend(s, i)

    extend(Fraction(0), 0)
    return out


fractions = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))


@given(st.lists(fractions, min_size=1, max_size=4), fractions)
@settings(deadline=None, max_examples=60)
def test_semigroup_table_matches_brute_force(eigenvalues, cap):
    cap = cap + min(eigenvalues)  # at least one eigenvalue at or below the cap
    table = SemigroupTable(eigenvalues, cap)
    assert table.mu == sorted(_finite_sums(sorted(set(eigenvalues)), cap))
    for n, m in enumerate(table.mu):
        assert table.decompositions[n] == [
            (i, j) for i in range(len(table.mu)) for j in range(len(table.mu))
            if table.mu[i] + table.mu[j] == m]


def test_semigroup_closure_property():
    lat = build_lattice(ell=(1, 1, "1/2"), cutoff=8)
    table = semigroup_table(lat)
    elems = set(table.mu)
    for x in table.mu:
        for y in table.mu:
            if x + y <= table.cap:
                assert x + y in elems


def test_shell_indices(cube6):
    lat = cube6
    total = 0
    for lam in lat.eigenvalues:
        idx = lat.shell_indices(lam)
        total += len(idx)
        assert all(lat.eigenvalues[lat.shell_of[i]] == lam for i in idx)
    assert total == lat.n_modes


def test_lattice_error_abbreviates_huge_numbers():
    """A run of more than 30 digits prints as its leading digits and its
    length; one of 30 prints whole."""
    assert str(LatticeError(f"cap {10**29}")) == f"cap {10**29}"
    assert str(LatticeError(f"cap {10**30}/3")) == "cap 100000... (31 digits)/3"
