"""Oscillating-polynomial algebra over spectral fields.

Terms are complex exponentials t^m exp(i w t) c attached to a lattice mode.
Every polynomial is real: a term (k, m, w, c) stands with its conjugate
partner (-k, m, -w, conj(c)), and only the partner on the representative
mode (Lattice.rep_mask) is stored, so reality holds by construction.
Frequencies are formal: exact rational combinations over square roots of
squarefree integers (the rotation lattice contributes Omega * k3til, and
sqrt(k3^2/|k|^2) rationalizes to (a/q) sqrt(s)).
Distinct formal keys are never merged on numeric proximity: they stay
distinct terms however close their values.

Round-off terms.  Some values the algebra forms are zero in exact arithmetic
and round-off in floats: the half (c -/+ i J_k c)/2 of a rotating term whose
c is already circular (a Poincare wave), the dot c1 . kcheck_o of a pair
whose output mode o lies on the line of c1's mode, the projection P_o c2 of
a c2 along o, and key sums that cancel.  No value is dropped on its size alone.  Each
value is a sum of contributions, and each contribution has a round-off
scale, formed from the magnitudes of the operands that made it:
    |c|_1                                 a rotation half of c,
    (sum_i |c1_i| |kcheck_o,i|) |c2|_1    a pair of the bilinear form (the
                                          dot's bound times the projection's;
                                          P's entries are at most 1),
    |c|_1                                 a summand of expand's sum over
                                          products.
A term is dropped when its largest component is at most ROUNDOFF = kappa *
eps times the sum of its contributions' scales, with kappa = 2^10.  SPoly's
own `+` and `-` keep every non-zero sum: verify_expansion_system measures
round-off through them.

kappa bounds the relative error the operands bring in.  Counting worst-case
roundings (u = eps/2), one order of the recursion takes a coefficient
through a rotation split and its inverse (about 6u each, J_k's entries
included), a pair dot and a projection (about 6u each, kcheck's and P's
entries included), their product (2u), the sum over products (at most 5u)
and the mode ODE (about 5u per degree): below 30 eps per order.  An order-n
operand so carries at most 30 (n - 1) eps, and a key summing N
contributions adds (N - 1) u.  At order 6 on the cube-6 runs, where a
product's key sums at most 96 contributions, that is about 200 eps; kappa =
2^10 leaves a margin of 5.  Measured on those runs through order 7, the
residues stay below 25 eps times their scale and the kept values lie above
10^6 eps times it.

Document versions, told apart by the artifact stamp of the file that holds
them.  0.1.0 wrote a "terms" list that repeated the full frequency in every
term; the reader takes only the columnar layout that 0.2.0 introduced
(spoly_to_doc).  0.3.0 writes only the representative rows, half of
0.2.0's.  A 0.2.0 order holds both halves: the reader refuses it ("twice")
unless every pair is an exact conjugate, when it reads the polynomial that
0.3.0 writes, so the orders of an expansion from 3 up are refused.  0.4.0
leaves out the round-off terms above, so orders from 3 up hold far fewer
terms; a 0.3.0 document still reads bit for bit.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .lattice import Lattice
from .fields import SpectralField, _lattice_frame, _mirror, _modes_of, _rows

__all__ = [
    "Frequency", "SPoly", "ode_solve", "antiderivative", "apply_expS_spoly",
    "bilinear_spoly", "OdeResonanceError", "spoly_to_doc", "spoly_from_doc",
]


class OdeResonanceError(ValueError):
    """A numerically degenerate gamma = beta + i*omega that is not an exact resonance."""


# kappa * eps, the round-off bound of the module docstring
ROUNDOFF = 2.0**10 * np.finfo(float).eps

# ---------------------------------------------------------------------------
# formal frequencies


class Frequency:
    """Exact rational combination of frequency generators.

    Each component is (key, coef, unit): `key` identifies the generator
    (("rot", s) for Omega*sqrt(s), s squarefree), `coef` is a Fraction and
    `unit` the generator's numeric value.  The parts are the identity: two
    frequencies are equal when they combine the same generators with the same
    coefficients and units, so equal combinations at two rotation rates
    differ.  Numeric value is the exact sum
    coef*unit.  The hash is computed once, when the object is built.
    """

    __slots__ = ("parts", "value", "_hash")

    def __init__(self, parts: Iterable[Tuple[tuple, Fraction, float]] = ()):
        merged: Dict[tuple, Tuple[Fraction, float]] = {}
        for key, coef, unit in parts:
            coef = coef if type(coef) is Fraction else Fraction(coef)
            if key in merged:
                old_coef, old_unit = merged[key]
                if old_unit != unit:  # units are computed one way, or read back exactly
                    raise ValueError(
                        f"generator {key} seen with two different values "
                        f"({old_unit} vs {unit}); frequencies from different "
                        "rotation rates cannot be combined"
                    )
                coef = coef + old_coef
            merged[key] = (coef, unit)
        self.parts = tuple(
            (key, coef, unit)
            for key, (coef, unit) in sorted(merged.items())
            if coef != 0
        )
        self.value = float(sum(float(coef) * unit for _, coef, unit in self.parts))
        self._hash = hash(self.parts)

    @staticmethod
    def zero() -> "Frequency":
        return _FREQ_ZERO

    @staticmethod
    def rotation(sqfree: int, coef: Fraction, omega: float) -> "Frequency":
        """coef * |omega| * sqrt(sqfree), sign carried by coef."""
        if coef == 0 or omega == 0.0:
            return _FREQ_ZERO
        sgn = 1 if omega > 0 else -1
        return Frequency(
            [(("rot", sqfree), Fraction(coef) * sgn, abs(omega) * math.sqrt(sqfree))]
        )

    @property
    def is_zero(self) -> bool:
        return not self.parts

    def __add__(self, other: "Frequency") -> "Frequency":
        if not other.parts:
            return self
        if not self.parts:
            return other
        return Frequency(list(self.parts) + list(other.parts))

    def __neg__(self) -> "Frequency":
        f = Frequency.__new__(Frequency)
        f.parts = tuple((key, -coef, unit) for key, coef, unit in self.parts)
        f.value = -self.value
        f._hash = hash(f.parts)
        return f

    def __sub__(self, other: "Frequency") -> "Frequency":
        return self + (-other)

    def __eq__(self, other):
        return self is other or (isinstance(other, Frequency) and self._hash == other._hash
                                 and self.parts == other.parts)

    def __hash__(self):
        return self._hash

    def __lt__(self, other: "Frequency"):
        return self.parts < other.parts

    def __repr__(self):
        if not self.parts:
            return "Frequency(0)"
        bits = "+".join(f"{coef}*{key}" for key, coef, _ in self.parts)
        return f"Frequency({bits}={self.value:.6g})"


_FREQ_ZERO = Frequency()


# ---------------------------------------------------------------------------
# interned frequencies


class _FrequencyTable:
    """The frequencies met on one lattice, numbered in order of first use (0 is
    zero), with memoized sums, negations and rotation shifts."""

    def __init__(self, lattice: Lattice):
        self.freqs: List[Frequency] = []
        self._ids, self._memo, self._values = {}, {}, np.zeros(0)
        self.intern(_FREQ_ZERO)
        # rotation class per mode: 0 where k3 = 0, else 1 + index into rot_keys
        keys = list(zip(lattice.freq_sqfree, lattice.freq_coef))
        self.rot_keys = sorted({key for key in keys if key[1] != 0})
        classes = {key: n + 1 for n, key in enumerate(self.rot_keys)}
        self.rot_class = np.array([classes.get(key, 0) for key in keys], dtype=np.intp)

    def intern(self, f: Frequency) -> int:
        i = self._ids.get(f)  # f's hash is cached
        if i is None:
            i = self._ids[f] = len(self.freqs)
            self.freqs.append(f)
        return i

    def values(self, ids: np.ndarray) -> np.ndarray:
        if len(self._values) != len(self.freqs):
            new = [f.value for f in self.freqs[len(self._values):]]
            self._values = np.concatenate((self._values, new))
        return self._values[ids]

    def add(self, a: int, b: int) -> int:
        i = self._memo.get(("+", a, b))
        if i is None:
            i = self._memo["+", a, b] = self.intern(self.freqs[a] + self.freqs[b])
        return i

    def neg(self, a: int) -> int:
        i = self._memo.get(("-", a))
        if i is None:
            i = self._memo["-", a] = self.intern(-self.freqs[a])
        return i

    def shifted(self, a: int, rot: int, omega: float) -> Tuple[int, int]:
        """Ids of w + g and w - g, g the rotation frequency of class rot at omega."""
        g = self._memo.get((rot, omega))
        if g is None:
            g = self._memo[rot, omega] = self.intern(
                Frequency.rotation(*self.rot_keys[rot - 1], omega))
        return self.add(a, g), self.add(a, self.neg(g))


def _freq_table(lattice: Lattice) -> _FrequencyTable:
    if not hasattr(lattice, "_freq_table"):
        lattice._freq_table = _FrequencyTable(lattice)
    return lattice._freq_table


# ---------------------------------------------------------------------------
# vector-valued polynomials on lattice modes


TermKey = Tuple[Tuple[int, int, int], int, Frequency]


def _codes(mode: np.ndarray, deg: np.ndarray, fid: np.ndarray) -> np.ndarray:
    """One int64 per term key (mode < 2^20, degree < 2^12)."""
    return (fid << 32) | (deg << 20) | mode


def _find(codes: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Row of each query among the distinct codes, -1 where absent."""
    codes = np.append(codes, -1)  # a sentinel that no key matches
    order = np.argsort(codes)
    rows = order[np.minimum(np.searchsorted(codes[order], queries), len(codes) - 1)]
    return np.where(codes[rows] == queries, rows, -1)


class SPoly:
    """Real finite sum of terms t^m exp(i w t) c_k attached to lattice modes.

    Columns: mode index, degree and interned frequency id per term, and the
    (T, 3) coefficients.  Every row lies on a representative mode; its
    conjugate partner (-k, m, -w, conj c) is implied, and evaluation fills
    it in.  The dict constructor reads keys as _representative does.  Keys
    are distinct, in order of first appearance; exactly-zero rows are
    dropped.  Instances are not mutated.
    """

    __slots__ = ("lattice", "mode", "deg", "fid", "coef", "_terms")

    def __init__(self, lattice: Lattice, terms: Optional[Dict[TermKey, np.ndarray]] = None):
        terms, table = terms or {}, _freq_table(lattice)
        mode = _modes_of(lattice, np.array([k for k, _, _ in terms], dtype=np.int64).reshape(-1, 3))
        deg = np.array([m for _, m, _ in terms], dtype=np.intp)
        fid = np.array([table.intern(w) for _, _, w in terms], dtype=np.intp)
        coef = np.array(list(terms.values()), dtype=complex).reshape(-1, 3)
        self._set(lattice, *_representative(lattice, mode, deg, fid, coef))

    def _set(self, lattice, mode, deg, fid, coef) -> "SPoly":
        live = np.any(coef != 0, axis=1)
        if not live.all():
            mode, deg, fid, coef = mode[live], deg[live], fid[live], coef[live]
        coef.flags.writeable = False  # the rows `terms` hands out stay read-only
        self.lattice, self.mode, self.deg, self.fid, self.coef = lattice, mode, deg, fid, coef
        self._terms = None
        return self

    @staticmethod
    def _columns(lattice: Lattice, mode, deg, fid, coef) -> "SPoly":
        return SPoly.__new__(SPoly)._set(lattice, mode, deg, fid, coef)

    def _with(self, coef: np.ndarray, rows=slice(None)) -> "SPoly":
        return SPoly._columns(self.lattice, self.mode[rows], self.deg[rows], self.fid[rows], coef)

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(lattice: Lattice) -> "SPoly":
        return SPoly(lattice)

    @staticmethod
    def from_field(u: SpectralField) -> "SPoly":
        """The constant-in-time polynomial u: its non-zero representative rows."""
        w = _freq_table(u.lattice).intern(Frequency.zero())
        mode = np.flatnonzero(u.lattice.rep_mask & np.any(u.coeffs != 0, axis=1))
        return SPoly._columns(u.lattice, mode, np.zeros(len(mode), dtype=np.intp),
                              np.full(len(mode), w, dtype=np.intp), u.coeffs[mode])

    # -- bookkeeping --------------------------------------------------------
    @property
    def terms(self) -> Mapping[TermKey, np.ndarray]:
        """Read-only {(k, m, Frequency): c} view, in row order."""
        if self._terms is None:
            ks, freqs = self.lattice.ks.tolist(), _freq_table(self.lattice).freqs
            self._terms = MappingProxyType({
                (tuple(ks[i]), m, freqs[w]): c for i, m, w, c in
                zip(self.mode.tolist(), self.deg.tolist(), self.fid.tolist(), self.coef)})
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not len(self.mode)

    def n_terms(self) -> int:
        return len(self.mode)

    def max_abs(self) -> float:
        return float(np.abs(self.coef).max()) if len(self.mode) else 0.0

    def degree(self) -> int:
        return int(self.deg.max()) if len(self.mode) else 0

    def support_lams(self) -> List[Fraction]:
        shells = np.unique(self.lattice.shell_of[self.mode]).tolist()
        return [self.lattice.eigenvalues[s] for s in shells]

    # -- linear structure ---------------------------------------------------
    def __add__(self, other: "SPoly") -> "SPoly":
        """Self's rows in order, shared keys summed (dropped if exactly zero),
        then other's new keys in their order."""
        rows = _find(_codes(self.mode, self.deg, self.fid),
                     _codes(other.mode, other.deg, other.fid))
        hit = rows >= 0
        coef = self.coef.copy()
        coef[rows[hit]] += other.coef[hit]
        new = ~hit
        return SPoly._columns(self.lattice, np.concatenate((self.mode, other.mode[new])),
                              np.concatenate((self.deg, other.deg[new])),
                              np.concatenate((self.fid, other.fid[new])),
                              np.concatenate((coef, other.coef[new])))

    def __sub__(self, other: "SPoly") -> "SPoly":
        return self + other.scale(-1.0)

    def scale(self, a: complex) -> "SPoly":
        if a == 0:
            return SPoly.zero(self.lattice)
        return self._with(self.coef * a)

    __neg__ = lambda self: self.scale(-1.0)

    def apply_stokes(self) -> "SPoly":
        """Each term times its mode's Stokes eigenvalue."""
        return self._with(self.coef * self.lattice.lam_f[self.mode][:, None])

    def restrict_shell(self, lam) -> "SPoly":
        keep = self.lattice.shell_of[self.mode] == self.lattice.shell(lam)
        return self._with(self.coef[keep], keep)

    # -- reparametrizations --------------------------------------------------
    def time_shift(self, T: float) -> "SPoly":
        """f(t) -> f(t + T), expanded back into canonical terms."""
        if T == 0.0:
            return self
        base = self.coef * np.exp(1j * _freq_table(self.lattice).values(self.fid) * T)[:, None]
        rep, n = _spread(self.deg + 1)
        fac = [math.comb(a, b) * T ** (a - b) for a, b in zip(self.deg[rep].tolist(), n.tolist())]
        return _collect(self.lattice, self.mode[rep], n, self.fid[rep],
                        np.array(fac)[:, None] * base[rep])

    def differentiate(self) -> "SPoly":
        w, c = _freq_table(self.lattice).values(self.fid), self.coef
        vals = np.stack((self.deg[:, None] * c, (1j * w)[:, None] * c), axis=1).reshape(-1, 3)
        keep = np.stack((self.deg >= 1, self.fid != 0), axis=1).ravel()
        deg = np.stack((self.deg - 1, self.deg), axis=1).ravel()[keep]
        rep = np.repeat(np.arange(len(self.mode)), 2)[keep]
        return _collect(self.lattice, self.mode[rep], deg, self.fid[rep], vals[keep])

    # -- evaluation ---------------------------------------------------------
    def evaluate(self, t: float) -> SpectralField:
        return SpectralField(self.lattice, self.evaluate_many(np.array([float(t)]))[0])

    def evaluate_many(self, ts: np.ndarray) -> np.ndarray:
        """Coefficient array of shape (len(ts), M, 3): the rows summed term by
        term on the representative modes, the conjugate half mirrored.

        Each term adds into its mode's contiguous (len(ts), 3) block of an
        (M, len(ts), 3) buffer, mirrored as M rows of 3 len(ts) values; the
        result is that buffer's transposed view.
        """
        ts = np.asarray(ts, dtype=float)
        out_t = np.zeros((self.lattice.n_modes, len(ts), 3), dtype=complex)
        series: Dict[Tuple[int, int], np.ndarray] = {}  # one per distinct (m, w)
        for i, m, wid, w, c in zip(self.mode.tolist(), self.deg.tolist(), self.fid.tolist(),
                                   _freq_table(self.lattice).values(self.fid).tolist(), self.coef):
            s = series.get((m, wid))
            if s is None:
                s = series[(m, wid)] = (ts**m * np.exp(1j * w * ts))[:, None]
            out_t[i] += s * c[None, :]
        _mirror(_lattice_frame(self.lattice).mirror, out_t.reshape(len(out_t), 3 * len(ts)))
        return out_t.transpose(1, 0, 2)

    def __repr__(self):
        return f"SPoly(terms={self.n_terms()}, deg={self.degree()}, max={self.max_abs():.3g})"


def _partners(lat: Lattice, mode, fid, coef) -> Tuple[np.ndarray, ...]:
    """Mode, frequency and coefficient columns of each term's conjugate
    partner (-k, m, -w, conj c); the degree is the term's own."""
    table = _freq_table(lat)
    neg = np.array([table.neg(w) for w in fid.tolist()], dtype=np.intp)
    return lat.conj_idx[mode], neg, np.conj(coef)


def _representative(lat: Lattice, mode, deg, fid, coef) -> Tuple[np.ndarray, ...]:
    """Term columns given on either half, moved onto representative modes.

    A row on a non-representative mode stands for its partner
    (-k, m, -w, conj c).  A key may come once from each half when the two
    agree exactly; given twice on one half, or by a partner that differs, it
    raises ValueError.  Keys keep the order and the value of their first
    appearance.  The one reader of term keys, for SPoly and spoly_from_doc.
    """
    flip = ~lat.rep_mask[mode]
    mode, fid, coef = mode.copy(), fid.copy(), coef.copy()
    mode[flip], fid[flip], coef[flip] = _partners(lat, mode[flip], fid[flip], coef[flip])
    _, first, inv, count = np.unique(_codes(mode, deg, fid), return_index=True,
                                     return_inverse=True, return_counts=True)
    if len(first) < len(mode):
        again = np.flatnonzero(first[inv] != np.arange(len(mode)))
        head = first[inv[again]]
        if (count.max() > 2 or np.any(flip[again] == flip[head])
                or np.any(coef[again] != coef[head])):
            raise ValueError("a term key (k, m, frequency) is given twice, directly or "
                             "through a conjugate partner that differs")
        keep = np.sort(first)
        mode, deg, fid, coef = mode[keep], deg[keep], fid[keep], coef[keep]
    return mode, deg, fid, coef


def _spread(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row index and position 0..count-1 of each of sum(counts) emitted items."""
    rep = np.repeat(np.arange(len(counts)), counts)
    return rep, np.arange(len(rep)) - (np.cumsum(counts) - counts)[rep]


def _collect(lat: Lattice, mode, deg, fid, vals, scale=None) -> SPoly:
    """Contributions summed per key as `out[key] = out.get(key, 0.0) + val` does
    in contribution order: keys in order of first contribution.

    With `scale`, each contribution's round-off scale, a key whose sum has no
    component above ROUNDOFF times its summed scale is dropped (the module
    docstring)."""
    uniq, first, inv = np.unique(_codes(mode, deg, fid), return_index=True,
                                 return_inverse=True)
    order = np.argsort(first)
    row = np.empty(len(uniq), dtype=np.intp)
    row[order] = np.arange(len(uniq))
    acc = np.zeros((len(uniq), 3), dtype=complex)
    np.add.at(acc, row[inv], vals)
    if scale is not None:
        bound = np.bincount(row[inv], weights=scale, minlength=len(uniq))
        acc[np.abs(acc).max(axis=1) <= ROUNDOFF * bound] = 0
    keep = first[order]
    return SPoly._columns(lat, mode[keep], deg[keep], fid[keep], acc)


# ---------------------------------------------------------------------------
# wave-group action and the rotated bilinear form on polynomials


def apply_expS_spoly(f: SPoly, omega: float) -> SPoly:
    """exp(Omega t S) f, expanded into shifted frequencies.

    Per mode, the plane rotation by Omega*k3til*t splits each term into the
    two circular components (c -/+ i J_k c)/2 at frequencies w +/- g_k, each
    summed per key with round-off scale |c|_1 (the module docstring).  Modes
    with k3 = 0 are untouched.
    """
    if omega == 0.0:
        return f
    lat, c, table = f.lattice, f.coef, _freq_table(f.lattice)
    rot = table.rot_class[f.mode]
    spin = rot > 0
    n_rot = len(table.rot_keys) + 1
    pairs, inv = np.unique(f.fid[spin] * n_rot + rot[spin], return_inverse=True)
    shifted = np.array([table.shifted(p // n_rot, p % n_rot, omega) for p in pairs.tolist()],
                       dtype=np.intp).reshape(-1, 2)[inv]
    jc = np.matmul(lat.jk[f.mode], c[:, :, None])[:, :, 0]
    plus = np.where(spin[:, None], 0.5 * (c - 1j * jc), c)
    fid = np.stack((f.fid, f.fid), axis=1)
    fid[spin] = shifted
    keep = np.stack((np.ones_like(spin), spin), axis=1).ravel()
    rep = np.repeat(np.arange(len(c)), 2)[keep]
    vals = np.stack((plus, 0.5 * (c + 1j * jc)), axis=1).reshape(-1, 3)[keep]
    return _collect(lat, f.mode[rep], f.deg[rep], fid.ravel()[keep], vals,
                    np.abs(c).sum(axis=1)[rep])


# candidate term pairs gathered at once: rows of f are joined in blocks
_PAIR_BLOCK = 1 << 16


def bilinear_spoly(f: SPoly, g: SPoly, omega: float) -> SPoly:
    """Symbolic rotated advection B_Omega(t, f(t), g(t)) on the Galerkin set.

    Each rotated factor is taken with its conjugate half appended: its rows,
    then each row's partner (-k, m, -w, conj c), in row order.  The term
    pairs are joined through `Lattice.pair_index`, only pairs whose output
    mode is representative are kept, and they are visited in the order of a
    double loop over the terms of f, then g.  Each output key sums its
    contributions in that order and keys appear in order of first
    contribution, so the result does not depend on the block size.  A key
    whose sum lies within the round-off bound of its pairs' scales (the
    module docstring) is dropped.
    """
    lat = f.lattice
    fr, gr = apply_expS_spoly(f, -omega), apply_expS_spoly(g, -omega)
    if fr.is_zero or gr.is_zero:
        return SPoly.zero(lat)
    (m1, d1, w1, c1), (m2, d2, w2, c2) = _both_halves(fr), _both_halves(gr)
    ftab = _freq_table(lat)
    rep_out = np.append(lat.rep_mask, False)  # pair_index's -1 (off the lattice) reads False
    hits = []  # (row of f, row of g, output mode, value, scale) per block
    size2 = np.abs(c2).sum(axis=1)
    rows = max(1, _PAIR_BLOCK // len(m2))
    for start in range(0, len(m1), rows):
        block = lat.pair_index(m1[start:start + rows, None], m2[None, :])
        a, b = np.nonzero(rep_out[block])  # row-major: the double loop's order
        o = block[a, b]
        a += start
        # matmul gives np.dot's BLAS result bit for bit; einsum can differ in the last bit
        dot = 1j * np.matmul(c1[a, None, :], lat.kcheck[o, :, None])[:, 0, 0]
        live = dot != 0
        a, b, o, dot = a[live], b[live], o[live], dot[live]
        # the pair's round-off scale: the dot's bound times |c2|_1
        size1 = np.matmul(np.abs(c1[a, None, :]), np.abs(lat.kcheck[o, :, None]))[:, 0, 0]
        hits.append((a, b, o, dot[:, None] * np.matmul(lat.proj[o], c2[b, :, None])[:, :, 0],
                     size1 * size2[b]))
    a, b, o, val, scale = (np.concatenate(col) for col in zip(*hits))
    n_w = len(ftab.freqs)
    wpair, winv = np.unique(w1[a] * n_w + w2[b], return_inverse=True)
    wout = np.array([ftab.add(p // n_w, p % n_w) for p in wpair.tolist()],
                    dtype=np.intp)[winv]
    return apply_expS_spoly(_collect(lat, o, d1[a] + d2[b], wout, val, scale), omega)


def _sum_spoly(polys: List[SPoly]) -> SPoly:
    """The sum of a non-empty list, as repeated `+` forms it (keys in order
    of first appearance, summed in list order), except that a key whose sum
    has no component above ROUNDOFF times its summands' |c|_1 is dropped."""
    mode, deg, fid, coef = (np.concatenate(col) for col in
                            zip(*((p.mode, p.deg, p.fid, p.coef) for p in polys)))
    return _collect(polys[0].lattice, mode, deg, fid, coef, np.abs(coef).sum(axis=1))


def _both_halves(f: SPoly) -> Tuple[np.ndarray, ...]:
    """Mode, degree, frequency and coefficient columns of f's rows followed by
    their conjugate partners, each half in row order."""
    mode, fid, coef = _partners(f.lattice, f.mode, f.fid, f.coef)
    return (np.concatenate((f.mode, mode)), np.concatenate((f.deg, f.deg)),
            np.concatenate((f.fid, fid)), np.concatenate((f.coef, coef)))


# ---------------------------------------------------------------------------
# the three-branch mode ODE  q' + beta q = p


def ode_solve(beta, p: SPoly) -> SPoly:
    """Unique decaying/bounded polynomial solution of q' + beta*q = p.

    beta > 0 and beta < 0 give the unique polynomial solution (growing or
    decaying homogeneous parts excluded); beta = 0 integrates from 0 and
    pins q(0) = 0 on every mode.  The resonance test beta == 0 is exact when
    beta is a Fraction/int.  A pure-power term with beta = 0 raises the
    degree (monomial rule); any other numerically vanishing gamma = beta + i w
    is rejected.
    """
    lat, deg, c = p.lattice, p.deg, p.coef
    bf = float(beta)
    still = (p.fid == 0) & (beta == 0)
    gamma = bf + 1j * _freq_table(lat).values(p.fid)
    bad = np.flatnonzero(~still & (np.abs(gamma) < 1e-9 * max(1.0, abs(bf))))
    if len(bad):
        k, m, w = list(p.terms)[bad[0]]
        raise OdeResonanceError(
            f"gamma = beta + i*omega = {complex(gamma[bad[0]])} is numerically degenerate "
            f"for term (k={k}, m={m}, w={w!r}) but not an exact resonance")
    # a still resonant term gives c/(m+1) at degree m+1; any other gives
    # a_m = c/gamma, then a_n = -(n+1) a_{n+1}/gamma at degrees m-1, ..., 0
    rep, step = _spread(np.where(still, 1, deg + 1))
    start = np.flatnonzero(step == 0)
    vals = np.empty((len(rep), 3), dtype=complex)
    vals[start[still]] = c[still] / (deg[still] + 1)[:, None]
    r, g = np.flatnonzero(~still), gamma[~still][:, None]
    a = vals[start[r]] = c[r] / g
    for j in range(1, p.degree() + 1):
        sel = deg[r] >= j
        r, g, a = r[sel], g[sel], a[sel]
        a = vals[start[r] + j] = (-(deg[r] - j + 1))[:, None] * a / g
    q = _collect(lat, p.mode[rep], np.where(still[rep], deg[rep] + 1, deg[rep] - step),
                 p.fid[rep], vals)
    if beta == 0:
        # pin q(0) = 0 with the constant 0 - q(0) per mode; -q(0) would turn
        # each +0 component into -0
        zero = np.zeros((lat.n_modes, 3), dtype=complex)
        q = q + SPoly.from_field(SpectralField(lat, zero - q.evaluate(0.0).coeffs))
    return q


def antiderivative(p: SPoly) -> SPoly:
    """The antiderivative F with F(0) = 0 (closed form, exact)."""
    return ode_solve(0, p)


# ---------------------------------------------------------------------------
# JSON interchange


def _freq_doc(f: Frequency) -> dict:
    combo = [{"kind": "rot", "s": key[1], "coef": str(coef), "unit": unit}
             for key, coef, unit in f.parts]
    return {"combo": combo, "value": f.value}


def _freq_from_doc(doc: dict) -> Frequency:
    """Inverse of _freq_doc.  Each generator's "s" is a positive integer, its
    "coef" a string that Fraction parses and its "unit" a finite number, bools
    refused; anything else raises ValueError."""
    parts = []
    for c in doc["combo"]:
        if c["kind"] != "rot":
            raise ValueError(f"unknown frequency generator kind {c['kind']!r}")
        s, coef, unit = c["s"], c["coef"], c["unit"]
        try:
            ok = (type(s) is int and s > 0 and type(coef) is str
                  and type(unit) in (int, float) and math.isfinite(unit))
            coef = Fraction(coef) if ok else None
        except (ValueError, ZeroDivisionError, OverflowError):
            ok = False
        if not ok:
            raise ValueError(f"frequency generator {c!r} needs a positive integer s, "
                             "a fraction string coef and a finite number unit")
        parts.append((("rot", s), coef, float(unit)))
    return Frequency(parts)


def spoly_to_doc(f: SPoly) -> dict:
    """JSON-ready document of f: lattice periods and cutoff, the frequencies
    in use once each in their exact order ("freqs"), and one column per term
    field, "k", "m", "w" (the row of the term's frequency in "freqs"), "re"
    and "im", with terms sorted by key (k, then m, then the frequency)."""
    freqs = _freq_table(f.lattice).freqs
    used = sorted(np.unique(f.fid).tolist(), key=freqs.__getitem__)
    rank = np.zeros(len(freqs), dtype=np.intp)
    rank[used] = np.arange(len(used))
    ks = f.lattice.ks[f.mode]
    order = np.lexsort((rank[f.fid], f.deg, ks[:, 2], ks[:, 1], ks[:, 0]))
    c = f.coef[order]
    return {"L": [float(x) for x in f.lattice.L], "cutoff": str(f.lattice.cutoff),
            "freqs": [_freq_doc(freqs[w]) for w in used],
            "k": ks[order].tolist(), "m": f.deg[order].tolist(),
            "w": rank[f.fid[order]].tolist(), "re": c.real.tolist(), "im": c.imag.tolist()}


def _index_column(col: list, n: int, what: str) -> np.ndarray:
    """A document column of integers 0 <= x < n (no bools) as an index array."""
    if not all(type(x) is int and 0 <= x < n for x in col):
        bad = next(x for x in col if not (type(x) is int and 0 <= x < n))
        raise ValueError(f"term {what} {bad!r} is not an integer in [0, {n})")
    return np.array(col, dtype=np.intp)


def spoly_from_doc(doc: dict, lattice: Lattice) -> SPoly:
    """Inverse of spoly_to_doc on a given lattice, bit for bit.

    Keys are read as the SPoly constructor reads them (_representative).  A
    malformed document raises ValueError: an "L" or "cutoff" other than the
    lattice's, a missing column, columns of unequal lengths, a wave vector or
    coefficient that fields._rows refuses, a degree m that is not an integer
    in [0, 2^12), a w that is not a row of "freqs", a frequency generator
    that _freq_from_doc refuses, or a term key given twice.
    """
    table = _freq_table(lattice)
    try:
        L, cutoff = doc["L"], doc["cutoff"]
        if L != [float(x) for x in lattice.L] or cutoff != str(lattice.cutoff):
            raise ValueError(f"the document's lattice (L {L!r}, cutoff {cutoff!r}) is not "
                             f"{lattice!r}")
        ids = np.array([table.intern(_freq_from_doc(d)) for d in doc["freqs"]], dtype=np.intp)
        cols = [doc[key] for key in ("k", "m", "w", "re", "im")]
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed S-polynomial document ({type(e).__name__}: {e})") from None
    if not all(isinstance(col, list) for col in cols) or len(set(map(len, cols))) > 1:
        raise ValueError("the term columns k, m, w, re and im are not lists of one length")
    k, m, w, re, im = cols
    mode = _modes_of(lattice, _rows(k, "wave vector"))
    deg = _index_column(m, 1 << 12, "degree m")
    fid = ids[_index_column(w, len(ids), "frequency row w")]
    coef = np.empty((len(mode), 3), dtype=complex)
    coef.real, coef.imag = _rows(re, "coefficient"), _rows(im, "coefficient")
    return SPoly._columns(lattice, *_representative(lattice, mode, deg, fid, coef))
