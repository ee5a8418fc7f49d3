"""Wave-vector lattice, Stokes spectrum and its additive semigroup.

All eigenvalue arithmetic is exact: periods are rational multiples of 2*pi,
so every eigenvalue |k_check|^2 = sum_j q_j k_j^2 is a `fractions.Fraction`
and membership / resonance questions are decided without float comparison.

Every eigenvalue is an integer numerator over one common denominator D (the
lcm of the denominators of q_j = 1/ell_j^2), so `Lattice` builds the
spectrum as one integer array over the box |k_j| <= floor(sqrt(cutoff/q_j))
and reads the mode order (by lam, then lexicographic k), the shells,
multiplicities, exact and float eigenvalues, representatives and the
rotation generators off it.  Each wave vector of the box
|k_j| <= 2 max_j floor(sqrt(cutoff/q_j)), which holds every sum of two
modes, has one integer code, and codes add like the vectors;
`Lattice.index_of` and `Lattice.pair_index` answer every lookup through
them.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "Lattice",
    "LatticeError",
    "SemigroupTable",
    "build_lattice",
    "semigroup_table",
    "spectrum_to_doc",
]


class LatticeError(ValueError):
    """Raised when lattice parameters are rejected (non-rational, wrong normalization).

    The message prints a number of more than 30 digits (an exact cutoff,
    cap or period, or a count formed from one) as its leading digits and
    its length, so that one huge parameter gives a short line."""

    def __init__(self, message: str):
        super().__init__(re.sub(r"\d{31,}", lambda m: f"{m[0][:6]}... ({len(m[0])} digits)",
                                message))


# trial division stops below this bound; see _squarefree_decompose
_TRIAL_BOUND = 1 << 16
# a semigroup closure stops past this many elements: its decomposition pass is
# quadratic in them (the cube's cutoff 4095 at its default cap has 4095)
_SEMIGROUP_BOUND = 1 << 12


def _rational(name: str, value) -> Fraction:
    """A lattice parameter (ell, cutoff, cap) as an exact Fraction.  What
    Fraction cannot read exactly (text that is no rational, nan, inf, a zero
    denominator) raises LatticeError naming the parameter."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise LatticeError(f"{name} must be a rational number, not {value!r}") from None


def _squarefree_decompose(n: int) -> Tuple[int, int]:
    """Write a positive integer as a^2 * s with s squarefree.

    Trial division runs over d < B = 2^16 only, so a number near 10^36
    costs milliseconds.  The cofactor m left has no prime factor below B:
    m < B^2 is 1 or a prime, a perfect square is a square, and otherwise
    m < B^3 is the product of two distinct primes.  Any other m raises
    LatticeError.

    Returns
    -------
    (a, s) : pair of ints with n == a*a*s and s squarefree.
    """
    if n <= 0:
        raise ValueError("need a positive integer")
    a, s = 1, 1
    d = 2
    m = n
    while d < _TRIAL_BOUND and d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            a *= d ** (e // 2)
            if e % 2:
                s *= d
        d += 1
    r = math.isqrt(m)
    if r * r == m:
        return a * r, s
    if m >= _TRIAL_BOUND ** 3:
        raise LatticeError(f"{n} leaves a factor {m} >= {_TRIAL_BOUND}^3 with no prime "
                           f"below {_TRIAL_BOUND}, whose square-free part is unknown")
    return a, s * m  # 1, a prime, or two distinct primes


class Lattice:
    """Galerkin wave-vector set for a periodic box with rational anisotropy.

    Periods are L_j = 2*pi*ell_j with ell_j rational, max ell_j = 1 (so the
    smallest Stokes eigenvalue is exactly 1).  Retains every k != 0 with
    lam(k) = sum_j q_j k_j^2 <= cutoff where q_j = 1/ell_j^2.

    Attributes
    ----------
    ks : (M,3) int array of retained wave vectors, sorted by (lam, k).
    shell_of : (M,) int, each mode's position in eigenvalues.
    lam_f, kcheck, ktil, kt3, proj, jk : float views used by numeric kernels.
    conj_idx : (M,) int, index of -k for each k.
    rep_mask : (M,) bool, True on the lexicographically positive member of
        each +/-k pair (the one serialized to JSON).
    eigenvalues : sorted list of distinct Fractions present on the lattice.
    freq_sqfree, freq_coef : per-mode canonical form of the elementary
        oscillation frequency k3til = (coef) * sqrt(sqfree), exact; coef is 0
        for modes with k3 = 0.  k3til = k3 sqrt(q3/lam), so the radical form
        is taken once per shell.
    """

    def __init__(self, ell: Sequence[Fraction | int | str], cutoff: Fraction | int | str):
        ell = tuple(_rational("ell", e) for e in ell)
        if len(ell) != 3:
            raise LatticeError(f"ell needs three periods, got {len(ell)}")
        if any(e <= 0 for e in ell):
            raise LatticeError("periods must be positive")
        if max(ell) != 1:
            raise LatticeError(
                "normalization requires max period = 2*pi (max ell_j = 1); "
                f"got ell = {tuple(str(e) for e in ell)}"
            )
        if min(ell) ** -2 > sys.float_info.max:
            raise LatticeError("ell has a period whose q = 1/ell^2 is too large for a float")
        cutoff = _rational("cutoff", cutoff)
        if cutoff < 1:
            raise LatticeError("cutoff below the smallest eigenvalue retains nothing")

        self.ell = ell
        self.q = tuple(1 / (e * e) for e in ell)  # exact rationals >= 1
        self.cutoff = cutoff
        self.L = tuple(float(e) * TWO_PI for e in ell)
        self.volume = float(ell[0] * ell[1] * ell[2]) * TWO_PI**3

        bounds = [math.isqrt(int(cutoff / q)) for q in self.q]
        # One integer code per k in the box |k_j| <= span = 2 max b_j (b_j e_j is a
        # mode), which holds all pairwise sums: code(k_a + k_b) = code(k_a) + code(k_b) - code(0).
        self._span = 2 * max(bounds)
        self._base = 2 * self._span + 1
        if self._base ** 3 > 2**24:  # 128 MiB of int64 codes; cube cutoffs up to 4095 pass
            raise LatticeError(f"cutoff {cutoff} needs {self._base ** 3} wave-vector codes, "
                               "more than the 2**24 allowed")

        # lam(k) = num(k)/D exactly, D = lcm of the q_j's denominators (Python ints past int64)
        D = math.lcm(*(q.denominator for q in self.q))
        axes = [[int(q * D) * k * k for k in range(-b, b + 1)] for q, b in zip(self.q, bounds)]
        top = sum(a[0] for a in axes)
        n1, n2, n3 = (np.array(a, dtype=np.int64 if top < 2**63 else object) for a in axes)
        num = n1[:, None, None] + n2[None, :, None] + n3[None, None, :]
        inside = np.nonzero((num > 0) & (num <= min(top, cutoff.numerator * D // cutoff.denominator)))
        # nonzero lists k lexicographically, and a stable sort keeps that order within a shell
        order = np.argsort(num[inside], kind="stable")
        self.ks = np.stack(inside, axis=1)[order] - bounds
        shells, self.shell_of, counts = np.unique(num[inside][order], return_inverse=True,
                                                  return_counts=True)
        self.eigenvalues: List[Fraction] = [Fraction(int(n), D) for n in shells]
        self.multiplicity = counts.tolist()
        self._shell_pos = {l: i for i, l in enumerate(self.eigenvalues)}
        self.n_modes = len(self.ks)

        sq = np.array([math.sqrt(float(q)) for q in self.q])
        self.kcheck = self.ks * sq[None, :]
        self.lam_f = np.array([float(l) for l in self.eigenvalues])[self.shell_of]
        norms = np.sqrt(self.lam_f)
        self.ktil = self.kcheck / norms[:, None]
        self.kt3 = self.ktil[:, 2].copy()
        self.proj = np.eye(3)[None, :, :] - self.ktil[:, :, None] * self.ktil[:, None, :]
        x, y, z = self.ktil.T
        o = np.zeros_like(x)
        self.jk = np.stack([o, -z, y, z, o, -x, -y, x, o], axis=1).reshape(-1, 3, 3)

        self._code = self._encode(self.ks)
        self._code0 = int(self._encode(np.zeros(3, dtype=int)))
        self._mode_of_code = np.full(self._base ** 3, -1, dtype=int)
        self._mode_of_code[self._code] = np.arange(self.n_modes)
        self.conj_idx = self.index_of(-self.ks)
        self.rep_mask = self.ks[np.arange(self.n_modes), np.argmax(self.ks != 0, axis=1)] > 0

        # canonical radical form of k3til = k3 sqrt(r), r = q3/lam = a sqrt(s)/den
        # on each shell that holds a mode with k3 != 0
        unit, sqfree = {}, {}
        for sh in np.unique(self.shell_of[self.ks[:, 2] != 0]).tolist():
            r = self.q[2] / self.eigenvalues[sh]
            try:
                a, s = _squarefree_decompose(r.numerator * r.denominator)
            except LatticeError as err:
                raise LatticeError(f"the periods {tuple(str(e) for e in ell)} cannot be put "
                                   f"in radical form: {err}") from None
            unit[sh], sqfree[sh] = Fraction(a, r.denominator), s
        modes = list(zip(self.shell_of.tolist(), self.ks[:, 2].tolist()))
        self.freq_sqfree = [sqfree[sh] if k3 else 1 for sh, k3 in modes]
        self.freq_coef = [k3 * unit[sh] if k3 else Fraction(0) for sh, k3 in modes]

    def _encode(self, ks: np.ndarray) -> np.ndarray:
        k = ks + self._span
        return (k[..., 0] * self._base + k[..., 1]) * self._base + k[..., 2]

    def index_of(self, ks: np.ndarray) -> np.ndarray:
        """Mode index of each row of an (..., 3) integer array, -1 where the
        wave vector is not on the lattice."""
        ks = np.asarray(ks)
        # two comparisons, not abs: abs of the int64 minimum is negative
        inside = ((ks >= -self._span) & (ks <= self._span)).all(axis=-1)
        idx = self._mode_of_code[self._encode(np.where(inside[..., None], ks, 0))]
        return np.where(inside, idx, -1)

    def pair_index(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Mode index of k_a + k_b for mode indices a and b that broadcast
        against each other, -1 where the sum is not on the lattice."""
        return self._mode_of_code[self._code[a] + self._code[b] - self._code0]

    def shell(self, lam: Fraction) -> int:
        """Position of lam in `eigenvalues` (the `shell_of` value of its
        modes), or -1 when lam is not an eigenvalue of the lattice."""
        return self._shell_pos.get(Fraction(lam), -1)

    def shell_indices(self, lam: Fraction) -> np.ndarray:
        """Indices of all modes with the given exact eigenvalue."""
        return np.flatnonzero(self.shell_of == self.shell(lam))

    def __repr__(self):
        return (
            f"Lattice(ell={tuple(str(e) for e in self.ell)}, cutoff={self.cutoff}, "
            f"modes={self.n_modes}, shells={len(self.eigenvalues)})"
        )


def build_lattice(cutoff: Fraction | int | str = 6,
                  ell: Sequence[Fraction | int | str] | None = None) -> Lattice:
    """Build a lattice from exact period ratios L/(2*pi) (default: the 2*pi cube)."""
    return Lattice((1, 1, 1) if ell is None else ell, cutoff)


class SemigroupTable:
    """Additive closure of the Stokes spectrum up to a cap.

    mu : sorted list of Fraction, the decay rates mu_1 < mu_2 < ...
    decompositions : per element, list of ordered index pairs (i, j) with
        mu[i] + mu[j] == mu[n]; empty for elements with no two-term splitting.
    """

    def __init__(self, eigenvalues: Sequence[Fraction], cap: Fraction | int | str):
        cap = _rational("cap", cap)
        eigenvalues = [_rational("eigenvalue", e) for e in eigenvalues]
        base = sorted({e for e in eigenvalues if e <= cap})
        if not base:
            raise LatticeError("no eigenvalues at or below the cap")
        elems = set(base)
        frontier = set(base)
        while frontier:
            fresh = set()
            for x in frontier:
                for y in base:
                    z = x + y
                    if z <= cap and z not in elems:
                        fresh.add(z)
            elems |= fresh
            frontier = fresh
            if len(elems) > _SEMIGROUP_BOUND:
                raise LatticeError(f"the semigroup below cap {cap} has more than "
                                   f"{_SEMIGROUP_BOUND} elements")
        # Closed under sums of elements too: every element is a sum of
        # eigenvalues whose partial sums all stay <= cap, so x + y is reached
        # from x by adding the eigenvalues of y one at a time.
        self.cap = cap
        self.eigenvalues = base
        self.mu: List[Fraction] = sorted(elems)
        self.index = {m: n for n, m in enumerate(self.mu)}
        self.decompositions: List[List[Tuple[int, int]]] = [
            [(i, self.index[m - a]) for i, a in enumerate(self.mu) if m - a in self.index]
            for m in self.mu
        ]

    def __len__(self):
        return len(self.mu)

    def __repr__(self):
        return f"SemigroupTable(cap={self.cap}, n={len(self.mu)}, mu1={self.mu[0]})"


def semigroup_table(lattice: Lattice, cap: Fraction | int | str | None = None) -> SemigroupTable:
    """Semigroup generated by the lattice spectrum, capped (default: lattice cutoff)."""
    if cap is None:
        cap = lattice.cutoff
    return SemigroupTable(lattice.eigenvalues, cap)


def _frac_json(x: Fraction) -> Dict[str, int]:
    return {"num": x.numerator, "den": x.denominator}


def spectrum_to_doc(lattice: Lattice, table: Optional[SemigroupTable] = None) -> dict:
    """JSON-ready document of the eigenvalues (+ optional semigroup with decompositions)."""
    doc: Dict = {
        "ell": [str(e) for e in lattice.ell],
        "cutoff": str(lattice.cutoff),
        "eigenvalues": [
            {**_frac_json(l), "multiplicity": m}
            for l, m in zip(lattice.eigenvalues, lattice.multiplicity)
        ],
    }
    if table is not None:
        doc["semigroup"] = [
            {
                "mu": _frac_json(m),
                "decompositions": [[i + 1, j + 1] for i, j in table.decompositions[n]],
            }
            for n, m in enumerate(table.mu)
        ]
    return doc
