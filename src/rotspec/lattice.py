"""Wave-vector lattice, Stokes spectrum and its additive semigroup.

All eigenvalue arithmetic is exact: periods are rational multiples of 2*pi,
so every eigenvalue |k_check|^2 = sum_j q_j k_j^2 is a `fractions.Fraction`
and membership / resonance questions are decided without float comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "Lattice",
    "LatticeError",
    "SemigroupTable",
    "build_lattice",
    "stokes_spectrum",
    "semigroup_table",
    "squarefree_decompose",
    "spectrum_to_doc",
]


class LatticeError(ValueError):
    """Raised when lattice parameters are rejected (non-rational, wrong normalization)."""


def squarefree_decompose(n: int) -> Tuple[int, int]:
    """Write a positive integer as a^2 * s with s squarefree.

    Returns
    -------
    (a, s) : pair of ints with n == a*a*s and s squarefree.
    """
    if n <= 0:
        raise ValueError("need a positive integer")
    a, s = 1, 1
    d = 2
    m = n
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            a *= d ** (e // 2)
            if e % 2:
                s *= d
        d += 1
    s *= m  # leftover prime
    return a, s


def _cross_matrix(u: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -u[2], u[1]],
            [u[2], 0.0, -u[0]],
            [-u[1], u[0], 0.0],
        ]
    )


class Lattice:
    """Galerkin wave-vector set for a periodic box with rational anisotropy.

    Periods are L_j = 2*pi*ell_j with ell_j rational, max ell_j = 1 (so the
    smallest Stokes eigenvalue is exactly 1).  Retains every k != 0 with
    lam(k) = sum_j q_j k_j^2 <= cutoff where q_j = 1/ell_j^2.

    Attributes
    ----------
    ks : (M,3) int array of retained wave vectors, sorted by (lam, k).
    lam : list of Fraction, exact eigenvalue per mode.
    lam_f, kcheck, ktil, kt3, proj, jk : float views used by numeric kernels.
    conj_idx : (M,) int, index of -k for each k.
    rep_mask : (M,) bool, True on the lexicographically positive member of
        each +/-k pair (the one serialized to JSON).
    eigenvalues : sorted list of distinct Fractions present on the lattice.
    freq_sqfree, freq_coef : per-mode canonical form of the elementary
        oscillation frequency k3til = (coef) * sqrt(sqfree), exact; coef is 0
        for modes with k3 = 0.
    """

    def __init__(self, ell: Sequence[Fraction | int | str], cutoff: Fraction | int | str):
        ell = tuple(Fraction(e) for e in ell)
        if len(ell) != 3:
            raise LatticeError("need three periods")
        if any(e <= 0 for e in ell):
            raise LatticeError("periods must be positive")
        if max(ell) != 1:
            raise LatticeError(
                "normalization requires max period = 2*pi (max ell_j = 1); "
                f"got ell = {tuple(str(e) for e in ell)}"
            )
        cutoff = Fraction(cutoff)
        if cutoff < 1:
            raise LatticeError("cutoff below the smallest eigenvalue retains nothing")

        self.ell = ell
        self.q = tuple(1 / (e * e) for e in ell)  # exact rationals >= 1
        self.cutoff = cutoff
        self.L = tuple(float(e) * TWO_PI for e in ell)
        self.volume = float(ell[0] * ell[1] * ell[2]) * TWO_PI**3

        ks: List[Tuple[int, int, int]] = []
        lams: List[Fraction] = []
        bounds = [int(math.isqrt(int(cutoff / q))) if cutoff / q >= 1 else 0 for q in self.q]
        for k1 in range(-bounds[0], bounds[0] + 1):
            for k2 in range(-bounds[1], bounds[1] + 1):
                for k3 in range(-bounds[2], bounds[2] + 1):
                    if k1 == 0 and k2 == 0 and k3 == 0:
                        continue
                    lam = self.q[0] * k1 * k1 + self.q[1] * k2 * k2 + self.q[2] * k3 * k3
                    if lam <= cutoff:
                        ks.append((k1, k2, k3))
                        lams.append(lam)
        order = sorted(range(len(ks)), key=lambda i: (lams[i], ks[i]))
        self.ks = np.array([ks[i] for i in order], dtype=int)
        self.lam = [lams[i] for i in order]
        self.n_modes = len(self.lam)

        sq = np.array([math.sqrt(float(q)) for q in self.q])
        self.kcheck = self.ks * sq[None, :]
        self.lam_f = np.array([float(l) for l in self.lam])
        norms = np.sqrt(self.lam_f)
        self.ktil = self.kcheck / norms[:, None]
        self.kt3 = self.ktil[:, 2].copy()
        eye = np.eye(3)
        self.proj = eye[None, :, :] - self.ktil[:, :, None] * self.ktil[:, None, :]
        self.jk = np.array([_cross_matrix(u) for u in self.ktil])

        self.mode_index: Dict[Tuple[int, int, int], int] = {
            tuple(k): i for i, k in enumerate(self.ks)
        }
        # One integer code per wave vector of the box |k_j| <= span, which
        # holds every pairwise sum of modes; codes add like the vectors, so
        # code(k_a + k_b) = code(k_a) + code(k_b) - code(0).
        self._span = 2 * int(np.abs(self.ks).max())
        self._base = 2 * self._span + 1
        self._code = self._encode(self.ks)
        self._code0 = int(self._encode(np.zeros(3, dtype=int)))
        self._mode_of_code = np.full(self._base ** 3, -1, dtype=int)
        self._mode_of_code[self._code] = np.arange(self.n_modes)
        self.conj_idx = self.index_of(-self.ks)
        self.rep_mask = np.array([self._is_rep(tuple(k)) for k in self.ks])

        self.eigenvalues: List[Fraction] = sorted(set(self.lam))
        self._shell_pos = {l: i for i, l in enumerate(self.eigenvalues)}
        self.shell_of = np.array([self._shell_pos[l] for l in self.lam], dtype=int)
        self.multiplicity = [self.lam.count(l) for l in self.eigenvalues]

        # canonical radical form of k3til = kcheck3/|kcheck| = coef*sqrt(sqfree)
        self.freq_sqfree: List[int] = []
        self.freq_coef: List[Fraction] = []
        for i in range(self.n_modes):
            k3 = int(self.ks[i, 2])
            if k3 == 0:
                self.freq_sqfree.append(1)
                self.freq_coef.append(Fraction(0))
                continue
            ratio = (self.q[2] * k3 * k3) / self.lam[i]  # k3til^2, exact in (0,1]
            p, qd = ratio.numerator, ratio.denominator
            a, s = squarefree_decompose(p * qd)
            coef = Fraction(a, qd) * (1 if k3 > 0 else -1)
            self.freq_sqfree.append(s)
            self.freq_coef.append(coef)

    @staticmethod
    def _is_rep(k: Tuple[int, int, int]) -> bool:
        for c in k:
            if c > 0:
                return True
            if c < 0:
                return False
        return False

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

    def contains(self, k: Sequence[int]) -> bool:
        return tuple(int(c) for c in k) in self.mode_index

    def __repr__(self):
        return (
            f"Lattice(ell={tuple(str(e) for e in self.ell)}, cutoff={self.cutoff}, "
            f"modes={self.n_modes}, shells={len(self.eigenvalues)})"
        )


def build_lattice(cutoff: Fraction | int | str = 6,
                  ell: Sequence[Fraction | int | str] | None = None) -> Lattice:
    """Build a lattice from exact period ratios L/(2*pi) (default: the 2*pi cube)."""
    return Lattice((1, 1, 1) if ell is None else ell, cutoff)


def stokes_spectrum(lattice: Lattice) -> List[Tuple[Fraction, int]]:
    """Distinct eigenvalues with multiplicities, ascending."""
    return list(zip(lattice.eigenvalues, lattice.multiplicity))


class SemigroupTable:
    """Additive closure of the Stokes spectrum up to a cap.

    mu : sorted list of Fraction, the decay rates mu_1 < mu_2 < ...
    decompositions : per element, list of ordered index pairs (i, j) with
        mu[i] + mu[j] == mu[n]; empty for elements with no two-term splitting.
    """

    def __init__(self, eigenvalues: Sequence[Fraction], cap: Fraction | int | str):
        cap = Fraction(cap)
        base = sorted({Fraction(e) for e in eigenvalues if Fraction(e) <= cap})
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
            for l, m in stokes_spectrum(lattice)
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
