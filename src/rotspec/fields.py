"""Divergence-free spectral velocity fields and the operators acting on them.

A field is a dense (M,3) complex coefficient array aligned with the lattice
mode order, plus a real 3-vector spatial mean.  Every coefficient lives in
the plane orthogonal to its dual wave vector; the conjugate-mode pairing
u_hat(-k) = conj(u_hat(k)) keeps the velocity real.  Norms follow the
Parseval convention |u|^2 = L1*L2*L3 * sum_k |u_hat(k)|^2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .lattice import Lattice

__all__ = [
    "SpectralField",
    "random_gevrey",
    "inner",
    "apply_S",
    "apply_expS",
    "advect",
    "bilinear_B",
    "eigen_restrict",
    "field_to_doc",
    "field_from_doc",
]


class SpectralField:
    """Velocity field in spectral form on a fixed lattice."""

    __slots__ = ("lattice", "coeffs", "mean")

    def __init__(self, lattice: Lattice, coeffs: Optional[np.ndarray] = None,
                 mean: Optional[Sequence[float]] = None):
        self.lattice = lattice
        if coeffs is None:
            coeffs = np.zeros((lattice.n_modes, 3), dtype=complex)
        else:
            coeffs = np.asarray(coeffs, dtype=complex)
            if coeffs.shape != (lattice.n_modes, 3):
                raise ValueError(f"coefficient array must be ({lattice.n_modes},3)")
        self.coeffs = coeffs
        self.mean = np.zeros(3) if mean is None else np.asarray(mean, dtype=float)

    @classmethod
    def from_modes(cls, lattice: Lattice, modes: Dict[Tuple[int, int, int], Sequence[complex]],
                   mean: Optional[Sequence[float]] = None) -> "SpectralField":
        """Build from a {k: coefficient} dict.

        Conjugate partners may be omitted; missing ones are filled by the
        reality condition.  If both members of a pair are supplied they must
        be consistent.
        """
        n = len(modes)
        ks = np.array(list(modes), dtype=int).reshape(n, 3)
        z = np.array(list(modes.values()), dtype=complex).reshape(n, 3)
        return cls._from_arrays(lattice, _modes_of(lattice, ks), z, mean)

    @classmethod
    def _from_arrays(cls, lattice: Lattice, idx: np.ndarray, z: np.ndarray,
                     mean: Optional[Sequence[float]]) -> "SpectralField":
        """from_modes on N mode indices and their (N,3) coefficients.

        A repeated mode takes its last coefficient.
        """
        u = cls(lattice, mean=mean)
        u.coeffs[idx] = z
        seen = np.zeros(lattice.n_modes, dtype=bool)
        seen[idx] = True
        alone = idx[~seen[lattice.conj_idx[idx]]]
        u.coeffs[lattice.conj_idx[alone]] = np.conj(u.coeffs[alone])
        err = u.reality_error()
        if err > 1e-10 * max(1.0, float(np.abs(u.coeffs).max())):
            raise ValueError(f"conjugate-mode pairing violated (error {err:.2e})")
        return u

    def copy(self) -> "SpectralField":
        return SpectralField(self.lattice, self.coeffs.copy(), self.mean.copy())

    def reality_error(self) -> float:
        return float(np.abs(self.coeffs[self.lattice.conj_idx] - np.conj(self.coeffs)).max(initial=0.0))

    def divergence_error(self) -> float:
        return float(np.abs(np.einsum("mc,mc->m", self.coeffs, self.lattice.kcheck)).max(initial=0.0))

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.lattice, self.coeffs + other.coeffs, self.mean + other.mean)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.lattice, self.coeffs - other.coeffs, self.mean - other.mean)

    def __mul__(self, a: float) -> "SpectralField":
        return SpectralField(self.lattice, self.coeffs * a, self.mean * a)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return self * (-1.0)

    def norm(self, alpha: float = 0.0, sigma: float = 0.0) -> float:
        """|A^alpha exp(sigma*A^(1/2)) u|; the mean counts only at alpha = 0."""
        return float(_gevrey_norms(self.lattice, self.coeffs, alpha, sigma, self.mean))


def _modes_of(lattice: Lattice, ks: np.ndarray) -> np.ndarray:
    """Lattice.index_of for an (N,3) integer array whose wave vectors must all
    be modes; ValueError names the first one that is not."""
    idx = lattice.index_of(ks)
    if np.any(idx < 0):
        k = tuple(int(c) for c in ks[np.argmax(idx < 0)])
        raise ValueError(f"mode {k} is outside the lattice (cutoff {lattice.cutoff})")
    return idx


def _along_k(lattice: Lattice, idx: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Per mode idx[n], whether its coefficient z = parts[0, n] + i*parts[1, n]
    leaves the plane orthogonal to its wave vector: |Re z.ktil| + |Im z.ktil|
    is above 1e-10 * max(1, max_c |z_c|)."""
    off = np.abs(np.einsum("snc,nc->sn", parts, lattice.ktil[idx])).sum(axis=0)
    return off > 1e-10 * np.maximum(1.0, np.hypot(*parts).max(axis=1))


def _gevrey_norms(lattice: Lattice, coeffs: np.ndarray, alpha: float = 0.0,
                  sigma: float = 0.0, mean: Optional[np.ndarray] = None) -> np.ndarray:
    """|A^alpha exp(sigma*A^(1/2)) u| with the volume-weighted Parseval sum.

    coeffs is one (M,3) field or an (R,M,3) stack; the result has the shape
    of the leading axes.  Each field's weighted sum is numpy's pairwise sum
    over its modes, so a stacked sample's norm equals its own norm bit for
    bit.  A spatial mean (a 3-vector) contributes only to the plain L2 norm
    (alpha = 0), where the zero mode carries unit weight.
    """
    lam = lattice.lam_f
    w = np.exp(2.0 * sigma * np.sqrt(lam))
    if alpha != 0.0:
        w = w * lam ** (2.0 * alpha)
    total = np.sum(w * np.einsum("...mc,...mc->...m", coeffs, np.conj(coeffs)).real, axis=-1)
    if alpha == 0.0 and mean is not None:
        total = total + float(np.dot(mean, mean))
    return np.sqrt(lattice.volume * total)


def inner(u: SpectralField, v: SpectralField) -> float:
    """Real L2 inner product <u, v>."""
    s = complex(np.einsum("mc,mc->", u.coeffs, np.conj(v.coeffs)))
    return u.lattice.volume * (s.real + float(np.dot(u.mean, v.mean)))


_J_VERT = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _complex_ops(lattice: Lattice) -> Tuple[np.ndarray, np.ndarray]:
    """(jk, proj) of the lattice as read-only complex (M,3,3) copies.

    A product of a real operator with a complex field casts the operator to
    complex, through a buffer, on every call; these copies hold the cast
    values, so a product with them gives the real operator's bits without
    the cast.  Each copy is every other column of an (M,3,6) buffer: with
    neither axis of a matrix at unit stride, np.matmul (_per_mode) forms
    the per-mode products in its own loop instead of one BLAS call per
    mode, in about half the time.  Cached per lattice.
    """
    ops = getattr(lattice, "_complex_ops", None)
    if ops is None:
        ops = []
        for a in (lattice.jk, lattice.proj):
            op = np.empty(a.shape[:-1] + (2 * a.shape[-1],), dtype=complex)[..., ::2]
            op[...] = a
            op.flags.writeable = False
            ops.append(op)
        ops = lattice._complex_ops = tuple(ops)
    return ops


def _per_mode(op: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """op[m] @ coeffs[..., m, :] for every mode m: (R,3,3) operators on (R,3)
    coefficients or on a (B,R,3) stack of them.

    One batched matmul: its bits are einsum("mij,...mj->...mi")'s, and a
    stack costs a fraction of einsum's time.
    """
    return np.matmul(op, coeffs[..., None])[..., 0]


def _apply_jk(lattice: Lattice, coeffs: np.ndarray, rows=slice(None)) -> np.ndarray:
    """J_k coeffs per mode of rows, with the lattice's complex J_k
    (_complex_ops): the one product of the rotation generator."""
    return _per_mode(_complex_ops(lattice)[0][rows], coeffs)


def apply_S(u: SpectralField) -> SpectralField:
    """Coriolis operator: Leray-projected vertical rotation P J P, mode-wise."""
    proj = _complex_ops(u.lattice)[1]
    c = _per_mode(proj, _per_mode(proj, u.coeffs) @ _J_VERT.T)
    return SpectralField(u.lattice, c)


def _rotate_coeffs(lattice: Lattice, coeffs: np.ndarray, c: np.ndarray, s: np.ndarray,
                   rows=slice(None)) -> np.ndarray:
    """Apply cos(theta_m) I + sin(theta_m) J_k per mode m of rows.

    coeffs is (R,3) or a (B,R,3) stack of the R = len(rows) modes rows
    selects; c = cos(theta) and s = sin(theta) are (R,) or (B,R) to match.
    Formed as c coeffs + s (J_k coeffs), in place where that keeps each
    operation's operands in that order.
    """
    rot = _apply_jk(lattice, coeffs, rows)
    np.multiply(s[..., None], rot, out=rot)
    out = c[..., None] * coeffs
    out += rot
    return out


def apply_expS(u: SpectralField, t: float) -> SpectralField:
    """Rotation-wave group exp(t*S): plane rotation by k3til*t in each mode plane."""
    theta = u.lattice.kt3 * t
    c = _rotate_coeffs(u.lattice, u.coeffs, np.cos(theta), np.sin(theta))
    return SpectralField(u.lattice, c, u.mean)


# -- bilinear form ----------------------------------------------------------

def _pairs(lattice: Lattice, lam, support):
    """The one enumeration of a plan's pairs: (rows_u, outs, pair, live).

    outs are the representative modes, only those on the Stokes shell lam
    when lam is given (none if lam is not an eigenvalue), and rows_u the
    first factor's modes: support[0] of a support (rows_u, rows_v), two
    sorted arrays of mode indices, or every mode.  pair[o, a] = j with
    k_j = k_outs[o] - k_m, m = rows_u[a], and live marks the pairs a plan
    keeps: j is a mode, in rows_v when a support is given.
    """
    M = lattice.n_modes
    keep = lattice.rep_mask
    if lam is not None:
        keep = keep & (lattice.shell_of == lattice.shell(lam))
    outs = np.flatnonzero(keep)
    rows_u = np.arange(M) if support is None else support[0]
    pair = lattice.pair_index(outs[:, None], lattice.conj_idx[rows_u][None, :])
    live = pair >= 0
    if support is not None:
        in_v = np.zeros(M, dtype=bool)
        in_v[support[1]] = True
        live &= in_v[pair]  # pair = -1 reads the last mode, on a pair live drops
    return rows_u, outs, pair, live


class _Plan:
    """The live pairs of _pairs(lattice, lam, support), row-sorted.

    Pair p multiplies U_im[p] . kc[:, p] by V_ij[p] into output row o for
    indptr[o] <= p < indptr[o + 1]; each row lists its pairs by first mode,
    in the full plan's order.  kc holds the output wave vectors as three
    contiguous rows, cast to complex and read-only: a complex factor times a
    real one is cast to complex, through a buffer, on every call, so a
    product with the cast values has the real vectors' bits without the
    cast.  blocks caches the plan's block matrices by stack size (block).
    """

    def __init__(self, lattice: Lattice, lam, support):
        rows_u, outs, pair, live = _pairs(lattice, lam, support)
        # the row-major non-zeros of live list the pairs by output, then by
        # m.  divmod keeps the index arrays contiguous (np.nonzero's are
        # strided), and every convolution reads them.
        flat = np.flatnonzero(live)
        row, a = divmod(flat, len(rows_u))
        io = outs[row]
        self.im, self.ij = rows_u[a], pair.ravel()[flat]
        self.indptr = np.r_[0, np.cumsum(np.bincount(io, minlength=lattice.n_modes))]
        self.kc = np.ascontiguousarray(lattice.kcheck[io].T, dtype=complex)
        self.kc.flags.writeable = False
        self.blocks = {}

    def block(self, M: int, n: int) -> sp.csr_matrix:
        """CSR matrix of n diagonal copies of the plan, without data.

        The kernel sets the data to its pair products for one product and
        drops them after it, so no call reads another's and the cache holds
        no data between calls; two threads must not convolve on one lattice
        at the same time.
        """
        S = self.blocks.get(n)
        if S is None:
            P = len(self.ij)
            offs = np.arange(n)[:, None]
            S = self.blocks[n] = sp.csr_matrix(
                (np.zeros(n * P, dtype=complex), (self.ij + M * offs).ravel(),
                 np.r_[0, (self.indptr[1:] + P * offs).ravel()]),
                shape=(n * M, n * M))
            S.data = None
        return S


class _ShellPlans:
    """The plan record of one Stokes shell of a lattice (lam None: every
    representative output), cached per lattice by _shell_plans.

    n_pairs is the full plan's pair count, counted on the one enumeration
    the builder uses.  full is the full plan, built the first time a
    convolution takes it, and kept for good.  restricted is the plan of the
    latest support asked for, with that support's key: the next support
    replaces both, so a run whose support changes every step holds one
    restricted plan per shell.
    """

    __slots__ = ("lam", "n_pairs", "full", "key", "restricted")

    def __init__(self, lattice: Lattice, lam):
        self.lam = lam
        self.n_pairs = int(np.count_nonzero(_pairs(lattice, lam, None)[3]))
        self.full = self.key = self.restricted = None

    def plan(self, lattice: Lattice, support) -> _Plan:
        """The shell's plan restricted to support, or its full plan for None."""
        if support is None:
            self.full = self.full or _Plan(lattice, self.lam, None)
            return self.full
        key = tuple(r.tobytes() for r in support)
        if key != self.key:
            self.key, self.restricted = key, _Plan(lattice, self.lam, support)
        return self.restricted


def _shell_plans(lattice: Lattice, lam) -> _ShellPlans:
    """The plan record of shell lam on the lattice, made on a miss."""
    cache = lattice.__dict__.setdefault("_conv_plans", {})
    lam = None if lam is None else Fraction(lam)
    return cache.get(lam) or cache.setdefault(lam, _ShellPlans(lattice, lam))


def _support(lattice: Lattice, U: np.ndarray, V: np.ndarray, n_pairs: int):
    """The support that convolve_advect restricts its plan to, or None for
    the full plan of n_pairs pairs (the shell record's count).

    U and V must have one shape.  nnz(U) nnz(V), with nnz the count of
    non-zero entries over every sample of a stack, bounds the pairs whose
    two factors are both non-zero.  When it is below n_pairs, the support
    is (rows_u, rows_v): the modes with a non-zero entry in some sample of
    U and of V.  Every pair the restricted plan drops has an exact zero
    factor.  With finite factors its product is a zero, and a CSR row sum
    starts from +0, which no zero term changes, signed zeros included.
    Rotating a sample keeps its zero rows zero, so advect takes the support
    of its unrotated stack, once for all chunks.
    """
    if U.shape != V.shape:
        raise ValueError(f"U and V must have the same shape, not {U.shape} and {V.shape}")

    def nnz_product(A, B):
        nnz = np.count_nonzero(A)
        return nnz * (nnz if V is U or not nnz else np.count_nonzero(B))

    # a stack's first sample has no more non-zeros than the stack, so a
    # dense first sample decides without a count of the rest
    if (U.ndim == 3 and nnz_product(U[:1], V[:1]) >= n_pairs) or nnz_product(U, V) >= n_pairs:
        return None
    M = lattice.n_modes

    def rows(A):
        return np.flatnonzero(A.reshape(-1, 3 * M).any(axis=0).reshape(M, 3).any(axis=1))

    rows_u = rows(U)
    return rows_u, rows_u if V is U else rows(V)


def convolve_advect(lattice: Lattice, U: np.ndarray, V: np.ndarray, lam=None) -> np.ndarray:
    """Raw advection coefficients of (u.grad)v, truncated to the lattice.

    Zero-mean, real-paired inputs of shape (M,3), or (B,M,3) stacks of B
    samples; returns the un-projected array of the same shape,
    b_k = sum_{m+j=k} i (U_m . kcheck_k) V_j, accumulated as one sparse
    matrix-vector product (block-diagonal over the samples) over the
    representative outputs, with the conjugate half mirrored.  With lam
    given, only outputs on that Stokes shell are formed; other rows are zero.

    The plan follows the inputs' support (_support): when nnz(U) nnz(V) is
    below the shell's pair count, only the pairs with U_m and V_j both
    non-zero in some sample are formed.  Every output is the full plan's,
    bit for bit, signed zeros included.  The full plan is built only when
    a convolution takes it.

    Each pair's dot product is summed left to right over the three
    components, (U_m0 k0 + U_m1 k1) + U_m2 k2, on one (3, ..., P) gather of
    U's components at the pairs.
    """
    record = _shell_plans(lattice, lam)
    return _convolve(lattice, U, V, record, _support(lattice, U, V, record.n_pairs))


def _convolve(lattice: Lattice, U: np.ndarray, V: np.ndarray, record: _ShellPlans,
              support) -> np.ndarray:
    """convolve_advect on the shell of a _ShellPlans record, with the plan
    of a support _support chose.

    A pair the restricted plan drops is an exact zero only if its other
    factor is finite.  The real and imaginary parts of a dot product
    U_m . kcheck_k are below 4 max|U| max|kcheck|, with max|U| taken over
    the support (U is zero elsewhere), so when that bound or the sum of V
    is not finite the full plan is taken: it forms the NaN of inf times
    zero.  (A bound or sum that merely overflows takes it too, which costs
    time and changes no bit.)  The sign of a zero factor reaches no output:
    its products are zeros, which no sum changes, or inf times zero, which
    is the same NaN for either sign.
    """
    if support is not None and not (
            np.isfinite(4.0 * np.abs(lattice.kcheck).max()
                        * np.abs(U[..., support[0], :]).max(initial=0.0))
            and (V is U or np.isfinite(V.sum()))):
        support = None
    plan = record.plan(lattice, support)
    M = lattice.n_modes
    n = V.size // (3 * M)
    # g[c]: component c of U at the pairs' first modes, (..., P)
    g = U.transpose(U.ndim - 1, *range(U.ndim - 1)).take(plan.im, axis=-1)
    g *= plan.kc.reshape(3, *(1,) * (U.ndim - 2), -1)
    dots = g[0]
    dots += g[1]
    dots += g[2]
    S = plan.block(M, n)
    S.data = dots.ravel()
    out = (S @ V.reshape(n * M, 3)).reshape(V.shape)
    S.data = None
    np.multiply(1j, out, out=out)
    return _mirror(lattice, out)


def _mirror(lattice: Lattice, out: np.ndarray) -> np.ndarray:
    """Write the conjugate half of a real-paired (..., M, 3) array from its
    representative half, out[..., conj_idx[rep], :] = conj(out[..., rep, :]),
    in place; returns out.  The one writer of a conjugate half from a
    representative half.  The two halves' mode indices are cached per
    lattice."""
    rows = lattice.__dict__.get("_mirror_rows")
    if rows is None:
        rep = np.flatnonzero(lattice.rep_mask)
        rows = lattice._mirror_rows = (rep, lattice.conj_idx[rep])
    half = out.take(rows[0], axis=-2)
    out[..., rows[1], :] = np.conjugate(half, out=half)
    return out


# samples per convolution of a stacked advect: the three gathered components
# of the plan's pairs, 48 B per sample and pair, stay near this many bytes
_STACK_BLOCK_BYTES = 1 << 20


def advect(lattice: Lattice, X: np.ndarray, Y: np.ndarray,
           t=0.0, omega: float = 0.0, lam=None) -> np.ndarray:
    """Rotated, projected advection exp(Omega t S) B(exp(-Omega t S)X, exp(-Omega t S)Y).

    B(x, y) = P (x.grad) y on the Galerkin set.  Operates on (M,3)
    coefficient arrays, or on (B,M,3) stacks of samples with t a scalar or a
    (B,) array of their times.  Inputs must obey the conjugate pairing
    X(-k) = conj(X(k)) (every field the package builds does): only the
    representative half of the product is computed.  With lam given, only
    output modes on the Stokes shell lam are computed, projected and rotated
    back; every other row is the zero the convolution left there, whose sign
    is unspecified, and each computed row equals the unrestricted one bit
    for bit.  With omega == 0 no rotation is applied; when Y is X the input
    is rotated once.  The operators are the lattice's cached complex copies
    (_complex_ops), and one cos/sin of the angles serves both the input
    rotations and the back-rotation.

    The convolution follows the inputs' support as convolve_advect's does:
    when nnz(X) nnz(Y) is below the shell's pair count, only the pairs whose
    factors are both non-zero in some sample are formed, with every output
    bit the full plan's.  The support is taken once per call, before a long
    stack is computed in chunks of samples, sized by the pair count;
    samples are independent, so chunking changes no bit.  The call looks up
    the shell's plan record once (_shell_plans): its pair count serves the
    support gate and the chunk size, and its plans the convolution.
    """
    record = _shell_plans(lattice, lam)
    support = _support(lattice, X, Y, record.n_pairs)
    if X.ndim == 3:
        chunk = max(1, _STACK_BLOCK_BYTES // (48 * max(record.n_pairs, lattice.n_modes)))
        if len(X) > chunk:
            t = np.asarray(t)
            out = np.empty(X.shape, dtype=complex)
            for start in range(0, len(X), chunk):
                c = slice(start, start + chunk)
                Xc = X[c]
                out[c] = _advect(lattice, Xc, Xc if Y is X else Y[c],
                                 t if t.ndim == 0 else t[c], omega, record, support)
            return out
    return _advect(lattice, X, Y, t, omega, record, support)


def _advect(lattice: Lattice, X: np.ndarray, Y: np.ndarray, t, omega: float,
            record: _ShellPlans, support) -> np.ndarray:
    """advect on one block of samples, on the shell of a _ShellPlans record,
    convolved with the plan of support.

    Without a shell the projection and back-rotation act on the
    convolution's whole array and return a new one; with one they act on
    the shell's rows, written back into it.
    """
    if omega != 0.0:
        theta = -omega * lattice.kt3 * np.asarray(t)[..., None]
        c, s = np.cos(theta), np.sin(theta)
        rows_u, rows_v = support or (None, None)
        Xr = _rotate_rows(lattice, X, c, s, rows_u)
        X, Y = Xr, Xr if Y is X else _rotate_rows(lattice, Y, c, s, rows_v)
    b = _convolve(lattice, X, Y, record, support)
    rows = slice(None) if record.lam is None else _shell_rows(lattice, record.lam)
    out = _per_mode(_complex_ops(lattice)[1][rows], b[..., rows, :])
    if omega != 0.0:
        # the back-rotation by -theta: cos(-theta) = c and sin(-theta) = -s, bit for bit
        out = _rotate_coeffs(lattice, out, c[..., rows], -s[..., rows], rows)
    if record.lam is None:
        return out
    b[..., rows, :] = out
    return b


def _rotate_rows(lattice: Lattice, A: np.ndarray, c: np.ndarray, s: np.ndarray,
                 rows) -> np.ndarray:
    """_rotate_coeffs of A on the modes rows, +0 on every other mode; rows
    None means all of them.

    A restricted plan reads no row outside its support, and the full plan
    it may fall back to gets the same bits from any zero (_convolve).
    """
    if rows is None or len(rows) == lattice.n_modes:
        return _rotate_coeffs(lattice, A, c, s)
    out = np.zeros(A.shape, dtype=complex)
    out[..., rows, :] = _rotate_coeffs(lattice, A[..., rows, :], c[..., rows], s[..., rows],
                                       rows)
    return out


def _shell_rows(lattice: Lattice, lam) -> slice:
    """The modes of the Stokes shell lam as a slice (modes are sorted by
    eigenvalue); empty when lam is not an eigenvalue, whose shell is -1."""
    s = lattice.shell(lam)
    lo, hi = np.searchsorted(lattice.shell_of, [s, s + 1])
    return slice(int(lo), int(hi))


def bilinear_B(u: SpectralField, v: SpectralField) -> SpectralField:
    """Leray-projected advection B(u, v) = P (u.grad) v on the Galerkin set."""
    return SpectralField(u.lattice, advect(u.lattice, u.coeffs, v.coeffs))


def eigen_restrict(u: SpectralField, lam: Fraction | int | str) -> SpectralField:
    """Eigenprojection onto a single Stokes shell."""
    idx = u.lattice.shell_indices(Fraction(lam))
    c = np.zeros_like(u.coeffs)
    c[idx] = u.coeffs[idx]
    return SpectralField(u.lattice, c)


def random_gevrey(lattice: Lattice, seed: int, sigma: float = 1.0,
                  amplitude: float = 0.1) -> SpectralField:
    """Seeded random divergence-free field with exponentially decaying shells.

    Coefficients are drawn per representative mode, Leray-projected, damped
    by exp(-sigma sqrt(lam)), mirrored to the conjugate modes and scaled so
    the L2 norm equals `amplitude`.  Deterministic in (lattice, seed, sigma).
    """
    rng = np.random.default_rng(seed)
    u = SpectralField(lattice)
    for i in np.flatnonzero(lattice.rep_mask):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z = lattice.proj[i] @ z
        z *= math.exp(-sigma * math.sqrt(lattice.lam_f[i]))
        u.coeffs[i] = z
    _mirror(lattice, u.coeffs)
    n = u.norm()
    if n > 0:
        u.coeffs *= amplitude / n
    return u


# -- JSON interchange -------------------------------------------------------

def field_to_doc(u: SpectralField) -> dict:
    """One representative per conjugate pair, non-zero modes, lattice order."""
    lat = u.lattice
    idx = np.flatnonzero(lat.rep_mask & np.any(u.coeffs != 0, axis=1))
    z = u.coeffs[idx]
    return {
        "L": [float(x) for x in lat.L],
        "mean": u.mean.tolist(),
        "modes": [{"k": k, "re": re, "im": im} for k, re, im in
                  zip(lat.ks[idx].tolist(), z.real.tolist(), z.imag.tolist())],
    }


# What a document row holds: its element types, the dtype it is read as, the
# noun for those types and what a value beyond that dtype is.
_ROWS = {"wave vector": ({int}, np.int64, "integers", "outside the lattice"),
         "coefficient": ({int, float}, np.float64, "numbers", "beyond the float range"),
         "mean": ({int, float}, np.float64, "numbers", "beyond the float range")}


def _rows(rows: list, what: str) -> np.ndarray:
    """(N,3) array of a document's N rows, each three numbers.

    A wave vector is three integers, read as int64; the real or imaginary
    part of a coefficient is three numbers, read as float.  A bool is no
    number here.  ValueError names the first row that is not three such
    numbers, or that its dtype cannot hold.
    """
    types, dtype, noun, beyond = _ROWS[what]
    try:  # the common case, checked at C speed
        if set(map(len, rows)) <= {3} and set(map(type, chain.from_iterable(rows))) <= types:
            return np.array(rows, dtype=dtype).reshape(len(rows), 3)
    except (TypeError, OverflowError):
        pass
    for r in rows:
        if not (isinstance(r, (list, tuple)) and len(r) == 3 and set(map(type, r)) <= types):
            raise ValueError(f"{what} {r!r} is not three {noun}")
        try:
            np.array(r, dtype=dtype)
        except OverflowError:
            raise ValueError(f"{what} {tuple(r)} is {beyond}") from None


def field_from_doc(doc: dict, lattice: Lattice) -> SpectralField:
    """Inverse of field_to_doc on a given lattice; conjugates filled by pairing.

    Rows are read as _rows reads them, and each coefficient must be
    orthogonal to its wave vector; the rest is checked as
    SpectralField.from_modes checks it.  A mean, when present, is one more
    such row of three numbers; an absent mean is zero.  A missing "modes"
    raises KeyError.
    """
    modes = doc["modes"]
    n = len(modes)
    ks = _rows([m["k"] for m in modes], "wave vector")
    parts = _rows([m["re"] for m in modes] + [m["im"] for m in modes], "coefficient")
    parts = parts.reshape(2, n, 3)
    idx = _modes_of(lattice, ks)
    off = _along_k(lattice, idx, parts)
    if off.any():
        k = tuple(int(c) for c in ks[np.argmax(off)])
        raise ValueError(f"the coefficient of mode {k} is not orthogonal to its wave vector")
    mean = _rows([doc["mean"]], "mean")[0] if "mean" in doc else None
    return SpectralField._from_arrays(lattice, idx, parts[0] + 1j * parts[1], mean)
