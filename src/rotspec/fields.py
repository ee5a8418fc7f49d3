"""Divergence-free spectral velocity fields and the operators acting on them.

A field is a dense (M,3) complex coefficient array aligned with the lattice
mode order, plus a real 3-vector spatial mean.  Every coefficient lives in
the plane orthogonal to its dual wave vector; the conjugate-mode pairing
u_hat(-k) = conj(u_hat(k)) keeps the velocity real.  Norms follow the
Parseval convention |u|^2 = L1*L2*L3 * sum_k |u_hat(k)|^2.

Rotation sits at the edges of one unrotated advection kernel, _advect
(convolve, then project), whose one input layout is the representative
half: it takes (..., n, 3) arrays on a frame's n representative rows,
writes their conjugates on the partners' rows into its own buffer and
returns the representative outputs.  A frame (_Frame) lists its rows as
its representative modes, sorted, then their partners, and owns its
plans, one per Stokes shell, each built on those row positions.  There
are two: the lattice frame of every mode (_lattice_frame), and the frame
of a closed support (_closed_frame), which is the lattice frame itself
when the support is every mode.  Every angle of exp(rate t S) comes from
_angles, the package's only np.cos/np.sin caller; _rotate_by rotates
whole samples (linear_evolution, transform_trajectory).
_rotated_products is the one loop of the rotated B_Omega over a stack of
samples, behind advect and the resonant fit (rotspec.expansion): per block
of samples (_STACK_BLOCK_BYTES; one sample is one block) it gathers and
rotates each input's representative rows once, forms the caller's
products unrotated on a shell's representative outputs and rotates their
sum back once, returning them in that layout (rows: _shell_reps).  The
integrator (rotspec.solver) steps the representative half on its closed
frame and rotates only through its fused propagators and its records'
representative rows.  Rotation and projection multiply by the lattice's
cached complex operators (_complex_ops).  The convolution sums its pairs
in scipy's compiled CSR routine.  _mirror writes every conjugate half,
and only the callers that need full rows call it: convolve_advect,
advect, the integrator's records, random_gevrey and SPoly.evaluate_many.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from itertools import chain
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np
# csr_matvecs(M, N, k, indptr, indices, data, X, Y) adds A @ X into Y, for
# the (M, N) CSR matrix A = (data, indices, indptr) and C-ordered (N, k) X
# and (M, k) Y: the compiled sum behind scipy.sparse's public product of a
# CSR matrix and an (N, k) array, A @ X, which allocates a zero Y and calls it.
from scipy.sparse._sparsetools import csr_matvecs

from .lattice import Lattice

__all__ = [
    "SpectralField",
    "random_gevrey",
    "inner",
    "apply_S",
    "advect",
    "bilinear_B",
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
        parts = np.stack([z.real, z.imag])
        return cls(lattice, _scatter(lattice, [n], _modes_of(lattice, ks), parts)[0], mean)

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


def _unnamed(i: int) -> str:
    return ""


def _modes_of(lattice: Lattice, ks: np.ndarray,
              where: Callable[[int], str] = _unnamed) -> np.ndarray:
    """Lattice.index_of for an (N,3) integer array whose wave vectors must all
    be modes; ValueError names the first one that is not, after where(n)
    for its row n."""
    idx = lattice.index_of(ks)
    if np.any(idx < 0):
        n = int(np.argmax(idx < 0))
        k = tuple(int(c) for c in ks[n])
        raise ValueError(f"{where(n)}mode {k} is outside the lattice (cutoff {lattice.cutoff})")
    return idx


def _along_k(lattice: Lattice, idx: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Per mode idx[n], whether its coefficient z = parts[0, n] + i*parts[1, n]
    leaves the plane orthogonal to its wave vector: |Re z.ktil| + |Im z.ktil|
    is above 1e-10 * max(1, max_c |z_c|).  Parts near the float range may
    make either side infinite, which the comparison reads as it stands."""
    with np.errstate(over="ignore", invalid="ignore"):
        off = np.abs(np.einsum("snc,nc->sn", parts, lattice.ktil[idx])).sum(axis=0)
        return off > 1e-10 * np.maximum(1.0, np.hypot(*parts).max(axis=1))


def _gevrey_norms(lattice: Lattice, coeffs: np.ndarray, alpha: float = 0.0,
                  sigma: float = 0.0, mean: Optional[np.ndarray] = None) -> np.ndarray:
    """|A^alpha exp(sigma*A^(1/2)) u| with the volume-weighted Parseval sum.

    coeffs is one (M,3) field or an (R,M,3) stack; the result has the shape
    of the leading axes.  Each field's weighted sum is numpy's pairwise sum
    over its modes, so a stacked sample's norm equals its own norm bit for
    bit.  A spatial mean (a 3-vector) contributes only to the plain L2 norm
    (alpha = 0), where the zero mode carries unit weight.  A norm whose sum
    underflows to 0 on non-zero data is taken again on the data divided by
    their largest |entry|; every other norm is the plain sum's.
    """
    lam = lattice.lam_f
    w = np.exp(2.0 * sigma * np.sqrt(lam))
    if alpha != 0.0:
        w = w * lam ** (2.0 * alpha)
    mean = np.zeros(3) if mean is None or alpha != 0.0 else np.asarray(mean, dtype=float)

    def norms(X, m):
        total = np.sum(w * np.einsum("...mc,...mc->...m", X, np.conj(X)).real, axis=-1)
        return np.sqrt(lattice.volume * (total + float(np.dot(m, m))))

    out = np.array(norms(coeffs, mean))
    for i in map(tuple, np.argwhere(out == 0)):
        scale = max(np.abs(coeffs[i]).max(), np.abs(mean).max())
        if scale > 0:
            out[i] = scale * norms(coeffs[i] / scale, mean / scale)
    return out


def inner(u: SpectralField, v: SpectralField) -> float:
    """Real L2 inner product <u, v>."""
    s = complex(np.einsum("mc,mc->", u.coeffs, np.conj(v.coeffs)))
    return u.lattice.volume * (s.real + float(np.dot(u.mean, v.mean)))


_J_VERT = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _strided(a: np.ndarray) -> np.ndarray:
    """A read-only complex copy of a real (R,3,3) operator stack, laid out
    as _complex_ops lays out its copies: every other column of an (R,3,6)
    buffer."""
    op = np.empty(a.shape[:-1] + (2 * a.shape[-1],), dtype=complex)[..., ::2]
    op[...] = a
    op.flags.writeable = False
    return op


def _complex_ops(lattice: Lattice) -> Tuple[np.ndarray, np.ndarray]:
    """(jk, proj) of the lattice as read-only complex (M,3,3) copies.

    A product of a real operator with a complex field casts the operator to
    complex, through a buffer, on every call; these copies hold the cast
    values, so a product with them gives the real operator's bits without
    the cast.  Each copy is every other column of an (M,3,6) buffer
    (_strided): with neither axis of a matrix at unit stride, np.matmul
    (_per_mode) forms the per-mode products in its own loop instead of one
    BLAS call per mode, in about half the time.  Cached per lattice.
    """
    ops = getattr(lattice, "_complex_ops", None)
    if ops is None:
        ops = lattice._complex_ops = (_strided(lattice.jk), _strided(lattice.proj))
    return ops


def _per_mode(op: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """op[m] @ coeffs[..., m, :] for every mode m: (R,3,3) operators on (R,3)
    coefficients or on a (B,R,3) stack of them.

    One batched matmul: its bits are einsum("mij,...mj->...mi")'s, and a
    stack costs a fraction of einsum's time.
    """
    return np.matmul(op, coeffs[..., None])[..., 0]


def _apply_jk(lattice: Lattice, coeffs: np.ndarray) -> np.ndarray:
    """J_k coeffs per mode, with the lattice's complex J_k (_complex_ops):
    the one product of the rotation generator."""
    return _per_mode(_complex_ops(lattice)[0], coeffs)


def apply_S(u: SpectralField) -> SpectralField:
    """Coriolis operator: Leray-projected vertical rotation P J P, mode-wise."""
    proj = _complex_ops(u.lattice)[1]
    c = _per_mode(proj, _per_mode(proj, u.coeffs) @ _J_VERT.T)
    return SpectralField(u.lattice, c)


def _angles(lattice: Lattice, rate: float, t) -> Tuple[np.ndarray, np.ndarray]:
    """(cos theta, sin theta) of the angles theta = rate k3til t of the
    rotation exp(rate t S): (M,) for a scalar time t, (R,M) for an (R,)
    array of times.  The one angle rule: theta is formed per sample in one
    operation order, so a sample rotated alone has its bits in a stack."""
    theta = rate * lattice.kt3 * np.asarray(t)[..., None]
    return np.cos(theta), np.sin(theta)


def _rotate(jk: np.ndarray, coeffs: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Apply cos(theta_m) I + sin(theta_m) J_k per row m, with jk the rows'
    complex J_k (_complex_ops', or a shell's slice of it).

    coeffs is (R,3) or a (B,R,3) stack of the R rows; c = cos(theta) and
    s = sin(theta) are (R,) or (B,R) to match (_angles).  Formed as
    c coeffs + s (J_k coeffs), in place where that keeps each operation's
    operands in that order.  The rotation by -theta is (c, -s): numpy's cos
    is even and its sin odd, bit for bit.
    """
    rot = _per_mode(jk, coeffs)
    np.multiply(s[..., None], rot, out=rot)
    out = c[..., None] * coeffs
    out += rot
    return out


def _rotate_by(lattice: Lattice, coeffs: np.ndarray, rate: float, t) -> np.ndarray:
    """exp(rate t S) of one (M,3) sample at the time t, or of an (R,M,3)
    stack at its (R,) times t: _rotate on every mode, at _angles' angles."""
    return _rotate(_complex_ops(lattice)[0], coeffs, *_angles(lattice, rate, t))


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
    """The live pairs of pairs = _pairs(lattice, lam, frame.support) on a
    frame's rows, row-sorted.

    Pair p multiplies U_im[p] . kc[:, p] by V_ij[p] into output row o for
    indptr[o] <= p < indptr[o + 1]: im and ij are positions in the frame's
    rows, and the output rows are its representative modes on the shell lam
    (every one for None).  Each row lists its pairs by first mode, in the
    full plan's order.  kc holds the output wave vectors as three
    contiguous rows, cast to complex and read-only: a complex factor times
    a real one is cast to complex, through a buffer, on every call, so a
    product with the cast values has the real vectors' bits without the
    cast.  blocks caches the CSR index arrays of the plan's block-diagonal
    matrices by stack size (block).  A plan holds no per-call data.
    """

    def __init__(self, frame: "_Frame", lam, pairs):
        rows_u, outs, pair, live = pairs
        # the row-major non-zeros of live list the pairs by output, then by
        # m.  divmod keeps the index arrays contiguous (np.nonzero's are
        # strided), and every convolution reads them.
        flat = np.flatnonzero(live)
        row, a = divmod(flat, len(rows_u))
        io = outs[row]
        lattice = frame.lattice
        pos = np.zeros(lattice.n_modes, dtype=np.intp)
        pos[frame.rows] = np.arange(len(frame.rows))
        self.im, self.ij = pos[rows_u[a]], pos[pair.ravel()[flat]]
        reps = frame.outs[_shell_outs(frame, lam)]
        self.indptr = np.r_[0, np.cumsum(np.bincount(np.searchsorted(reps, io),
                                                     minlength=len(reps)))]
        self.n_in = len(frame.rows)
        self.kc = np.ascontiguousarray(lattice.kcheck[io].T, dtype=complex)
        self.kc.flags.writeable = False
        self.blocks = {}

    def block(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the CSR matrix of n diagonal copies of the
        plan, one per sample of a stack of n, cached by n.  For n = 1 they
        are the plan's own indptr and ij; for more, int32 where the values
        fit, as scipy's CSR constructor stores them, which halves the cache."""
        pair = self.blocks.get(n)
        if pair is None:
            if n == 1:
                pair = self.indptr, self.ij
            else:
                R, P = len(self.indptr) - 1, len(self.ij)
                offs = np.arange(n)[:, None]
                idx = np.int32 if n * max(R, self.n_in, P) < 2**31 else np.int64
                pair = (np.r_[0, (self.indptr[1:] + P * offs).ravel()].astype(idx),
                        (self.ij + self.n_in * offs).ravel().astype(idx))
            self.blocks[n] = pair
        return pair


class _Frame:
    """The rows of a lattice that the advection kernel (_advect) acts on.

    rows are its representative modes outs, sorted, then their partners in
    that order; the kernel takes and returns arrays on the representative
    rows.  support is None on the lattice frame (_lattice_frame) and (S, S)
    on a closed support S (_closed_frame).  plans holds each shell's plan on
    the frame's rows (plan).
    The frame keeps what the kernel and its callers read per output row,
    taken once: the complex P_k and J_k, sliced from the lattice's and laid
    out as _complex_ops lays them out, so _per_mode forms each row's
    product in the same loop; and mirror, (outs, their partners), for
    _mirror.  kbound is 4 max|kcheck| over the lattice on a closed support,
    whose plans drop pairs (_convolve), and None on the lattice frame.  The
    frame refers to its lattice weakly: the lattice caches its own frame,
    and a reference back would make a cycle that keeps a dropped lattice,
    with every plan its frame holds, until the cyclic collector runs.
    """

    __slots__ = ("_lattice", "rows", "outs", "support", "proj", "jk", "mirror", "kbound",
                 "plans")

    def __init__(self, lattice: Lattice, reps: np.ndarray,
                 support: Optional[Tuple[np.ndarray, np.ndarray]] = None):
        self._lattice, self.support = weakref.ref(lattice), support
        self.rows = np.r_[reps, lattice.conj_idx[reps]]
        self.outs = self.rows[:len(reps)]
        self.mirror = (self.outs, self.rows[len(reps):])
        self.proj, self.jk = _strided(lattice.proj[reps]), _strided(lattice.jk[reps])
        self.kbound = None if support is None else 4.0 * np.abs(lattice.kcheck).max()
        self.plans = {}

    @property
    def lattice(self) -> Lattice:
        return self._lattice()

    def plan(self, lam=None) -> _Plan:
        """The plan of the shell lam (None: every output), built on the first call."""
        key = None if lam is None else Fraction(lam)
        plan = self.plans.get(key)
        if plan is None:
            plan = self.plans[key] = _Plan(self, key, _pairs(self.lattice, key, self.support))
        return plan


def _lattice_frame(lattice: Lattice) -> _Frame:
    """The frame of every mode of the lattice, cached per lattice."""
    frame = lattice.__dict__.get("_frame")
    if frame is None:
        frame = lattice._frame = _Frame(lattice, np.flatnonzero(lattice.rep_mask))
    return frame


def _closed_frame(lattice: Lattice, C: np.ndarray) -> _Frame:
    """The integrator's frame for a real-paired (M,3) field C.

    The closed support S starts as C's non-zero modes and their conjugate
    partners.  It takes in the outputs of the pairs that (S, S) keeps
    (_pairs), and their partners, until it stops changing.  No pair of
    modes in S then reaches a mode outside S.  The frame is S with its one
    plan, built once: the full plan restricted to S x S, so it never forms
    more pairs.  When S is every mode, the frame is the lattice frame
    itself, whose plan is the full plan, and data that touch every mode
    enumerate no pair here.
    """
    live = C.any(axis=-1)
    rows = np.flatnonzero(live | live[lattice.conj_idx])
    while len(rows) < lattice.n_modes:
        pairs = _pairs(lattice, None, (rows, rows))
        outs = pairs[1][pairs[3].any(axis=1)]
        grown = np.union1d(rows, np.r_[outs, lattice.conj_idx[outs]])
        if len(grown) == len(rows):
            frame = _Frame(lattice, rows[lattice.rep_mask[rows]], (rows, rows))
            frame.plans[None] = _Plan(frame, None, pairs)
            return frame
        rows = grown
    return _lattice_frame(lattice)


def _check_shapes(U: np.ndarray, V: np.ndarray, rows: int) -> None:
    """ValueError unless U and V have one shape (..., rows, 3).  The compiled
    sum reads its arrays unchecked, and a gather of the representative rows
    would drop extra rows silently."""
    if U.shape != V.shape or V.shape[-2:] != (rows, 3):
        raise ValueError(f"the kernel takes two arrays of one shape (..., {rows}, 3), "
                         f"not {U.shape} and {V.shape}")


def convolve_advect(lattice: Lattice, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Raw advection coefficients of (u.grad)v, truncated to the lattice.

    Zero-mean, real-paired inputs of shape (M,3), or (B,M,3) stacks of B
    samples; returns the un-projected array of the same shape,
    b_k = sum_{m+j=k} i (U_m . kcheck_k) V_j, accumulated as one sparse
    matrix-vector product (block-diagonal over the samples) over the
    representative outputs (_convolve), with the conjugate half mirrored.
    Only the inputs' representative rows are read: each partner is taken
    as np.conj of its representative.  The sum runs over the lattice's
    full plan, built the first time a convolution takes it.

    Each pair's dot product is summed left to right over the three
    components, (U_m0 k0 + U_m1 k1) + U_m2 k2, on one (3, ..., P) gather of
    U's components at the pairs.
    """
    _check_shapes(U, V, lattice.n_modes)
    frame = _lattice_frame(lattice)
    Ur = U[..., frame.outs, :]
    half = _convolve(frame, Ur, Ur if V is U else V[..., frame.outs, :])
    return _mirror(frame.mirror, np.empty(U.shape, dtype=complex), half)


def _with_partners(A: np.ndarray) -> np.ndarray:
    """A frame's rows of the (..., n, 3) representative rows A: A, then
    np.conj(A) on the partners' rows, as one C-ordered complex
    (..., 2n, 3) array."""
    return np.concatenate((A, np.conjugate(A)), axis=-2, dtype=complex)


def _convolve(frame: _Frame, U: np.ndarray, V: np.ndarray, lam=None) -> np.ndarray:
    """convolve_advect's representative outputs on the shell lam (every
    output for None) in a frame, (..., n_out, 3), for (..., n, 3) inputs on
    the frame's n representative rows, with the frame's plan for lam.  Each
    input's partners are its np.conj, written into the kernel's own buffer
    (_with_partners); nothing is mirrored.

    A pair a closed frame's plan drops has a factor outside the frame,
    where the inputs are zero; it is an exact zero only if its other factor
    is finite.  The real and imaginary parts of a dot product U_m . kcheck_k
    are below 4 max|U| max|kcheck|, so when that bound or the sum of V is
    not finite the frame's rows are taken from the lattice frame's full
    plan on the inputs padded to every mode (_convolve_padded), which forms
    the NaN of inf times zero.  (A bound or sum that merely overflows takes
    it too, which costs time and changes no bit.)  The sign of a zero
    factor reaches no output: its products are zeros, which no sum
    changes, or inf times zero, which is the same NaN for either sign.
    """
    n = len(frame.outs)
    _check_shapes(U, V, n)
    if frame.kbound is not None and not (
            math.isfinite(frame.kbound * np.abs(U).max(initial=0.0))
            and (V is U or np.isfinite(V.sum()))):
        return _convolve_padded(frame, U, V)
    plan = frame.plan(lam)
    outs = len(plan.indptr) - 1
    count = math.prod(V.shape[:-2])
    Uf = _with_partners(U)
    Vf = Uf if V is U else _with_partners(V)
    # g[c]: component c of U at the pairs' first modes, (..., P)
    g = Uf.transpose(Uf.ndim - 1, *range(Uf.ndim - 1)).take(plan.im, axis=-1)
    g *= plan.kc.reshape(3, *(1,) * (Uf.ndim - 2), -1)
    dots = g[0]
    dots += g[1]
    dots += g[2]
    indptr, indices = plan.block(count)
    # scipy's S @ V, with S = (dots, indices, indptr): the same sum into a
    # +0 output, on V as the C-ordered complex128 array that product takes
    out = np.zeros(V.shape[:-2] + (outs, 3), dtype=complex)
    csr_matvecs(count * outs, count * 2 * n, 3, indptr, indices, dots.ravel(), Vf.ravel(),
                out.ravel())
    np.multiply(1j, out, out=out)
    return out


def _convolve_padded(frame: _Frame, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """_convolve of a closed frame through the lattice frame's full plan, on
    U and V padded with +0 to every representative mode: the frame's
    representative rows of that product.  Where the product is not finite
    outside the frame, which the frame cannot hold, every entry is NaN
    instead."""
    whole = _lattice_frame(frame.lattice)
    outs = np.searchsorted(whole.outs, frame.outs)

    def pad(A):
        out = np.zeros(A.shape[:-2] + (len(whole.outs), 3), dtype=complex)
        out[..., outs, :] = A
        return out

    Up = pad(U)
    full = _convolve(whole, Up, Up if V is U else pad(V))
    out = full[..., outs, :]
    if not np.isfinite(np.delete(full, outs, axis=-2)).all():
        out[...] = np.nan
    return out


def _mirror(pairing: Tuple[np.ndarray, np.ndarray], out: np.ndarray,
            half: Optional[np.ndarray] = None) -> np.ndarray:
    """Write the conjugate half of a real-paired (..., n, 3) array (or of an
    (n, k) array of rows) from its representative half,
    out[..., conj, :] = conj(out[..., rep, :]) for (rep, conj) = pairing (a
    frame's mirror), in place; returns out.  When half, the (..., len(rep),
    3) representative rows, is given, it is written first.  The one writer
    of a conjugate half from a representative half."""
    rep, conj = pairing
    if half is None:
        half = out.take(rep, axis=-2)
        np.conjugate(half, out=half)
    else:
        out[..., rep, :] = half
        half = np.conjugate(half)
    out[..., conj, :] = half
    return out


# samples per convolution of a stacked product: the three gathered components
# of the plan's pairs, 48 B per sample and pair, stay near this many bytes
_STACK_BLOCK_BYTES = 1 << 20


def _rotated_products(lattice: Lattice, lam, t, omega: float,
                      inputs: Sequence[np.ndarray], form: Callable) -> np.ndarray:
    """The rotated form on the shell lam (every mode for None) over (R,M,3)
    sample stacks at their times t, a scalar or (R,): (R, n, 3) on the
    shell's n representative modes (_shell_reps), the kernel's layout.

    The one block loop of B_Omega.  Per block, each input's representative
    rows are gathered and rotated once into the u frame,
    X_u = exp(-Omega t S) X; form(B, *blocks) returns a sum of products
    B(X_u, Y_u) of the unrotated kernel (_advect) on the shell's
    representative outputs, and the sum is rotated back once.  The rotation
    acts mode by mode, so it commutes with the shell restriction, the
    projection and the conjugate pairing: no input's partner rows are read,
    and no output's partner rows are written.
    """
    frame = _lattice_frame(lattice)
    outs = _shell_outs(frame, lam)

    def B(X, Y):
        return _advect(frame, X, Y, lam)

    n = len(inputs[0])
    out = np.empty((n, outs.stop - outs.start, 3), dtype=complex)
    # samples are independent, so no block size changes a bit
    step = max(1, _STACK_BLOCK_BYTES // (48 * max(len(frame.plan(lam).im), len(frame.rows))))
    for start in range(0, n, step):
        blk = slice(start, start + step)
        blocks = [X[blk, frame.outs] for X in inputs]
        if omega != 0.0:
            c, s = _angles(lattice, -omega, t if np.ndim(t) == 0 else np.asarray(t)[blk])
            c, s = c[..., frame.outs], s[..., frame.outs]
            blocks = [_rotate(frame.jk, X, c, s) for X in blocks]
        acc = form(B, *blocks)
        if omega != 0.0:
            # the back-rotation by -theta: cos(-theta) = c and sin(-theta) = -s
            acc = _rotate(frame.jk[outs], acc, c[..., outs], -s[..., outs])
        out[blk] = acc
    return out


def advect(lattice: Lattice, X: np.ndarray, Y: np.ndarray,
           t=0.0, omega: float = 0.0, lam=None) -> np.ndarray:
    """Rotated, projected advection exp(Omega t S) B(exp(-Omega t S)X, exp(-Omega t S)Y).

    B(x, y) = P (x.grad) y on the Galerkin set.  Operates on (M,3)
    coefficient arrays, or on (B,M,3) stacks of samples with t a scalar or a
    (B,) array of their times; X and Y must have one shape.  Inputs must
    obey the conjugate pairing X(-k) = conj(X(k)) (every field the package
    builds does): only the representative rows of X and Y are read, only
    the representative half of the product is computed, and each partner
    row is np.conj of its representative's.  With lam given, only output
    modes on the Stokes shell lam are computed, projected and rotated back;
    every other row is +0, and each computed row equals the unrestricted
    one bit for bit.  The stack is taken in blocks (_rotated_products),
    with X rotated once when Y is X.
    """
    # checked before the rotation, which would broadcast one sample against a stack
    _check_shapes(X, Y, lattice.n_modes)
    Xs, Ys = (X, Y) if X.ndim == 3 else (X[None], Y[None])
    # one input when Y is X, so that the convolution sees V is U
    half = _rotated_products(lattice, lam, t, omega, (Xs,) if Y is X else (Xs, Ys),
                             lambda B, *XY: B(XY[0], XY[-1]))
    reps = _shell_reps(lattice, lam)
    out = _mirror((reps, lattice.conj_idx[reps]), np.zeros(Xs.shape, dtype=complex), half)
    return out if X.ndim == 3 else out[0]


def _advect(frame: _Frame, X: np.ndarray, Y: np.ndarray, lam=None) -> np.ndarray:
    """The unrotated kernel B(X, Y) on one block of samples of a frame's
    representative rows: the representative outputs on the shell lam
    (every one for None), convolved (_convolve) and projected.  Every
    rotation, and every mirror, is the caller's (_rotated_products and
    advect, the integrator)."""
    proj = frame.proj if lam is None else frame.proj[_shell_outs(frame, lam)]
    return _per_mode(proj, _convolve(frame, X, Y, lam))


def _shell_outs(frame: _Frame, lam) -> slice:
    """The frame's representative rows (frame.outs) on the Stokes shell lam,
    every one for None, as a slice: outs are sorted, and so are modes by
    eigenvalue.  Empty when lam is not an eigenvalue, whose shell is -1."""
    if lam is None:
        return slice(0, len(frame.outs))
    s = frame.lattice.shell(lam)
    lo, hi = np.searchsorted(frame.outs, np.searchsorted(frame.lattice.shell_of, [s, s + 1]))
    return slice(int(lo), int(hi))


def _shell_reps(lattice: Lattice, lam) -> np.ndarray:
    """The representative modes of the shell lam (every one for None), in
    the order of _rotated_products' output rows."""
    frame = _lattice_frame(lattice)
    return frame.outs[_shell_outs(frame, lam)]


def bilinear_B(u: SpectralField, v: SpectralField) -> SpectralField:
    """Leray-projected advection B(u, v) = P (u.grad) v on the Galerkin set."""
    return SpectralField(u.lattice, advect(u.lattice, u.coeffs, v.coeffs))


def random_gevrey(lattice: Lattice, seed: int, sigma: float = 1.0,
                  amplitude: float = 0.1) -> SpectralField:
    """Seeded random divergence-free field with exponentially decaying shells.

    Coefficients are drawn per representative mode, Leray-projected, damped
    by exp(-sigma sqrt(lam)), mirrored to the conjugate modes and scaled so
    the L2 norm equals `amplitude`; each partner is np.conj of its
    representative, the sign of a zero included.  Deterministic in
    (lattice, seed, sigma).
    """
    rng = np.random.default_rng(seed)
    u = SpectralField(lattice)
    for i in np.flatnonzero(lattice.rep_mask):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z = lattice.proj[i] @ z
        z *= math.exp(-sigma * math.sqrt(lattice.lam_f[i]))
        u.coeffs[i] = z
    mirror = _lattice_frame(lattice).mirror
    _mirror(mirror, u.coeffs)
    n = u.norm()
    if n > 0:
        u.coeffs *= amplitude / n
        _mirror(mirror, u.coeffs)  # the complex product may flip a zero part's sign
    return u


# -- JSON interchange -------------------------------------------------------
#
# One codec serves one field document and a stack of them (the trajectory
# stream, rotspec.solver): _field_docs writes the documents of a stack,
# _doc_rows reads one document's rows and _fields_of checks and scatters the
# rows of any number of documents at once.  field_to_doc and field_from_doc
# are their one-sample case.

def _field_docs(lattice: Lattice, coeffs: np.ndarray,
                means: Optional[np.ndarray] = None) -> Iterator[dict]:
    """field_to_doc of each sample of an (R,M,3) stack, in order, with the
    (R,3) means (zero when None): one non-zero mask and one gather serve the
    whole stack."""
    L = [float(x) for x in lattice.L]
    means = np.zeros((len(coeffs), 3)) if means is None else means
    keep = lattice.rep_mask & np.any(coeffs != 0, axis=-1)
    sample, idx = np.nonzero(keep)
    ks, z = lattice.ks[idx], coeffs[sample, idx]
    ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
    for mean, start, end in zip(means.tolist(), [0] + ends, ends):
        rows = slice(start, end)
        yield {"L": list(L), "mean": mean,
               "modes": [{"k": k, "re": re, "im": im} for k, re, im in
                         zip(ks[rows].tolist(), z[rows].real.tolist(), z[rows].imag.tolist())]}


def field_to_doc(u: SpectralField) -> dict:
    """One representative per conjugate pair, non-zero modes, lattice order."""
    return next(_field_docs(u.lattice, u.coeffs[None], u.mean[None]))


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
            return np.fromiter(chain.from_iterable(rows), dtype, 3 * len(rows)).reshape(-1, 3)
    except (TypeError, OverflowError):
        pass
    for r in rows:
        if not (isinstance(r, (list, tuple)) and len(r) == 3 and set(map(type, r)) <= types):
            raise ValueError(f"{what} {r!r} is not three {noun}")
        try:
            np.array(r, dtype=dtype)
        except OverflowError:
            raise ValueError(f"{what} {tuple(r)} is {beyond}") from None


def _doc_rows(doc: dict) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """A field document's N wave vectors, (N,3) int64, the real and imaginary
    parts of their coefficients, (2,N,3) float, and its mean, (3,) float or
    None when absent, each row read as _rows reads it.  A missing "modes"
    raises KeyError."""
    modes = doc["modes"]
    n = len(modes)
    ks = _rows([m["k"] for m in modes], "wave vector")
    parts = _rows([m["re"] for m in modes] + [m["im"] for m in modes], "coefficient")
    mean = _rows([doc["mean"]], "mean")[0] if "mean" in doc else None
    return ks, parts.reshape(2, n, 3), mean


def _fields_of(lattice: Lattice, counts: Sequence[int], ks: np.ndarray, parts: np.ndarray,
               where: Callable[[int], str] = _unnamed) -> np.ndarray:
    """The (R,M,3) stack of R documents' rows, as _doc_rows reads them and
    concatenated over the documents, of which document i holds counts[i].

    Every wave vector must be a mode and each coefficient orthogonal to its
    wave vector; the rest is checked as _scatter checks it.  Each check
    runs once over all the rows.  ValueError names the first document i at
    fault after where(i).
    """
    sample = np.repeat(np.arange(len(counts)), counts)

    def row_where(n: int) -> str:
        return where(int(sample[n]))

    idx = _modes_of(lattice, ks, row_where)
    off = _along_k(lattice, idx, parts)
    if off.any():
        n = int(np.argmax(off))
        k = tuple(int(c) for c in ks[n])
        raise ValueError(f"{row_where(n)}the coefficient of mode {k} "
                         "is not orthogonal to its wave vector")
    return _scatter(lattice, counts, idx, parts, where)


def _scatter(lattice: Lattice, counts: Sequence[int], idx: np.ndarray, parts: np.ndarray,
             where: Callable[[int], str] = _unnamed) -> np.ndarray:
    """The (R,M,3) stack of R fields given by mode indices idx and the real
    and imaginary parts of their coefficients, (2,N,3), of which sample i
    holds the next counts[i], with conjugates filled by pairing.  Parts are
    copied bit for bit, the sign of a zero included.  A repeated mode takes
    its last coefficient.  A sample given both members of a pair must keep
    reality_error within 1e-10 * max(1, max |coefficient|), or ValueError
    names the first such sample i after where(i).
    """
    sample = np.repeat(np.arange(len(counts)), counts)
    partner = lattice.conj_idx[idx]
    out = np.zeros((len(counts), lattice.n_modes, 3), dtype=complex)
    # every given mode's partner first, as np.conj of it, part by part from
    # the parts themselves; then the given modes, which overwrite a partner
    # that is given too
    out.real[sample, partner] = parts[0]
    out.imag[sample, partner] = np.negative(parts[1])
    out.real[sample, idx], out.imag[sample, idx] = parts
    seen = np.zeros(out.shape[:2], dtype=bool)
    seen[sample, idx] = True
    # a partner filled by np.conj pairs exactly, so only samples given both
    # members of a pair are checked, a block of samples at a time
    paired = np.unique(sample[seen[sample, partner]])
    step = max(1, _STACK_BLOCK_BYTES // (48 * lattice.n_modes))
    for start in range(0, len(paired), step):
        blk = out[paired[start:start + step]]
        err = np.abs(blk[:, lattice.conj_idx] - np.conj(blk)).max(axis=(1, 2))
        bad = err > 1e-10 * np.maximum(1.0, np.abs(blk).max(axis=(1, 2)))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{where(int(paired[start + i]))}conjugate-mode pairing "
                             f"violated (error {err[i]:.2e})")
    return out


def field_from_doc(doc: dict, lattice: Lattice) -> SpectralField:
    """Inverse of field_to_doc on a given lattice; conjugates filled by pairing.

    Rows are read as _rows reads them, and each coefficient must be
    orthogonal to its wave vector; the rest is checked as
    SpectralField.from_modes checks it.  A mean, when present, is one more
    such row of three numbers; an absent mean is zero.  A missing "modes"
    raises KeyError.
    """
    ks, parts, mean = _doc_rows(doc)
    return SpectralField(lattice, _fields_of(lattice, [len(ks)], ks, parts)[0], mean)
