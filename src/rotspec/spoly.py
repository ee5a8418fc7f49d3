"""Oscillating-polynomial algebra over spectral fields.

Terms are complex exponentials t^m exp(i w t) c attached to a lattice mode;
real trigonometric sums arise through the conjugate pairing
(-k, m, -w, conj(c)).  Frequencies are formal: exact rational combinations
over square roots of squarefree integers (the rotation lattice contributes
Omega * k3til, and sqrt(k3^2/|k|^2) rationalizes to (a/q) sqrt(s)), plus
ad-hoc generators for caller-supplied values.  Distinct formal keys are
never merged on numeric proximity: they stay distinct terms however close
their values.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .lattice import Lattice, squarefree_decompose
from .fields import SpectralField, _triads

__all__ = [
    "Frequency",
    "SPoly",
    "mode_rotation_frequency",
    "integrate_term",
    "ode_solve",
    "antiderivative",
    "apply_expS_spoly",
    "bilinear_spoly",
    "OdeResonanceError",
    "spoly_to_doc",
    "spoly_to_json",
    "spoly_from_json",
]


class OdeResonanceError(ValueError):
    """A numerically degenerate gamma = beta + i*omega that is not an exact resonance."""


# ---------------------------------------------------------------------------
# formal frequencies


class Frequency:
    """Exact rational combination of frequency generators.

    Each component is (key, coef, unit): `key` identifies the generator
    (("rot", s) for Omega*sqrt(s), s squarefree, or ("user", num, den) for an
    ad-hoc value), `coef` is a Fraction and `unit` the generator's numeric
    value.  Equality and hashing use only (key, coef); numeric value is the
    exact sum coef*unit.  The identity tuple of (key, coef) pairs and its hash
    are computed once, when the object is built.
    """

    __slots__ = ("parts", "value", "_id", "_hash")

    def __init__(self, parts: Iterable[Tuple[tuple, Fraction, float]] = ()):
        merged: Dict[tuple, Tuple[Fraction, float]] = {}
        for key, coef, unit in parts:
            coef = Fraction(coef)
            if key in merged:
                old_coef, old_unit = merged[key]
                if abs(old_unit - unit) > 1e-12 * max(1.0, abs(unit)):
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
        self._id = tuple((key, coef) for key, coef, _ in self.parts)
        self._hash = hash(self._id)

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

    @staticmethod
    def user(value: float) -> "Frequency":
        if value == 0.0:
            return _FREQ_ZERO
        f = Fraction(abs(value))
        sgn = 1 if value > 0 else -1
        return Frequency([(("user", f.numerator, f.denominator), Fraction(sgn), abs(value))])

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
        f._id = tuple((key, -coef) for key, coef in self._id)
        f._hash = hash(f._id)
        return f

    def __sub__(self, other: "Frequency") -> "Frequency":
        return self + (-other)

    def scale(self, factor: Fraction | int) -> "Frequency":
        factor = Fraction(factor)
        if factor == 0:
            return _FREQ_ZERO
        return Frequency([(key, coef * factor, unit) for key, coef, unit in self.parts])

    def __eq__(self, other):
        return self is other or (isinstance(other, Frequency) and self._hash == other._hash
                                 and self._id == other._id)

    def __hash__(self):
        return self._hash

    def __lt__(self, other: "Frequency"):
        return self._id < other._id

    def __repr__(self):
        if not self.parts:
            return "Frequency(0)"
        bits = "+".join(f"{coef}*{key}" for key, coef, _ in self.parts)
        return f"Frequency({bits}={self.value:.6g})"


_FREQ_ZERO = Frequency.__new__(Frequency)
_FREQ_ZERO.parts = ()
_FREQ_ZERO.value = 0.0
_FREQ_ZERO._id = ()
_FREQ_ZERO._hash = hash(_FREQ_ZERO._id)


def mode_rotation_frequency(lattice: Lattice, mode: int, omega: float) -> Frequency:
    """Elementary frequency Omega*k3til for one lattice mode (zero if k3 = 0)."""
    return Frequency.rotation(lattice.freq_sqfree[mode], lattice.freq_coef[mode], omega)


# ---------------------------------------------------------------------------
# closed-form antiderivative of t^m e^{at} {cos,sin}(wt)


def integrate_term(m: int, alpha: float, omega: float) -> np.ndarray:
    """Coefficient matrices of the closed-form antiderivative.

    Returns C with shape (m+1, 2, 2) such that, writing
    I(t) = (e^{alpha t} cos(omega t), e^{alpha t} sin(omega t))^T,

        integral t^m I(t) dt = sum_n t^n  C[n] I(t)   (+ constant),

    with C[n] = (-1)^(m-n) (m!/n!) * Dm1^(m+1-n) and Dm1 the inverse
    derivative matrix [[alpha, omega], [-omega, alpha]] / (alpha^2+omega^2).
    Requires alpha^2 + omega^2 > 0; the pure power t^m has no such form.
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    denom = alpha * alpha + omega * omega
    if denom == 0.0:
        raise ValueError("alpha = omega = 0: antiderivative is the monomial t^(m+1)/(m+1)")
    dm1 = np.array([[alpha, omega], [-omega, alpha]]) / denom
    out = np.empty((m + 1, 2, 2))
    fact = 1.0  # m!/n!, built downward from n = m
    for n in range(m, -1, -1):
        sign = -1.0 if (m - n) % 2 else 1.0
        out[n] = sign * fact * np.linalg.matrix_power(dm1, m + 1 - n)
        if n > 0:
            fact *= n
    return out


# ---------------------------------------------------------------------------
# vector-valued polynomials on lattice modes


TermKey = Tuple[Tuple[int, int, int], int, Frequency]


class SPoly:
    """Finite sum of terms t^m exp(i w t) c_k attached to lattice modes.

    The term map is canonical: duplicate keys are merged on construction and
    exactly-zero coefficients dropped.  Reality is a property of the data
    (enforced by the operations, checkable via `reality_error`), not of the
    container.
    """

    __slots__ = ("lattice", "terms")

    def __init__(self, lattice: Lattice,
                 terms: Optional[Dict[TermKey, np.ndarray]] = None):
        self.lattice = lattice
        self.terms: Dict[TermKey, np.ndarray] = {}
        if terms:
            for key, c in terms.items():
                c = np.asarray(c, dtype=complex)
                if not np.any(c):
                    continue
                if key in self.terms:
                    s = self.terms[key] + c
                    if np.any(s):
                        self.terms[key] = s
                    else:
                        del self.terms[key]
                else:
                    self.terms[key] = c

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(lattice: Lattice) -> "SPoly":
        return SPoly(lattice)

    @staticmethod
    def from_field(u: SpectralField, m: int = 0,
                   freq: Optional[Frequency] = None) -> "SPoly":
        """Constant-in-time polynomial t^m e^{iwt} u (freq defaults to 0)."""
        freq = freq or Frequency.zero()
        terms = {}
        for i in range(u.lattice.n_modes):
            c = u.coeffs[i]
            if np.any(c):
                k = tuple(int(x) for x in u.lattice.ks[i])
                terms[(k, m, freq)] = c.copy()
        return SPoly(u.lattice, terms)

    def copy(self) -> "SPoly":
        return SPoly(self.lattice, {k: c.copy() for k, c in self.terms.items()})

    # -- bookkeeping --------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def n_terms(self) -> int:
        return len(self.terms)

    def max_abs(self) -> float:
        if not self.terms:
            return 0.0
        return max(float(np.abs(c).max()) for c in self.terms.values())

    def degree(self) -> int:
        return max((m for (_, m, _) in self.terms), default=0)

    def support_lams(self) -> List[Fraction]:
        lams = {self.lattice.lam[self.lattice.mode_index[k]] for (k, _, _) in self.terms}
        return sorted(lams)

    def reality_error(self) -> float:
        err = 0.0
        for (k, m, f), c in self.terms.items():
            kk = tuple(-x for x in k)
            partner = self.terms.get((kk, m, -f))
            if partner is None:
                err = max(err, float(np.abs(c).max()))
            else:
                err = max(err, float(np.abs(partner - np.conj(c)).max()))
        return err

    # -- linear structure ---------------------------------------------------
    def __add__(self, other: "SPoly") -> "SPoly":
        terms = {k: c.copy() for k, c in self.terms.items()}
        out = SPoly(self.lattice, terms)
        for key, c in other.terms.items():
            cur = out.terms.get(key)
            s = c if cur is None else cur + c
            if np.any(s):
                out.terms[key] = s.copy() if cur is None else s
            elif cur is not None:
                del out.terms[key]
        return out

    def __sub__(self, other: "SPoly") -> "SPoly":
        return self + other.scale(-1.0)

    def scale(self, a: complex) -> "SPoly":
        if a == 0:
            return SPoly.zero(self.lattice)
        return SPoly(self.lattice, {k: c * a for k, c in self.terms.items()})

    __neg__ = lambda self: self.scale(-1.0)

    def apply_mode_weights(self, weights: np.ndarray) -> "SPoly":
        """Multiply each term by a per-mode scalar weight (e.g. Stokes eigenvalue)."""
        idx = self.lattice.mode_index
        return SPoly(self.lattice, {
            key: c * weights[idx[key[0]]] for key, c in self.terms.items()
        })

    def apply_stokes(self) -> "SPoly":
        return self.apply_mode_weights(self.lattice.lam_f)

    def restrict_shell(self, lam) -> "SPoly":
        lam = Fraction(lam)
        idx = self.lattice.mode_index
        return SPoly(self.lattice, {
            key: c for key, c in self.terms.items()
            if self.lattice.lam[idx[key[0]]] == lam
        })

    # -- reparametrizations --------------------------------------------------
    def time_shift(self, T: float) -> "SPoly":
        """f(t) -> f(t + T), expanded back into canonical terms."""
        if T == 0.0:
            return self.copy()
        out: Dict[TermKey, np.ndarray] = {}
        for (k, m, f), c in self.terms.items():
            base = c * np.exp(1j * f.value * T)
            for n in range(m + 1):
                cn = math.comb(m, n) * T ** (m - n) * base
                key = (k, n, f)
                out[key] = out.get(key, 0.0) + cn
        return SPoly(self.lattice, out)

    def differentiate(self) -> "SPoly":
        out: Dict[TermKey, np.ndarray] = {}
        for (k, m, f), c in self.terms.items():
            if m >= 1:
                key = (k, m - 1, f)
                out[key] = out.get(key, 0.0) + m * c
            if not f.is_zero:
                key = (k, m, f)
                out[key] = out.get(key, 0.0) + 1j * f.value * c
        return SPoly(self.lattice, out)

    # -- evaluation ---------------------------------------------------------
    def evaluate(self, t: float) -> SpectralField:
        u = SpectralField(self.lattice)
        idx = self.lattice.mode_index
        for (k, m, f), c in self.terms.items():
            u.coeffs[idx[k]] += (t**m) * np.exp(1j * f.value * t) * c
        return u

    def evaluate_many(self, ts: np.ndarray) -> np.ndarray:
        """Coefficient array of shape (len(ts), M, 3)."""
        ts = np.asarray(ts, dtype=float)
        out = np.zeros((len(ts), self.lattice.n_modes, 3), dtype=complex)
        idx = self.lattice.mode_index
        series: Dict[Tuple[int, Frequency], np.ndarray] = {}  # one per distinct (m, f)
        for (k, m, f), c in self.terms.items():
            s = series.get((m, f))
            if s is None:
                s = series[(m, f)] = (ts**m * np.exp(1j * f.value * ts))[:, None]
            out[:, idx[k], :] += s * c[None, :]
        return out

    def __repr__(self):
        return f"SPoly(terms={len(self.terms)}, deg={self.degree()}, max={self.max_abs():.3g})"


# ---------------------------------------------------------------------------
# wave-group action and the rotated bilinear form on polynomials


def apply_expS_spoly(f: SPoly, omega: float) -> SPoly:
    """exp(Omega t S) f, expanded into shifted frequencies.

    Per mode, the plane rotation by Omega*k3til*t splits each term into the
    two circular components (c -/+ i J_k c)/2 at frequencies w +/- g_k.
    Modes with k3 = 0 are untouched.
    """
    if omega == 0.0:
        return f.copy()
    lat = f.lattice
    out: Dict[TermKey, np.ndarray] = {}
    idx = lat.mode_index
    rotations: Dict[Tuple[int, Fraction], Frequency] = {}
    shifted: Dict[Tuple[Frequency, int, Fraction], Tuple[Frequency, Frequency]] = {}
    for (k, m, w), c in f.terms.items():
        i = idx[k]
        coef = lat.freq_coef[i]
        if coef == 0:
            out[(k, m, w)] = out.get((k, m, w), 0.0) + c
            continue
        sqfree = lat.freq_sqfree[i]
        pair = shifted.get((w, sqfree, coef))
        if pair is None:
            g = rotations.get((sqfree, coef))
            if g is None:
                g = rotations[(sqfree, coef)] = Frequency.rotation(sqfree, coef, omega)
            pair = shifted[(w, sqfree, coef)] = (w + g, w - g)
        jc = lat.jk[i] @ c
        plus = 0.5 * (c - 1j * jc)
        minus = 0.5 * (c + 1j * jc)
        for freq, val in zip(pair, (plus, minus)):
            key = (k, m, freq)
            out[key] = out.get(key, 0.0) + val
    return SPoly(lat, out)


def _pair_table(lattice: Lattice) -> np.ndarray:
    """(M, M) index of the mode k_a + k_b, -1 off the lattice.  Cached per lattice."""
    table = getattr(lattice, "_pair_table", None)
    if table is None:
        im, ij, io = _triads(lattice)
        table = np.full((lattice.n_modes, lattice.n_modes), -1, dtype=np.intp)
        table[im, ij] = io
        lattice._pair_table = table
    return table


def _term_columns(f: SPoly, freq_ids: Dict[Frequency, int]):
    """Mode index, degree, (T,3) coefficients and interned frequency id per term."""
    idx = f.lattice.mode_index
    modes, degs, wids = [], [], []
    for (k, m, w) in f.terms:
        modes.append(idx[k])
        degs.append(m)
        wids.append(freq_ids.setdefault(w, len(freq_ids)))
    return (np.array(modes, dtype=np.intp), np.array(degs, dtype=np.intp),
            np.array(list(f.terms.values())), np.array(wids, dtype=np.intp))


# candidate term pairs gathered at once: rows of f are joined in blocks
_PAIR_BLOCK = 1 << 16


def bilinear_spoly(f: SPoly, g: SPoly, omega: float) -> SPoly:
    """Symbolic rotated advection B_Omega(t, f(t), g(t)) on the Galerkin set.

    The term pairs are joined through the lattice's table of mode sums and
    visited in the order of a double loop over the terms of f, then g.  Each
    output key sums its contributions in that order and keys appear in order
    of first contribution, so the result does not depend on the block size.
    """
    lat = f.lattice
    table = _pair_table(lat)
    fr = apply_expS_spoly(f, -omega)
    gr = apply_expS_spoly(g, -omega)
    if fr.is_zero or gr.is_zero:
        return SPoly.zero(lat)
    freq_ids: Dict[Frequency, int] = {}
    mode1, deg1, c1, w1 = _term_columns(fr, freq_ids)
    mode2, deg2, c2, w2 = _term_columns(gr, freq_ids)
    freqs = list(freq_ids)
    n_w, n_deg, M = len(freqs), int(deg1.max() + deg2.max()) + 1, lat.n_modes

    sum_ids: Dict[int, int] = {}  # w1 * n_w + w2 -> index in out_freqs
    out_freqs: Dict[Frequency, int] = {}

    def sum_id(p: int) -> int:
        if p not in sum_ids:
            w = freqs[p // n_w] + freqs[p % n_w]
            sum_ids[p] = out_freqs.setdefault(w, len(out_freqs))
        return sum_ids[p]

    slots: Dict[int, int] = {}  # output key code -> row of acc, first-contribution order
    acc = np.zeros((0, 3), dtype=complex)
    rows = max(1, _PAIR_BLOCK // len(mode2))
    for start in range(0, len(mode1), rows):
        block = table[mode1[start:start + rows, None], mode2[None, :]]
        a, b = np.nonzero(block >= 0)  # row-major: the double loop's order
        o = block[a, b]
        a += start
        # matmul gives np.dot's BLAS result bit for bit; einsum can differ in the last bit
        dot = 1j * np.matmul(c1[a, None, :], lat.kcheck[o, :, None])[:, 0, 0]
        live = dot != 0
        a, b, o, dot = a[live], b[live], o[live], dot[live]
        val = dot[:, None] * np.matmul(lat.proj[o], c2[b, :, None])[:, :, 0]

        wpair, winv = np.unique(w1[a] * n_w + w2[b], return_inverse=True)
        wout = np.array([sum_id(p) for p in wpair.tolist()], dtype=np.intp)[winv]

        code = (wout * n_deg + deg1[a] + deg2[b]) * M + o
        ucode, first, inv = np.unique(code, return_index=True, return_inverse=True)
        row = np.empty(len(ucode), dtype=np.intp)
        for u in np.argsort(first).tolist():
            row[u] = slots.setdefault(int(ucode[u]), len(slots))
        if len(slots) > len(acc):
            grown = np.zeros((max(len(slots), 2 * len(acc)), 3), dtype=complex)
            grown[:len(acc)] = acc
            acc = grown
        np.add.at(acc, row[inv], val)

    ks = lat.ks.tolist()
    wlist = list(out_freqs)
    terms: Dict[TermKey, np.ndarray] = {}
    for code, r in slots.items():
        wm, o = divmod(code, M)
        wi, m = divmod(wm, n_deg)
        terms[(tuple(ks[o]), m, wlist[wi])] = acc[r]
    return apply_expS_spoly(SPoly(lat, terms), omega)


# ---------------------------------------------------------------------------
# the three-branch mode ODE  q' + beta q = p


def ode_solve(beta, p: SPoly, xi0: Optional[SpectralField] = None) -> SPoly:
    """Unique decaying/bounded polynomial solution of q' + beta*q = p.

    beta > 0 and beta < 0 give the unique polynomial solution (growing or
    decaying homogeneous parts excluded); beta = 0 integrates from 0 and
    pins q(0) = xi0 on every mode (xi0 defaults to zero).  The resonance
    test beta == 0 is exact when beta is a Fraction/int.  A pure-power term
    with beta = 0 raises the degree (monomial rule); any other numerically
    vanishing gamma = beta + i w is rejected.
    """
    lat = p.lattice
    resonant = beta == 0
    bf = float(beta)
    out: Dict[TermKey, np.ndarray] = {}

    def add(key, val):
        out[key] = out.get(key, 0.0) + val

    for (k, m, w), c in p.terms.items():
        if resonant and w.is_zero:
            add((k, m + 1, w), c / (m + 1))
            continue
        gamma = bf + 1j * w.value
        if abs(gamma) < 1e-9 * max(1.0, abs(bf)):
            raise OdeResonanceError(
                f"gamma = beta + i*omega = {gamma} is numerically degenerate for "
                f"term (k={k}, m={m}, w={w!r}) but not an exact resonance"
            )
        a = c / gamma
        add((k, m, w), a)
        for n in range(m - 1, -1, -1):
            a = -(n + 1) * a / gamma
            add((k, n, w), a)

    q = SPoly(lat, out)
    if resonant:
        # pin q(0): add a constant on each mode so initial data matches xi0
        target = np.zeros((lat.n_modes, 3), dtype=complex)
        if xi0 is not None:
            target = xi0.coeffs.astype(complex)
        init = q.evaluate(0.0).coeffs
        delta = target - init
        extra: Dict[TermKey, np.ndarray] = {}
        for i in range(lat.n_modes):
            d = delta[i]
            if np.any(d):
                k = tuple(int(x) for x in lat.ks[i])
                extra[(k, 0, Frequency.zero())] = d
        q = q + SPoly(lat, extra)
    return q


def antiderivative(p: SPoly) -> SPoly:
    """The antiderivative F with F(0) = 0 (closed form, exact)."""
    return ode_solve(0, p)


# ---------------------------------------------------------------------------
# JSON interchange


def _freq_doc(f: Frequency) -> dict:
    combo = []
    for key, coef, unit in f.parts:
        if key[0] == "rot":
            combo.append({"kind": "rot", "s": key[1], "coef": str(coef), "unit": unit})
        else:
            combo.append({"kind": "user", "num": key[1], "den": key[2],
                          "coef": str(coef), "unit": unit})
    return {"combo": combo, "value": f.value}


def _freq_from_doc(doc: dict) -> Frequency:
    parts = []
    for c in doc["combo"]:
        if c["kind"] == "rot":
            parts.append((("rot", int(c["s"])), Fraction(c["coef"]), float(c["unit"])))
        else:
            parts.append((("user", int(c["num"]), int(c["den"])),
                          Fraction(c["coef"]), float(c["unit"])))
    return Frequency(parts)


def spoly_to_doc(f: SPoly) -> dict:
    """JSON-ready document of f: lattice periods and cutoff, terms sorted by key."""
    terms = []
    for (k, m, w), c in sorted(f.terms.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])):
        terms.append({
            "k": list(k),
            "m": m,
            "omega": _freq_doc(w),
            "re": [float(x) for x in c.real],
            "im": [float(x) for x in c.imag],
        })
    return {
        "L": [float(x) for x in f.lattice.L],
        "cutoff": str(f.lattice.cutoff),
        "terms": terms,
    }


def spoly_to_json(f: SPoly) -> str:
    return json.dumps(spoly_to_doc(f), sort_keys=True)


def spoly_from_json(text: str, lattice: Lattice) -> SPoly:
    doc = json.loads(text)
    terms: Dict[TermKey, np.ndarray] = {}
    for td in doc["terms"]:
        key = (tuple(int(x) for x in td["k"]), int(td["m"]), _freq_from_doc(td["omega"]))
        c = np.array(td["re"], dtype=float) + 1j * np.array(td["im"], dtype=float)
        terms[key] = terms.get(key, 0.0) + c
    return SPoly(lattice, terms)
