import hashlib
import io
import json
import math
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rotspec
import rotspec.fields
from rotspec.fields import (SpectralField, _closed_frame, _complex_ops, _lattice_frame, _rotate,
                            _rotate_by, advect, random_gevrey)
from rotspec.lattice import build_lattice
from rotspec.special import VkData
from rotspec.solver import (
    SolverConfig,
    Trajectory,
    config_hash,
    energy_report,
    integrate,
    trajectory_from_jsonl,
    trajectory_to_jsonl,
    transform_trajectory,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(form="w")
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(t_end=0.0, t0=1.0)
    with pytest.raises(ValueError):
        SolverConfig(record_stride=0)
    # every recorded gap is record_stride * dt, or the config is refused
    with pytest.raises(ValueError, match=re.escape(
            "(t_end - t0)/dt = 5.5 is not a whole number of steps")):
        SolverConfig(dt=0.1, t_end=0.55)
    with pytest.raises(ValueError, match="is not a whole number of steps"):
        SolverConfig(dt=0.1, t_end=1.0, t0=0.02)
    with pytest.raises(ValueError, match="record_stride 7 does not divide the 50 steps"):
        SolverConfig(dt=0.01, t_end=0.5, record_stride=7)


@pytest.mark.parametrize("key, value", [("dt", math.inf), ("dt", math.nan), ("omega", math.nan),
                                        ("omega", math.inf), ("omega", -math.inf)])
def test_config_rates_must_be_finite(key, value):
    """A non-finite step or rotation rate is refused: dt = inf would take
    no step at all, and omega = nan would integrate NaN angles."""
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        SolverConfig(**{key: value})


def test_config_needs_a_step():
    """A span that underflows to zero steps is refused, not run as a
    trajectory of one sample."""
    assert (5e-324 - 0.0) / 1e300 == 0.0
    with pytest.raises(ValueError, match="takes no step"):
        SolverConfig(dt=1e300, t_end=5e-324)


def _ray_field(lat):
    # harmonics of a single direction: the nonlinearity vanishes identically
    return SpectralField.from_modes(lat, {
        (1, 0, 0): [0.0, 0.3 + 0.1j, -0.2j],
        (2, 0, 0): [0.0, -0.05j, 0.04],
    })


def test_integrate_stops_at_first_nonfinite_state(cube6):
    u0 = random_gevrey(cube6, seed=1, amplitude=1e4)
    config = SolverConfig(dt=1e-2, t_end=1.0, omega=5.0, form="v")
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"after step 3 of 100 \(t = 0\.03\)"):
        integrate(u0, config)


def test_linear_exactness_u_form(cube6):
    """Ray data kills the nonlinearity, so even huge steps are exact."""
    u0 = _ray_field(cube6)
    om = 7.0
    traj = integrate(u0, SolverConfig(dt=0.25, t_end=1.0, omega=om, form="u"))
    for i, t in enumerate(traj.times):
        decayed = SpectralField(cube6, u0.coeffs * np.exp(-cube6.lam_f * t)[:, None])
        expected = _rotate_by(cube6, decayed.coeffs, 1.0, -om * t)
        np.testing.assert_allclose(traj.coeffs[i], expected, atol=1e-15)


def test_linear_exactness_v_form(cube6):
    u0 = _ray_field(cube6)
    traj = integrate(u0, SolverConfig(dt=0.25, t_end=1.0, omega=7.0, form="v"))
    for i, t in enumerate(traj.times):
        np.testing.assert_allclose(
            traj.coeffs[i], u0.coeffs * np.exp(-cube6.lam_f * t)[:, None], atol=1e-15)


def test_steps_round_to_the_nearest_whole_number(cube6):
    """A span just above a whole number, inside the 1e-12 tolerance, takes
    that whole number of steps of exactly dt."""
    config = SolverConfig(dt=0.0004911591355599212, t_end=1.0, form="v", record_stride=4)
    span = (config.t_end - config.t0) / config.dt
    assert span > 2036 + 1e-12 and config.n_steps == 2036
    traj = integrate(_ray_field(build_lattice(cutoff=4)), config)
    assert traj.n_samples == 1 + 2036 // 4
    np.testing.assert_array_equal(traj.times, np.arange(0, 2037, 4) * config.dt)


def _transform_reference(traj, sign):
    """The per-sample loop: rotate each record by sign * Omega * k3til * t."""
    lat = traj.lattice
    out = np.empty_like(traj.coeffs)
    for i, t in enumerate(traj.times):
        theta = sign * traj.omega * lat.kt3 * t
        rot = np.einsum("mij,mj->mi", lat.jk, traj.coeffs[i])
        out[i] = np.cos(theta)[:, None] * traj.coeffs[i] + np.sin(theta)[:, None] * rot
    return out


def test_form_equivalence(cube_run):
    """The u- and v-runs are the same discrete flow seen through exp(Omega t S)."""
    trajv, traju = cube_run["trajv"], cube_run["traju"]
    tv = transform_trajectory(traju, "v")
    assert tv.form == "v"
    np.testing.assert_allclose(tv.coeffs, trajv.coeffs, atol=1e-14)
    back = transform_trajectory(tv, "u")
    np.testing.assert_allclose(back.coeffs, traju.coeffs, atol=1e-15)
    # the stacked rotation gives the per-sample loop's bits
    for got, src, sign in ((tv, traju, 1.0), (back, tv, -1.0)):
        np.testing.assert_array_equal(got.coeffs.view(np.uint64),
                                      _transform_reference(src, sign).view(np.uint64))
    assert transform_trajectory(trajv, "v") is trajv
    np.testing.assert_allclose(traju.norms(), trajv.norms(), atol=1e-14)


def test_energy_decay(cube_run):
    E = 0.5 * cube_run["trajv"].norms() ** 2
    mask = E[:-1] > 1e-13
    assert np.all(np.diff(E)[mask] < 0)
    assert E[-1] < 1e-10 * E[0]


def test_energy_report(cube_run):
    rep = energy_report(cube_run["trajv"])
    assert rep["max_abs_residual"] < 1e-12
    assert rep["max_abs_integral_residual"] < 1e-10
    assert len(rep["t"]) == cube_run["trajv"].n_samples - 6
    assert rep["energy"][0] == pytest.approx(0.5 * 0.1**2, rel=1e-12)
    # dissipation >= 2 * energy: smallest eigenvalue is 1
    assert np.all(rep["dissipation"] >= 2.0 * rep["energy"] - 1e-15)


LAT2 = build_lattice(cutoff=2)
U2 = random_gevrey(LAT2, seed=1)


@given(st.one_of(st.integers(-10**6, 10**6).map(float), st.floats(-1e6, 1e6)),
       st.one_of(st.sampled_from([2.0**-7, 0.25, 0.01, 0.005, 1e-3, 0.3]),
                 st.floats(1e-3, 1.0)),
       st.integers(1, 4), st.integers(1, 30))
@example(1e6, 0.01, 1, 100)
@settings(deadline=None, max_examples=60)
def test_every_accepted_run_is_uniformly_spaced(t0, dt, stride, records):
    """Whenever SolverConfig accepts a run, up to t0 = 1e6, the times
    integrate records pass Trajectory.uniform_spacing, and so energy_report's
    and expand's spacing check: each t0 + k dt is rounded to the resolution
    of the times, a few ulp of max|t|, which at t0 = 1e6 is about 1e-8 of a
    gap of 0.01."""
    n = stride * records
    try:
        config = SolverConfig(dt=dt, t0=t0, t_end=t0 + n * dt, omega=5.0, form="u",
                              record_stride=stride)
    except ValueError:
        return
    traj = integrate(U2, config)
    assert traj.uniform_spacing(traj.n_samples) > 0


def test_energy_report_input_checks(cube6):
    C = np.zeros((4, cube6.n_modes, 3), dtype=complex)
    with pytest.raises(ValueError):
        energy_report(Trajectory(cube6, "v", 0.0, np.linspace(0, 1, 4), C))
    bad_t = np.array([0.0, 0.1, 0.2, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8])
    C = np.zeros((9, cube6.n_modes, 3), dtype=complex)
    with pytest.raises(ValueError):
        energy_report(Trajectory(cube6, "v", 0.0, bad_t, C))
    # a NaN gap compares false against the spread tolerance; it must still fail
    nan_t = np.where(np.arange(9) == 4, np.nan, np.linspace(0.0, 0.8, 9))
    with pytest.raises(ValueError, match="uniformly spaced samples at finite, increasing"):
        energy_report(Trajectory(cube6, "v", 0.0, nan_t, C))


@given(st.integers(3, 700), st.sampled_from(["line", "stack", "parts"]), st.booleans(),
       st.integers(0, 2**32 - 1))
@example(3, "line", False, 0)
@example(4, "parts", True, 1)
@example(601, "parts", False, 2)
@settings(deadline=None, max_examples=60)
def test_cumulative_simpson_is_scipys_bit_for_bit(n_samples, kind, jitter, seed):
    """_cumulative_simpson is scipy's cumulative_simpson(y, x=ts, axis=0,
    initial=0.0) in every bit, signed zeros included, and in its strides:
    on (R,) lines, on C-ordered (R, n, 3) stacks, and on the non-contiguous
    .real and .imag views of a complex stack that the resonant fit passes,
    at uniform times t0 + k dt and at jittered ones."""
    from scipy.integrate import cumulative_simpson

    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.2, 1.8, n_samples) if jitter else np.ones(n_samples)
    ts = rng.uniform(-10.0, 10.0) + 0.01 * np.cumsum(gaps)
    shape = (n_samples,) if kind == "line" else (n_samples, int(rng.integers(1, 9)), 3)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    z[rng.random(shape) < 0.1] = complex(-0.0, -0.0)
    z[rng.random(shape) < 0.1] = 0.0
    ys = [z.real, z.imag] if kind == "parts" else [np.ascontiguousarray(z.real)]
    for y in ys:
        ours = rotspec.solver._cumulative_simpson(y, ts)
        ref = cumulative_simpson(y, x=ts, axis=0, initial=0.0)
        assert ours.dtype == ref.dtype and ours.strides == ref.strides
        assert np.array_equal(ours, ref)
        assert np.array_equal(np.signbit(ours), np.signbit(ref))


def test_cumulative_simpson_refuses_what_it_cannot_integrate():
    """Times that do not strictly increase, scipy's refusal too; fewer than
    3 samples, where scipy falls back to the trapezoid rule; and a y that
    is not one row per time."""
    quad = rotspec.solver._cumulative_simpson
    y = np.ones(5)
    for ts in ([0.0, 0.1, 0.1, 0.3, 0.4], [0.0, 0.1, 0.2, 0.15, 0.4],
               [0.0, 0.1, np.nan, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1, 0.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            quad(y, np.array(ts))
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match="at least 3 samples"):
            quad(np.ones((n, 4, 3)), np.arange(n, dtype=float))
    with pytest.raises(ValueError, match="at least 3 samples"):
        quad(np.ones(4), np.arange(5.0))
    with pytest.raises(ValueError, match="at least 3 samples"):
        quad(np.ones((5, 5)), np.ones((5, 5)))


def test_record_stride(cube6):
    v0 = random_gevrey(cube6, seed=3, amplitude=0.05)
    cfg = dict(dt=1e-2, t_end=0.5, omega=2.0, form="v")
    dense = integrate(v0, SolverConfig(record_stride=1, **cfg))
    sparse = integrate(v0, SolverConfig(record_stride=5, **cfg))
    assert sparse.n_samples == 11
    assert sparse.times[0] == 0.0
    assert sparse.times[-1] == dense.times[-1]
    for i, t in enumerate(sparse.times):
        j = int(np.argmin(np.abs(dense.times - t)))
        assert dense.times[j] == pytest.approx(t, abs=1e-14)
        np.testing.assert_array_equal(sparse.coeffs[i], dense.coeffs[j])


def test_norms_match_field_norm(cube_run):
    traj = cube_run["trajv"]
    ns = traj.norms(0.5, 0.3)
    for i in (0, 1000, traj.n_samples - 1):
        assert ns[i] == pytest.approx(traj.field(i).norm(0.5, 0.3), rel=1e-12)


def test_jsonl_roundtrip(cube6):
    v0 = random_gevrey(cube6, seed=4, amplitude=0.08)
    traj = integrate(v0, SolverConfig(dt=5e-3, t_end=0.2, omega=1.5, form="v"))
    doc = {"solver": {"dt": 5e-3}, "omega": 1.5}
    buf = io.StringIO()
    trajectory_to_jsonl(traj, buf, config_doc=doc, gevrey=[(0.0, 1.0), (0.5, 0.0)])
    buf.seek(0)
    back, meta = trajectory_from_jsonl(buf)
    assert meta["form"] == "v"
    assert meta["omega"] == 1.5
    assert meta["dt"] == 5e-3
    assert meta["version"] == rotspec.__version__
    assert meta["config"] == doc
    assert meta["config_hash"] == config_hash(doc)
    assert meta["config_hash"] == hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert meta["gevrey_indices"] == [[0.0, 1.0], [0.5, 0.0]]
    assert back.lattice.ell == cube6.ell
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_allclose(back.coeffs, traj.coeffs, atol=0.0)  # exact float repr

    # every record norm is the one Gevrey norm of its sample, bit for bit,
    # whether taken over the stacked trajectory or one field
    buf.seek(0)
    recs = [json.loads(line)["norms"] for line in buf.read().splitlines()[1:]]
    columns = [((0.0, 0.0), [r["l2"] for r in recs]), ((0.5, 0.0), [r["h1"] for r in recs])]
    columns += [(g, [r["gevrey"][j] for r in recs])
                for j, g in enumerate([(0.0, 1.0), (0.5, 0.0)])]
    for (a, s), got in columns:
        assert got == traj.norms(a, s).tolist()
        assert got == [traj.field(i).norm(a, s) for i in range(traj.n_samples)]


def test_writer_refuses_a_non_finite_sample(cube6):
    """orjson would write NaN as null, which reads back as no number, so the
    writer refuses the stack, naming the first non-finite sample, before it
    writes a byte."""
    u = random_gevrey(cube6, seed=2)
    coeffs = np.stack([u.coeffs] * 3)
    coeffs[1, 5, 0] = np.nan
    traj = Trajectory(cube6, "v", 1.0, [0.0, 0.5, 1.0], coeffs, dt=0.5)
    buf = io.StringIO()
    with pytest.raises(ValueError, match=re.escape("trajectory sample 1 (t = 0.5) holds")):
        trajectory_to_jsonl(traj, buf)
    assert buf.getvalue() == ""


RT_LATTICES = {"cube": build_lattice(cutoff=3), "ell": build_lattice(ell=(1, 1, "1/2"), cutoff=3)}


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@given(st.sampled_from(sorted(RT_LATTICES)), st.sampled_from(["u", "v"]), st.integers(0, 2**16),
       st.floats(-300.0, 300.0), st.floats(-1e6, 1e6), st.floats(1e-6, 10.0),
       st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(["subnormal", "-0", "mixed"])),
                max_size=6), st.booleans())
@settings(deadline=None, max_examples=60)
def test_jsonl_round_trip_is_bit_exact(name, form, seed, log_amp, t0, dt, edits, minus_zeros):
    """Random-gevrey stacks scaled by 1e-300 to 1e300, with some conjugate
    pairs set to subnormals, -0.0 or a mix, and optionally every zero part
    made -0.0, read back bit for bit: the
    coefficients, the times, and the norms recorded and recomputed.  A
    mode written with no non-zero part reads back as +0.0, as the format
    writes no zero mode.  The same records spelled by stdlib json.dumps, as
    earlier versions wrote them, read back to the same bits.  A stack whose
    norms overflow is refused before a byte is written."""
    lat = RT_LATTICES[name]
    rep, conj = np.flatnonzero(lat.rep_mask), lat.conj_idx[lat.rep_mask]
    rng = np.random.default_rng(seed)
    z = np.stack([random_gevrey(lat, seed + r).coeffs[rep] for r in range(4)])
    half = np.empty_like(z)
    half.real, half.imag = z.real * 10.0 ** log_amp, z.imag * 10.0 ** log_amp
    for pick, kind in edits:  # subnormal parts stay within the orthogonality bound
        parts = rng.choice([-1, 1], (2, 3)) * rng.integers(1, 2**52, (2, 3)) * 5e-324
        if kind != "subnormal":
            parts[(rng.random((2, 3)) < 0.5) | (kind == "-0")] = -0.0
        row = (pick % len(half), pick // len(half) % len(rep))
        half.real[row], half.imag[row] = parts
    if minus_zeros:
        half.real[half.real == 0], half.imag[half.imag == 0] = -0.0, -0.0
    coeffs = np.zeros((len(half), lat.n_modes, 3), dtype=complex)
    coeffs[:, rep] = half
    coeffs[:, conj] = np.conj(half)  # exact pairs, as the reader fills them
    times = t0 + dt * np.arange(len(coeffs))
    traj = Trajectory(lat, form, 2.5, times, coeffs, dt=dt)
    gevrey = [(0.0, 1.0)]
    with np.errstate(over="ignore"):  # a norm may overflow, which the writer refuses
        norms = [traj.norms(), traj.norms(0.5, 0.0), traj.norms(0.0, 1.0)]
    buf = io.StringIO()
    if not np.isfinite(norms).all():
        with pytest.raises(ValueError, match="trajectory sample 0 "):
            trajectory_to_jsonl(traj, buf, gevrey=gevrey)
        assert buf.getvalue() == ""
        return
    trajectory_to_jsonl(traj, buf, gevrey=gevrey)
    want = coeffs.copy()
    want[~np.any(coeffs != 0, axis=-1)] = 0.0
    header, *records = buf.getvalue().splitlines()
    docs = [json.loads(line) for line in records]
    recorded = [[d["norms"]["l2"] for d in docs], [d["norms"]["h1"] for d in docs],
                [d["norms"]["gevrey"][0] for d in docs]]
    np.testing.assert_array_equal(_bits(recorded), _bits(norms))
    stdlib = "\n".join([header] + [json.dumps(d, sort_keys=True) for d in docs])
    for text in (buf.getvalue(), stdlib):
        back, meta = trajectory_from_jsonl(io.StringIO(text))
        assert (meta["form"], back.form) == (form, form)
        np.testing.assert_array_equal(back.coeffs.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(_bits(back.times), _bits(times))
        for (a, s), got in zip([(0.0, 0.0), (0.5, 0.0), (0.0, 1.0)], norms):
            np.testing.assert_array_equal(_bits(back.norms(a, s)), _bits(got))


def _read_back(traj):
    buf = io.StringIO()
    trajectory_to_jsonl(traj, buf)
    buf.seek(0)
    return trajectory_from_jsonl(buf)[0]


@pytest.mark.parametrize("kind", ["cube", "ray"])
@pytest.mark.parametrize("form", ["u", "v"])
def test_integrated_trajectory_reads_back_bit_for_bit(kind, form):
    """A trajectory integrate returns reads back from its JSON lines bit for
    bit, the sign of every zero part included: the format holds the
    representatives and the reader fills each partner with their np.conj,
    as integrate records it.  On the cutoff-6 cube and on a cutoff-10 ray,
    at Omega = 5."""
    if kind == "cube":
        u0 = random_gevrey(build_lattice(cutoff=6), seed=1, amplitude=0.1)
    else:
        u0 = VkData.random((1, 0, 1), (1, 2), 3, LAT10).field(LAT10)
    traj = integrate(u0, SolverConfig(dt=0.01, t_end=2.0, omega=5.0, form=form, record_stride=2))
    back = _read_back(traj)
    np.testing.assert_array_equal(_bits(back.times), _bits(traj.times))
    np.testing.assert_array_equal(back.coeffs.view(np.int64), traj.coeffs.view(np.int64))


def _spellings(x: float):
    """JSON spellings of the float x that json.loads reads back as x, sign
    of zero included: the shortest repr, 40 digits, the exact decimal
    expansion, the repr's digits as an integer mantissa with its exponent
    lowered by 6 and behind "0.000000" with it raised by as many, and, for
    an integral x, the integer literal.  Exponents reach about +-330."""
    sign, digits, exp = Decimal(repr(x)).as_tuple()
    m, s = "".join(map(str, digits)), "-" * sign
    out = [repr(x), f"{x:.40e}", str(Decimal(x)), f"{s}{m}000000e{exp - 6}",
           f"{s}0.000000{m}E{exp + len(m) + 6:+d}"]
    if x.is_integer():
        out.append(str(int(x)))

    def reads_as_x(t):
        try:
            return _bits(float(json.loads(t))) == _bits(x)
        except ValueError:  # a mantissa of leading zeros is no JSON number
            return False
    return [t for t in out if reads_as_x(t)]


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals and zeros
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, 1e22, 1e23]),
    st.integers(2**64, 10**300).map(float))

# spellings of zeros, of values that round into or under the subnormals and
# of integers past 2**64, each read by json.loads to a finite float or int
_EXTREME = ["-0", "0e0", "-0.0E+400", "0.0e-400", "1e-330", "-1e-330", "2.4703282292062328e-324",
            "2.4703282292062327e-324", "4.9406564584124654e-324", "1" + "0" * 25,
            "-" + "9" * 30, "18446744073709551617", "1.0000000000000001110223024625156540e0",
            "0." + "0" * 320 + "1e0"]


@given(st.lists(_NUMBERS, min_size=4, max_size=24), st.lists(st.sampled_from(_EXTREME),
                                                              max_size=6),
       st.integers(0, 2**16))
@settings(deadline=None, max_examples=60)
def test_record_parsers_read_every_spelling_to_the_same_bits(numbers, extreme, seed):
    """Record numbers spelled in every JSON form (long mantissas, exact
    decimal expansions, exponents past +-308, subnormals, -0.0 and integer
    literals past 2**64) are read by orjson.loads and json.loads to the same
    bits, and a trajectory of records spelled so reads back, through the
    reader's orjson-first path, to the bits of a stdlib-only read."""
    import orjson
    rng = np.random.default_rng(seed)
    texts = [t for x in numbers for t in _spellings(x)] + extreme
    for t in texts:
        want = json.loads(t)
        try:
            got = orjson.loads(t)
        except orjson.JSONDecodeError:
            assert not math.isfinite(float(want))  # orjson refuses past the float range only
            continue
        assert _bits(float(got)) == _bits(float(want)), t
    # a record per four spellings: mode (1,0,0), whose first component is
    # along its wave vector, holds two spelled numbers in each of its parts
    # and a zero spelling along k; t is spelled too
    lat = RT_LATTICES["cube"]
    zeros = ["-0", "0", "0e0", "-0.0", "0.0e-400", "-0E+400"]
    lines = [json.dumps({"meta": {"form": "v", "omega": 2.5, "dt": 0.5, "lattice": {
        "ell": ["1", "1", "1"], "cutoff": "3"}}})]
    for i in range(0, len(texts) - 3, 4):
        a, b, c, d = texts[i:i + 4]
        z0, z1 = rng.choice(zeros, 2)
        t = rng.choice([repr(0.5 * i), f"{0.5 * i:.30e}", str(i // 2) if i % 4 == 0 else "1e0"])
        lines.append(f'{{"field":{{"L":[1.0,1.0,1.0],"mean":[0,-0.0,0e0],"modes":[{{"k":[1,0,0],'
                     f'"re":[{z0},{a},{b}],"im":[{z1},{c},{d}]}}]}},"t":{t}}}')
    if len(lines) == 1:
        return
    text = "\n".join(lines) + "\n"
    got, _ = trajectory_from_jsonl(io.StringIO(text))

    def refuse(line):
        raise orjson.JSONDecodeError("refused", "", 0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orjson, "loads", refuse)
        want, _ = trajectory_from_jsonl(io.StringIO(text))
    np.testing.assert_array_equal(_bits(got.times), _bits(want.times))
    np.testing.assert_array_equal(got.coeffs.view(np.int64), want.coeffs.view(np.int64))


# ---------------------------------------------------------------------------
# the closed-support run against a loop over every mode

LAT10 = build_lattice(cutoff=10)
RAYS = [(1, 0, 1), (0, 1, 1), (1, 1, 1), (1, -1, 0), (1, 1, -1)]


def _rk4_reference(u0, config):
    """integrate as a loop on all M modes: the Lawson RK4 step of u, with
    the fused propagator decay (cos theta I + sin theta J_k) on every row and
    the unrotated advect per stage.  A v-form run starts from
    exp(-Omega t0 S) u0 and rotates each later record to v at its time;
    record 0 is u0.  Each later record holds the representative rows and
    their np.conj, as integrate records them.  Returns (times, records) or
    raises integrate's FloatingPointError."""
    lat = u0.lattice
    h, om, t0 = config.dt, config.omega, config.t0

    def make_prop(s):
        theta = -om * lat.kt3 * s
        op = np.exp(-s * lat.lam_f)[:, None, None] * (
            np.cos(theta)[:, None, None] * np.eye(3) + np.sin(theta)[:, None, None] * lat.jk)
        return lambda C: np.einsum("mij,mj->mi", op, C)

    def rotate(C, t, sign):
        theta = sign * om * lat.kt3 * t
        rot = np.einsum("mij,mj->mi", lat.jk, C)
        return np.cos(theta)[:, None] * C + np.sin(theta)[:, None] * rot

    def N(C):
        return -advect(lat, C, C)

    def mirrored(C):
        rep = np.flatnonzero(lat.rep_mask)
        C[lat.conj_idx[rep]] = np.conj(C[rep])
        return C

    Ph, Ph2 = make_prop(h), make_prop(0.5 * h)
    v_form = config.form == "v"
    C = u0.coeffs.astype(complex)
    times, records = [t0], [C]
    if v_form:
        C = rotate(C, t0, -1.0)
    for step in range(config.n_steps):
        a = N(C)
        b = N(Ph2(C + 0.5 * h * a))
        c = N(Ph2(C) + 0.5 * h * b)
        PC = Ph(C)
        d = N(PC + h * Ph2(c))
        C = PC + (h / 6.0) * (Ph(a) + 2.0 * Ph2(b + c) + d)
        t = t0 + (step + 1) * h
        if not np.isfinite(C).all():
            raise FloatingPointError(
                f"state is not finite after step {step + 1} of {config.n_steps} (t = {t:.6g})")
        if (step + 1) % config.record_stride == 0:
            times.append(t)
            records.append(mirrored(rotate(C, t, 1.0) if v_form else C.copy()))
    return np.array(times), np.array(records)


def _rotated_rk4_reference(u0, config):
    """The scheme of each form taken as it is written: in v-form the
    propagator is the decay alone and every stage rotates its input by
    exp(-Omega t S) and its product back (the time-dependent B_Omega); in
    u-form the propagator rotates and the stages do not.  Returns
    (times, records)."""
    lat = u0.lattice
    h, om, t0 = config.dt, config.omega, config.t0

    def make_prop(s):
        decay = np.exp(-s * lat.lam_f)[:, None]
        if config.form == "u" and om != 0.0:
            theta = -om * lat.kt3 * s
            c, sn = np.cos(theta), np.sin(theta)
            return lambda C: decay * _rotate(_complex_ops(lat)[0], C, c, sn)
        return lambda C: decay * C

    Ph, Ph2 = make_prop(h), make_prop(0.5 * h)
    om_b = om if config.form == "v" else 0.0

    def N(t, C):
        return -advect(lat, C, C, t, om_b)

    C = u0.coeffs.astype(complex)
    times, records = [t0], [C.copy()]
    t = t0
    for step in range(config.n_steps):
        a = N(t, C)
        b = N(t + 0.5 * h, Ph2(C + 0.5 * h * a))
        c = N(t + 0.5 * h, Ph2(C) + 0.5 * h * b)
        PC = Ph(C)
        d = N(t + h, PC + h * Ph2(c))
        C = PC + (h / 6.0) * (Ph(a) + 2.0 * Ph2(b + c) + d)
        t = t0 + (step + 1) * h
        if (step + 1) % config.record_stride == 0:
            times.append(t)
            records.append(C.copy())
    return np.array(times), np.array(records)


def _off_line_field(lat, ray, harmonics, seed, n_extra, amplitude=1.0):
    """Ray data plus n_extra random modes off its line, each one sum away
    from the ray's lowest harmonic, so that the closed support grows past
    the data's own modes."""
    u = VkData.random(ray, harmonics, seed, lat).field(lat)
    rng = np.random.default_rng(seed)
    k1 = lat.index_of(np.array([[min(harmonics) * c for c in ray]]))[0]
    line = {tuple(m * np.array(ray)) for m in range(-6, 7)}
    near = [i for i in np.flatnonzero(lat.rep_mask)
            if tuple(lat.ks[i]) not in line and lat.pair_index(i, k1) >= 0]
    for i in rng.choice(near, n_extra, replace=False):
        z = lat.proj[i] @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        u.coeffs[i], u.coeffs[lat.conj_idx[i]] = z, np.conj(z)
    return u * amplitude


@given(st.sampled_from(RAYS), st.sets(st.integers(1, 3), min_size=1),
       st.sampled_from([0.0, 5.0, -7.5]), st.sampled_from("uv"), st.sampled_from([1, 2, 5]),
       st.integers(0, 2), st.integers(0, 2**16))
@settings(deadline=None, max_examples=30)
def test_closed_support_run_matches_reference_loop(ray, harmonics, omega, form, stride,
                                                  n_extra, seed):
    """integrate on the closed support S gives the all-mode loop's bits on S
    and zeros off it, for invariant lines and for data off them."""
    lat = LAT10
    # the harmonics on the cutoff-10 cube, whose eigenvalue is |k|^2
    harmonics = tuple(h for h in sorted(harmonics) if h * h * np.dot(ray, ray) <= 10) or (1,)
    u0 = _off_line_field(lat, ray, harmonics, seed, n_extra)
    config = SolverConfig(dt=0.02, t_end=0.2, omega=omega, form=form, record_stride=stride)
    traj = integrate(u0, config)
    times, want = _rk4_reference(u0, config)
    np.testing.assert_array_equal(traj.times, times)
    rows = _closed_frame(lat, u0.coeffs).rows
    if n_extra:
        assert len(rows) > np.count_nonzero(u0.coeffs.any(axis=1))
    np.testing.assert_array_equal(traj.coeffs[:, rows].view(np.uint64),
                                  want[:, rows].view(np.uint64))
    assert not np.any(np.delete(traj.coeffs, rows, axis=1))
    assert not np.any(np.delete(want, rows, axis=1))


def test_closed_support_is_taken_on_sparse_data_only(cube6):
    """Ray data on the cutoff-30 lattice run on their six modes; a field one
    mode off the line runs on a larger closed support; dense data run on
    every mode."""
    lat = build_lattice(cutoff=30)
    u0 = VkData.random((1, 1, 1), (1, 2, 3), 1, lat).field(lat)
    frame = _closed_frame(lat, u0.coeffs)
    np.testing.assert_array_equal(np.sort(frame.rows), np.flatnonzero(u0.coeffs.any(axis=1)))
    assert len(frame.rows) == 6
    off = _off_line_field(LAT10, (1, 0, 1), (1,), 3, 1)
    assert 4 < len(_closed_frame(LAT10, off.coeffs).rows) < LAT10.n_modes
    dense = _closed_frame(cube6, random_gevrey(cube6, seed=1).coeffs)
    np.testing.assert_array_equal(np.sort(dense.rows), np.arange(cube6.n_modes))


@pytest.mark.parametrize("sublattice, n_rows", [(lambda ks: ks[:, 2] == 0, 20),
                                                 (lambda ks: ks[:, 0] % 2 == 0, 38)],
                         ids=["k3-plane", "even-k1"])
@pytest.mark.parametrize("form", ["u", "v"])
def test_closed_sublattice_runs_on_its_own_frame(monkeypatch, cube6, sublattice, n_rows, form):
    """Dense data on a closed sublattice of the cutoff-6 cube (the k3 = 0
    plane, the even-k1 modes) run on their own frame, not the lattice's:
    the frame's rows carry the bits of the run on every mode, the other
    entries equal its zeros in value, and the trajectory file is the same
    text."""
    import rotspec.solver
    u0 = random_gevrey(cube6, seed=4, amplitude=1.0)
    u0.coeffs[~sublattice(cube6.ks)] = 0.0
    frame = _closed_frame(cube6, u0.coeffs)
    assert len(frame.rows) == n_rows and frame.support is not None
    config = SolverConfig(dt=0.02, t_end=0.2, omega=5.0, form=form)
    traj = integrate(u0, config)
    monkeypatch.setattr(rotspec.solver, "_closed_frame", lambda lat, C: _lattice_frame(lat))
    want = integrate(u0, config)
    rows = frame.rows
    np.testing.assert_array_equal(traj.coeffs[:, rows].view(np.uint64),
                                  want.coeffs[:, rows].view(np.uint64))
    np.testing.assert_array_equal(traj.coeffs, want.coeffs)
    texts = []
    for run in (traj, want):
        buf = io.StringIO()
        trajectory_to_jsonl(run, buf)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("amplitude", [30.0, 100.0, 300.0])
@pytest.mark.parametrize("form", ["u", "v"])
def test_closed_support_stops_at_the_reference_step(amplitude, form):
    """Sparse data off an invariant line, with a large amplitude and a large
    step, go non-finite at the all-mode loop's step with its message; the
    larger amplitudes pass through a product the closed support's plan
    cannot vouch for (fields._convolve_padded)."""
    u0 = _off_line_field(LAT10, (1, 0, 1), (1,), 3, 1, amplitude)
    assert len(_closed_frame(LAT10, u0.coeffs).rows) < LAT10.n_modes
    config = SolverConfig(dt=0.05, t_end=10.0, omega=5.0, form=form)
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError) as want:
            _rk4_reference(u0, config)
        with pytest.raises(FloatingPointError) as got:
            integrate(u0, config)
    assert str(got.value) == str(want.value)
    assert "after step" in str(got.value) and "of 200" in str(got.value)


def test_closed_support_run_builds_its_plan_once(monkeypatch):
    """A run on a closed support closes the support and builds its one plan
    at set-up: a longer run enumerates no more pairs and builds no more
    plans, and the first run no more than later ones: nothing is counted
    on the whole lattice, and no full plan is built."""
    calls = {"_pairs": 0, "_Plan": 0}

    def count(name):
        original = getattr(rotspec.fields, name)

        def spy(*args):
            calls[name] += 1
            return original(*args)
        return spy

    for name in calls:
        monkeypatch.setattr(rotspec.fields, name, count(name))
    lat = build_lattice(cutoff=10)
    u0 = _off_line_field(lat, (1, 0, 1), (1,), 3, 1)
    seen = []
    for t_end in (0.02, 0.02, 0.2):
        for name in calls:
            calls[name] = 0
        integrate(u0, SolverConfig(dt=0.01, t_end=t_end, omega=5.0, form="v"))
        seen.append(dict(calls))
    assert seen[0] == seen[1] == seen[2] and seen[1]["_Plan"] == 1
    assert _lattice_frame(lat).plans == {}


@pytest.mark.parametrize("kind", ["dense", "ray"])
@pytest.mark.parametrize("form", ["u", "v"])
def test_a_step_convolves_the_representative_half_four_times(monkeypatch, kind, form):
    """Each step forms four products (fields._convolve), each taking and
    returning the frame's representative rows, and no stage mirrors:
    fields._mirror writes only each later record's partners."""
    import rotspec.solver
    u0 = _initial(kind, 1)
    n_rows = len(_closed_frame(u0.lattice, u0.coeffs).rows)
    shapes, mirrors = [], []
    convolve, mirror = rotspec.fields._convolve, rotspec.fields._mirror

    def convolve_spy(frame, U, V, lam=None):
        out = convolve(frame, U, V, lam)
        shapes.append((U.shape, V.shape, out.shape))
        return out

    def mirror_spy(*args):
        mirrors.append(1)
        return mirror(*args)

    monkeypatch.setattr(rotspec.fields, "_convolve", convolve_spy)
    for module in (rotspec.fields, rotspec.solver):
        monkeypatch.setattr(module, "_mirror", mirror_spy)
    n = 6
    traj = integrate(u0, SolverConfig(dt=0.02, t_end=n * 0.02, omega=5.0, form=form,
                                      record_stride=2))
    assert traj.n_samples == n // 2 + 1
    assert shapes == [((n_rows // 2, 3),) * 3] * (4 * n)
    assert len(mirrors) == n // 2


# ---------------------------------------------------------------------------
# one Lawson step of u for both forms


def _initial(kind, seed):
    if kind == "dense":
        return random_gevrey(build_lattice(cutoff=6), seed=seed, amplitude=1.0)
    return _off_line_field(LAT10, RAYS[seed % len(RAYS)], (1,), seed, seed % 3)


@given(st.sampled_from(["dense", "ray"]), st.sampled_from([0.0, 5.0, -7.5]),
       st.sampled_from("uv"), st.sampled_from([0.0, 0.5]), st.integers(0, 2**16))
@settings(deadline=None, max_examples=30)
def test_run_matches_the_rotated_scheme_at_round_off(kind, omega, form, t0, seed):
    """Stepping u and rotating its records is the v-form scheme with the
    rotated nonlinearity B_Omega(t, v, v) in exact arithmetic; in floating
    point the two differ at round-off (at most 1.3e-15 of the largest
    coefficient measured over these ten steps)."""
    u0 = _initial(kind, seed)
    config = SolverConfig(dt=0.02, t_end=t0 + 0.2, omega=omega, form=form, t0=t0)
    traj = integrate(u0, config)
    times, want = _rotated_rk4_reference(u0, config)
    np.testing.assert_array_equal(traj.times, times)
    assert np.abs(traj.coeffs - want).max() <= 5e-15 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["dense", "ray"])
@pytest.mark.parametrize("omega", [5.0, -7.5])
def test_v_form_run_is_the_transformed_u_form_run(kind, omega):
    """From t0 = 0 a v-form run rotates the u-form run's records with
    transform_trajectory's own angles, bit for bit, on every mode and on a
    closed support: on the representative rows, and each later record's
    partners are np.conj of its representatives, as integrate records them.
    Off a closed support both runs hold zeros.  Record 0 is u0 as given."""
    u0 = _initial(kind, 1)
    rows = _closed_frame(u0.lattice, u0.coeffs).rows
    assert (len(rows) == u0.lattice.n_modes) == (kind == "dense")
    cfg = dict(dt=0.02, t_end=0.4, omega=omega, record_stride=2)
    trajv = integrate(u0, SolverConfig(form="v", **cfg))
    tv = transform_trajectory(integrate(u0, SolverConfig(form="u", **cfg)), "v")
    np.testing.assert_array_equal(trajv.times, tv.times)
    want, n = tv.coeffs, len(rows) // 2  # the frame lists representatives, then partners
    want[0] = u0.coeffs
    want[1:, rows[n:]] = np.conj(want[1:, rows[:n]])
    np.testing.assert_array_equal(trajv.coeffs[:, rows].view(np.uint64),
                                  want[:, rows].view(np.uint64))
    assert not np.any(np.delete(trajv.coeffs, rows, axis=1))
    assert not np.any(np.delete(want, rows, axis=1))


@pytest.mark.parametrize("kind", ["dense", "ray"])
@pytest.mark.parametrize("form", ["u", "v"])
@pytest.mark.parametrize("t0", [0.0, 0.5, -1.25])
def test_record_zero_is_the_initial_field(kind, form, t0):
    """Record 0 is the initial field as given, for every t0: a v-form run
    steps u from exp(-Omega t0 S) v0 but records v0 itself."""
    u0 = _initial(kind, 2)
    traj = integrate(u0, SolverConfig(dt=0.05, t_end=t0 + 0.1, omega=5.0, form=form, t0=t0))
    assert traj.times[0] == t0
    np.testing.assert_array_equal(traj.coeffs[0].view(np.uint64), u0.coeffs.view(np.uint64))
