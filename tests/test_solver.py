import hashlib
import io
import json
import re

import numpy as np
import pytest

import rotspec
from rotspec.fields import SpectralField, apply_expS, random_gevrey
from rotspec.lattice import build_lattice
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
        expected = apply_expS(decayed, -om * t)
        np.testing.assert_allclose(traj.coeffs[i], expected.coeffs, atol=1e-15)


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
