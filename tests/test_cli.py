"""End-to-end tests for the command line interface.

Every test drives ``rotspec.cli.main`` in-process with argv lists and
inspects exit codes, stdout/stderr, and files written to tmp dirs.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rotspec
from rotspec import __version__
from rotspec.cli import (CONFIG_SCHEMA, EXIT_NUMERICAL, OUTDIR_ENV, CliError, _dump,
                         _validator, build_parser, main)
from rotspec.expansion import expand, time_average_Q, to_u_expansion
from rotspec.fields import SpectralField, field_to_doc, random_gevrey
from rotspec.lattice import build_lattice
from rotspec.solver import SolverConfig, integrate, transform_trajectory
from rotspec.spoly import spoly_from_doc
from rotspec.special import VkData, helicity


def _write_config(path, **overrides):
    cfg = {
        "lattice": {"cutoff": 3},
        "omega": 2.0,
        "initial": {"kind": "random-gevrey", "seed": 11, "amplitude": 0.05},
        "solver": {"dt": 2e-3, "t_end": 6.0, "form": "v"},
        "expansion": {"xi_windows": [[3.0, 4.0], [4.0, 5.0]]},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def _stderr_error(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.err)["error"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run simulate + expand once and share the artifacts across tests."""
    root = tmp_path_factory.mktemp("cli_pipeline")
    cfg_path = root / "config.json"
    cfg = _write_config(cfg_path)
    traj_path = root / "traj.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(traj_path)]) == 0
    report_path = root / "expand.json"
    assert main(["expand", "--traj", str(traj_path), "--order", "1",
                 "--out", str(report_path)]) == 0
    return {"root": root, "config": cfg, "config_path": cfg_path,
            "traj": traj_path, "report": report_path}


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_stdout(capsys):
    assert main(["spectrum", "--cutoff", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["artifact"] == {"name": "rotspec", "version": __version__}
    assert "config_hash" in doc

    eig = doc["eigenvalues"]
    assert [e["num"] for e in eig] == [1, 2, 3, 4, 5, 6]
    assert all(e["den"] == 1 for e in eig)
    mults = {e["num"]: e["multiplicity"] for e in eig}
    assert mults == {1: 6, 2: 12, 3: 8, 4: 6, 5: 24, 6: 24}

    semi = doc["semigroup"]
    assert [s["mu"] for s in semi] == [{"num": n, "den": 1} for n in range(1, 7)]
    by_mu = {s["mu"]["num"]: s["decompositions"] for s in semi}
    assert by_mu[1] == []
    assert [1, 1] in by_mu[2]
    assert [1, 2] in by_mu[3]


def test_spectrum_anisotropic(capsys):
    assert main(["spectrum", "--L", "1,1,1/2", "--cutoff", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    mults = {(e["num"], e["den"]): e["multiplicity"] for e in doc["eigenvalues"]}
    # lam = k1^2 + k2^2 + 4 k3^2: lam=1 from (+-1,0,0),(0,+-1,0) only
    assert mults[(1, 1)] == 4
    # lam=4: (+-2,0,0),(0,+-2,0),(0,0,+-1)
    assert mults[(4, 1)] == 6


def test_spectrum_bad_lattice(capsys):
    assert main(["spectrum", "--L", "1,1"]) == 2
    err = _stderr_error(capsys)
    assert err["code"] == 2
    assert err["kind"] == "config"
    assert "message" in err

    assert main(["spectrum", "--L", "2,1,1"]) == 2
    assert _stderr_error(capsys)["code"] == 2


@pytest.mark.parametrize("ell", ["1e-308,1,1", "1,1,1e-308"])
def test_spectrum_period_past_a_float_names_ell(capsys, ell):
    """A period whose q = 1/ell^2 is no float exits 2 with one JSON line
    naming ell (test_numeric_flag_refuses_bad_values covers the rest)."""
    assert main(["spectrum", "--L", ell]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "config" and err["message"].startswith("ell ")


@pytest.mark.parametrize("flag, name", [("--cutoff", "cutoff"), ("--cap", "cap")])
def test_spectrum_huge_rational_gives_a_short_line(capsys, flag, name):
    """A 309-digit cutoff or cap exits 2 with one short JSON line that names
    it, its digits abbreviated (the cutoff's line held 890 bytes)."""
    assert main(["spectrum", flag, "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert len(captured.err.encode()) < 200
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "config" and f"{name} 100000... (309 digits)" in err["message"]


@pytest.mark.parametrize("argv", [["spectrum", "--cap", "1e9"], ["expand", "--order", "100000"]],
                         ids=["spectrum-cap", "expand-order"])
def test_semigroup_closure_is_bounded(pipeline, capsys, argv):
    """A cap whose semigroup runs past the lattice's element bound exits 2
    naming the cap, at once, where the closure used to grow without bound."""
    if argv[0] == "expand":
        argv = argv + ["--traj", str(pipeline["traj"])]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    message = json.loads(captured.err)["error"]["message"]
    assert message.startswith("the semigroup below cap ") and "more than 4096" in message


# ---------------------------------------------------------------------------
# simulate


def test_simulate_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, solver={"dt": 0.01, "t_end": 0.1, "form": "v"})
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    meta = json.loads(out_a.read_text().splitlines()[0])["meta"]
    assert meta["form"] == "v"
    assert meta["omega"] == 2.0
    assert meta["config"]["initial"]["seed"] == 11
    assert "config_hash" in meta


def test_simulate_blowup_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(
        cfg_path,
        lattice={"cutoff": 2},
        omega=1.0,
        initial={"kind": "random-gevrey", "seed": 3, "amplitude": 1e8},
        solver={"dt": 0.5, "t_end": 3.0, "form": "v"},
    )
    out = tmp_path / "boom.jsonl"
    with np.errstate(all="ignore"):
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert code == 3
    err = _stderr_error(capsys)
    assert err["code"] == 3
    assert err["kind"] == "numerical"
    assert err["message"].startswith("simulate: state is not finite after step ")


def test_simulate_config_errors(tmp_path, capsys):
    bad = {
        "missing-omega": {"lattice": {"cutoff": 2},
                          "initial": {"kind": "random-gevrey", "seed": 1},
                          "solver": {"dt": 0.1, "t_end": 1.0}},
        "bad-coefficient-key": {
            "lattice": {"cutoff": 2}, "omega": 1.0,
            "initial": {"kind": "vk", "k": [1, 0, 0],
                        "coefficients": {"first": [[0, 0], [1, 0], [0, 0]]}},
            "solver": {"dt": 0.1, "t_end": 1.0}},
        "zero-dt": {"lattice": {"cutoff": 2}, "omega": 1.0,
                    "initial": {"kind": "random-gevrey", "seed": 1},
                    "solver": {"dt": 0.0, "t_end": 1.0}},
        "extra-key": {"lattice": {"cutoff": 2}, "omega": 1.0,
                      "initial": {"kind": "random-gevrey", "seed": 1},
                      "solver": {"dt": 0.1, "t_end": 1.0},
                      "unexpected": True},
    }
    for name, cfg in bad.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "x.jsonl")]) == 2, name
        assert _stderr_error(capsys)["kind"] == "config", name

    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", "-"]) == 2
    not_json = tmp_path / "not.json"
    not_json.write_text("{truncated")
    assert main(["simulate", "--config", str(not_json), "--out", "-"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("overrides", [
    {"expansion": {"order": 7}},
    {"expansion": {"norm": [3, 9]}},
    {"output": {"dir": "nowhere"}},
    {"initial": {"kind": "drift", "k": [1, 0, 0], "U0": [5.0, -3.0, 2.0],
                 "coefficients": {"1": [[0.0, 0.0], [0.3, 0.0], [0.0, 0.2]]}}},
], ids=["expansion.order", "expansion.norm", "output.dir", "drift"])
def test_simulate_refuses_deleted_config_keys(tmp_path, capsys, overrides):
    """Keys nothing reads are schema errors, not silently ignored settings."""
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, lattice={"cutoff": 2},
                  solver={"dt": 0.01, "t_end": 0.02, "form": "v"}, **overrides)
    out = tmp_path / "traj.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = _stderr_error(capsys)
    assert err["kind"] == "config"
    assert err["message"].startswith("config schema violation")
    assert not out.exists()


def test_readme_config_example_is_valid():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    examples = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert examples
    for text in examples:
        assert list(_validator("config").iter_errors(json.loads(text))) == []


def test_simulate_bad_rational_names_it(tmp_path, capsys, monkeypatch):
    """A config rational lattice cannot read exits 2 naming it, before any run."""
    def refuse(*args, **kwargs):
        raise AssertionError("integrated a config with a bad cutoff")

    monkeypatch.setattr("rotspec.cli.integrate", refuse)
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, lattice={"cutoff": "1/0"})
    out = tmp_path / "traj.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)["error"]
    assert err == {"code": 2, "kind": "config",
                   "message": "cutoff must be a rational number, not '1/0'"}
    assert not out.exists()


def test_simulate_schema_violation_message(tmp_path, capsys):
    """The message is the best-matching error, as jsonschema.validate raises it."""
    path = tmp_path / "fast.json"
    cfg = _write_config(path, omega="fast")
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    for _ in range(2):  # the validator is built once and reused
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "x.jsonl")]) == 2
        assert _stderr_error(capsys) == {
            "code": 2, "kind": "config",
            "message": f"config schema violation: {want.value.message}"}
    assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize("solver,message", [
    ({"dt": 0.1, "t_end": 0.55}, "whole number of steps"),
    ({"dt": 0.01, "t_end": 0.5, "record_stride": 7}, "does not divide the 50 steps"),
])
def test_simulate_ragged_final_sample(tmp_path, capsys, solver, message):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, solver=dict(solver, form="v"))
    out = tmp_path / "traj.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "config"
    assert message in err["message"]
    assert not out.exists()


def test_simulate_file_initial(tmp_path):
    lat = build_lattice(cutoff=2)
    u0 = random_gevrey(lat, seed=4, amplitude=0.02)
    field_path = tmp_path / "u0.json"
    field_path.write_text(json.dumps(field_to_doc(u0)))

    cfg_path = tmp_path / "cfg.json"
    _write_config(
        cfg_path,
        lattice={"cutoff": 2},
        initial={"kind": "file", "path": str(field_path)},
        solver={"dt": 0.01, "t_end": 0.05, "form": "v"},
    )
    out = tmp_path / "traj.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    n_records = len(out.read_text().splitlines()) - 1
    assert n_records == 6

    cfg_path2 = tmp_path / "cfg2.json"
    _write_config(
        cfg_path2,
        lattice={"cutoff": 2},
        initial={"kind": "file", "path": str(tmp_path / "missing.json")},
        solver={"dt": 0.01, "t_end": 0.05, "form": "v"},
    )
    assert main(["simulate", "--config", str(cfg_path2), "--out", "-"]) == 2


def test_simulate_file_initial_nan_exits_3(tmp_path, capsys):
    """A NaN in the initial field stops integrate at its first step."""
    doc = field_to_doc(random_gevrey(build_lattice(cutoff=2), seed=4, amplitude=0.02))
    doc["modes"][0]["re"][0] = float("nan")
    field_path = tmp_path / "u0.json"
    field_path.write_text(json.dumps(doc))
    assert "NaN" in field_path.read_text()
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, lattice={"cutoff": 2},
                  initial={"kind": "file", "path": str(field_path)},
                  solver={"dt": 0.01, "t_end": 0.05, "form": "v"})
    out = tmp_path / "traj.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = _stderr_error(capsys)
    assert err["kind"] == "numerical" and "step 1 of 5" in err["message"]
    assert not out.exists()


def test_simulate_refuses_norms_that_overflow(tmp_path, capsys):
    """A finite run whose norms overflow exits 3 and leaves no file: JSON
    has no number for the infinite norm (earlier versions wrote `Infinity`)."""
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, lattice={"cutoff": 2},
                  initial={"kind": "vk", "k": [1, 0, 0],
                           "coefficients": {"1": [[0.0, 0.0], [1e160, 0.0], [0.0, 0.0]]}},
                  solver={"dt": 0.01, "t_end": 0.05, "form": "u"})
    out = tmp_path / "traj.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = _stderr_error(capsys)
    assert err["kind"] == "numerical"
    assert err["message"].startswith("simulate: trajectory sample 0 (t = 0.0) holds a time, "
                                     "coefficient or norm that is not finite")
    assert not out.exists()


@pytest.mark.parametrize("doc, error", [([1, 2], "TypeError"),
                                        ({"L": [1, 1, 1]}, "KeyError")],
                         ids=["list", "no-modes"])
def test_simulate_file_initial_wrong_shape(tmp_path, capsys, doc, error):
    """A field file that is valid JSON but not a field document exits 2."""
    field_path = tmp_path / "u0.json"
    field_path.write_text(json.dumps(doc))
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, lattice={"cutoff": 2},
                  initial={"kind": "file", "path": str(field_path)},
                  solver={"dt": 0.01, "t_end": 0.05, "form": "v"})
    assert main(["simulate", "--config", str(cfg_path), "--out", "-"]) == 2
    err = _stderr_error(capsys)
    assert err["kind"] == "config" and error in err["message"]


def _refused_on_both_paths(tmp_path, capsys, edit, message, part=lambda doc: doc["modes"][0]):
    """Apply edit to part of a field file and of a trajectory record (by
    default their first mode); simulate and expand must each exit 2 with a
    JSON config error, and the trajectory's names the record's line."""
    field_path = tmp_path / "u0.json"
    field_path.write_text(json.dumps(
        field_to_doc(random_gevrey(build_lattice(cutoff=3), seed=4, amplitude=0.02))))
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, lattice={"cutoff": 3},
                  initial={"kind": "file", "path": str(field_path)},
                  solver={"dt": 0.01, "t_end": 0.05, "form": "v"})
    traj_path = tmp_path / "traj.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(traj_path)]) == 0

    doc = json.loads(field_path.read_text())
    edit(part(doc))
    field_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg_path), "--out", "-"]) == 2
    err = _stderr_error(capsys)
    assert err["kind"] == "config" and message in err["message"]

    header, first, *rest = traj_path.read_text().splitlines()
    rec = json.loads(first)
    edit(part(rec["field"]))
    traj_path.write_text("\n".join([header, json.dumps(rec), *rest]) + "\n")
    assert main(["expand", "--traj", str(traj_path), "--order", "1"]) == 2
    err = _stderr_error(capsys)
    assert err["kind"] == "config" and message in err["message"]
    assert err["message"].startswith("trajectory line 2")


@pytest.mark.parametrize("k, message", [([1.5, 0, 0], "not three integers"),
                                        ([True, 0, 0], "not three integers"),
                                        ([10**20, 0, 0], "outside the lattice")],
                         ids=["fraction", "bool", "beyond-int64"])
def test_wave_vectors_must_be_integers(tmp_path, capsys, k, message):
    """A field file or a trajectory record whose wave vector is not three
    integers exits 2 with a JSON error, on either path."""
    _refused_on_both_paths(tmp_path, capsys, lambda mode: mode.update(k=k), message)


@pytest.mark.parametrize("key, value, message", [
    ("re", ["0", 0.5, True], "not three numbers"),
    ("im", [0.0, True, 0.0], "not three numbers"),
    ("re", [0.0, 10**400, 0.0], "beyond the float range"),
    ("im", [0.0, 0.5], "not three numbers"),
], ids=["string", "bool", "beyond-float", "short"])
def test_coefficients_must_be_numbers(tmp_path, capsys, key, value, message):
    """A coefficient part that is not three numbers exits 2 on either path."""
    _refused_on_both_paths(tmp_path, capsys, lambda mode: mode.update({key: value}), message)


@pytest.mark.parametrize("mean, message", [
    (["0", True, 0.5], "not three numbers"),
    ([1, 2], "not three numbers"),
    (None, "not three numbers"),
    ([0.0, 10**400, 0.0], "beyond the float range"),
], ids=["string-bool", "two", "null", "beyond-float"])
def test_mean_must_be_three_numbers(tmp_path, capsys, mean, message):
    """A field document's mean, when present, is three numbers on either path."""
    _refused_on_both_paths(tmp_path, capsys, lambda doc: doc.update(mean=mean), message,
                           part=lambda doc: doc)


def test_simulate_refuses_a_non_zero_mean(tmp_path, capsys):
    """A field file with a non-zero mean exits 2 with a JSON error instead
    of a run that drops the mean; a zero mean and no mean give the same
    trajectory bytes."""
    doc = field_to_doc(random_gevrey(build_lattice(cutoff=3), seed=4, amplitude=0.02))
    field_path = tmp_path / "u0.json"
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, lattice={"cutoff": 3}, omega=5.0,
                  initial={"kind": "file", "path": str(field_path)},
                  solver={"dt": 0.01, "t_end": 0.05, "form": "v"})
    written = []
    for mean in ([0, 0, 0], None):
        field_path.write_text(json.dumps(
            {k: v for k, v in doc.items() if k != "mean"} if mean is None
            else dict(doc, mean=mean)))
        out = tmp_path / "traj.jsonl"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    field_path.write_text(json.dumps(dict(doc, mean=[1, 0, 0.5])))
    out = tmp_path / "mean.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "config" and "mean [1.0, 0.0, 0.5]" in err["message"]
    assert not out.exists()


def test_coefficients_must_be_divergence_free(tmp_path, capsys):
    """A coefficient along its wave vector (on the cube, kcheck = k) exits 2 on either path."""
    def along_k(mode):
        mode.update(re=[float(c) for c in mode["k"]], im=[0.0, 0.0, 0.0])
    _refused_on_both_paths(tmp_path, capsys, along_k, "not orthogonal to its wave vector")


def test_conjugate_pairs_must_agree(tmp_path, capsys):
    """A document giving both members of a conjugate pair, which are not
    conjugates, exits 2 on either path."""
    def both_members(doc):
        mode = doc["modes"][0]
        doc["modes"].append({"k": [-c for c in mode["k"]], "re": mode["re"], "im": mode["im"]})
    _refused_on_both_paths(tmp_path, capsys, both_members, "conjugate-mode pairing violated",
                           part=lambda doc: doc)


# ---------------------------------------------------------------------------
# expand


def test_expand_report_contents(pipeline):
    doc = json.loads(pipeline["report"].read_text())
    assert doc["artifact"]["name"] == "rotspec"
    assert doc["omega"] == 2.0
    assert doc["norm"] == [0.0, 0.0]
    assert doc["mus"] == ["1"]
    assert len(doc["orders"]) == 1
    order = doc["orders"][0]
    assert sorted(order) == ["L", "cutoff", "freqs", "im", "k", "m", "re", "w"]
    assert len({len(order[key]) for key in ("k", "m", "w", "re", "im")}) == 1

    rate = doc["rates"][0]
    assert rate["order"] == 1
    assert rate["expected"] == 2.0
    assert 1.85 < rate["slope"] < 2.15
    assert not rate["floor_flag"]

    diag = doc["diagnostics"][0]
    assert diag["xi_window_spread"] < 1e-6
    assert diag["xi_norm"] > 1e-4
    assert doc["verify"]["max_residual"] < 1e-9

    series = doc["series"]
    assert len(series["t"]) == 3001
    assert len(series["remainder"]) == 2
    assert all(len(col) == 3001 for col in series["remainder"])


def test_expand_orders_round_trip_through_json(pipeline, tmp_path, monkeypatch):
    """Each order of the written expansion decodes bit for bit to the
    expansion's own order, its terms in the document's key order, and keeps
    each frequency once in its order's table."""
    kept = []

    def keep(*args, **kwargs):
        kept.append(expand(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr("rotspec.cli.expand", keep)
    out = tmp_path / "expand3.json"
    assert main(["expand", "--traj", str(pipeline["traj"]), "--order", "3",
                 "--out", str(out)]) == 0
    text = out.read_text()
    orders, (exp,) = json.loads(text)["orders"], kept
    assert len(orders) == len(exp.orders) == 3
    assert text.count('"combo"') == sum(len(doc["freqs"]) for doc in orders)
    for doc, q in zip(orders, exp.orders):
        assert "terms" not in doc and len(doc["freqs"]) == len(set(doc["w"]))
        back = spoly_from_doc(doc, q.lattice)
        want = sorted(q.terms.items(), key=lambda kv: kv[0])
        assert list(back.terms) == [key for key, _ in want]
        for c, (_, w) in zip(back.terms.values(), want):
            assert np.array_equal(c.view(np.uint64), w.view(np.uint64))


_DUMP_DOCS = [
    {"b": [1, -2.5e-300, None, True, False, "x"], "a": {"z": [], "y": {}, "x": 0.1}},
    {"rows": [[1, 2.5], [3, -4.0]], "ragged": [[1], [2, 3, 4]], "deep": [[[1, 2]], [[3]]],
     "with empty": [[1], []], "mixed": [[1], 2, [3, [4]], {"k": []}], "tuple": ((1, 2), (3,))},
    {"bracket strings": [["a]", "[b"], ["],\n  [", "}"]], "rows of strings": [["]"], ["["]],
     "nested": {"one": {"two": {"three": [{}]}}}, "dicts": [{"b": 1, "a": [1.5]}, {}]},
    {"\u00fcn\u00efc\u00f6de": ["\u00e7", "\u2603", "\U0001f600", "tab\tnew\nline\"quote\\"],
     "\u2603": {"\u00e9": [["\u00e9", 1]]}},
    {2: "int keys sort as numbers", 10: [1], 1: {0.5: "float key", 3: [None]}},
    [[]], [], {}, [[[]]], "scalar", 1.5,
]


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _assert_json_dumps_layout(text, doc):
    """text is doc as json.dumps(sort_keys=True, indent=2) lays it out, line
    for line, apart from how a number is spelled, plus one newline."""
    want = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)
    assert json.loads(text) == json.loads(want)
    assert text.endswith("\n") and not text.endswith("\n\n")

    def lines(s):
        return [_NUMBER.sub(lambda m: repr(float(m.group())), line) for line in s.split("\n")]

    assert lines(text[:-1]) == lines(want)


@pytest.mark.parametrize("doc", _DUMP_DOCS)
def test_dump_writes_json_dumps_indented_bytes(doc):
    """Documents are 2-space-indented JSON with sorted keys, json.dumps'
    indent=2 layout; only a float's spelling may differ (shortest round
    trip: 0.000036, not 3.6e-05)."""
    _assert_json_dumps_layout(_dump(doc), doc)


def test_dump_of_an_expand_document_is_json_dumps_indented(pipeline):
    text = Path(pipeline["report"]).read_text()
    _assert_json_dumps_layout(text, json.loads(text))


def _has_non_finite(doc):
    if isinstance(doc, dict):
        return any(_has_non_finite(v) for v in doc.values())
    if isinstance(doc, (list, tuple)):
        return any(_has_non_finite(v) for v in doc)
    return isinstance(doc, float) and not math.isfinite(doc)


_scalars = (st.text() | st.integers(-2**100, 2**100) | st.booleans() | st.none()
            | st.floats() | st.floats().map(np.float64))
_docs = st.recursive(_scalars, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4)
    | st.dictionaries(st.integers(-2**100, 2**100), inner, max_size=4)), max_leaves=20)


@given(_docs)
@example({"a": [(1.0, float("nan"))]})
@settings(max_examples=200, deadline=None)
def test_dump_is_json_with_sorted_keys(doc):
    """Any document of JSON's types, numpy floats, tuples, integer keys and
    integers past 64 bits: _dump's text parses to what json.dumps' does,
    every object's keys in json's sort_keys order, and ends in one newline;
    a non-finite number anywhere exits 3."""
    if _has_non_finite(doc):
        with pytest.raises(CliError) as e:
            _dump(doc)
        assert e.value.code == EXIT_NUMERICAL and "non-finite" in str(e.value)
        return
    text = _dump(doc)
    assert json.loads(text) == json.loads(json.dumps(doc))
    pairs = functools.partial(json.loads, object_pairs_hook=list)
    assert pairs(text) == pairs(json.dumps(doc, sort_keys=True))
    assert text.endswith("\n") and not text.endswith("\n\n")


@pytest.mark.parametrize("doc", [
    {"a": float("nan")}, {"a": [1.0, float("inf")]}, {"a": [[1.0], [-float("inf")]]},
    {"a": [[1.0], {"b": [float("nan")]}]}, {float("nan"): 1}, {float("nan"): [1]},
])
def test_dump_of_a_non_finite_number_exits_3(doc):
    with pytest.raises(CliError) as e:
        _dump(doc)
    assert e.value.code == EXIT_NUMERICAL and "non-finite" in str(e.value)


def test_non_finite_output_document_exits_3(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr("rotspec.cli.spectrum_to_doc",
                        lambda lat, table: {"eigenvalues": [[1.0], [float("nan")]]})
    assert main(["spectrum", "--cutoff", "2", "--out", str(tmp_path / "s.json")]) == 3
    err = _stderr_error(capsys)
    assert err["code"] == 3 and err["kind"] == "numerical"


def test_expand_norm_argument(pipeline, capsys):
    assert main(["expand", "--traj", str(pipeline["traj"]), "--order", "1",
                 "--norm", "0.5,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["norm"] == [0.5, 0.0]
    assert 1.8 < doc["rates"][0]["slope"] < 2.2


@pytest.mark.parametrize("norm", ["nan,0", "0,inf", "-inf,1", "1", "1,2,3", "a,1", "1,", ""])
def test_expand_checks_norm_before_reading(pipeline, tmp_path, capsys, monkeypatch, norm):
    """A --norm that is not exactly two finite comma-separated numbers is a
    config error, reported as one JSON line that names --norm, before the
    trajectory is read."""
    def refuse(*args, **kwargs):
        raise AssertionError("read a trajectory for a bad --norm")

    monkeypatch.setattr("rotspec.cli.trajectory_from_jsonl", refuse)
    out = tmp_path / "expand.json"
    assert main(["expand", "--traj", str(pipeline["traj"]), "--order", "1",
                 f"--norm={norm}", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "config" and "--norm" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("order", ["0", "-1"])
def test_expand_rejects_order_below_one(pipeline, tmp_path, capsys, order):
    out = tmp_path / "expand.json"
    assert main(["expand", "--traj", str(pipeline["traj"]), "--order", order,
                 "--out", str(out)]) == 2
    err = _stderr_error(capsys)
    assert err["kind"] == "config"
    assert f"order must be at least 1, got {order}" in err["message"]
    assert not out.exists()


def test_expand_accepts_u_form(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(
        cfg_path,
        lattice={"cutoff": 2},
        omega=3.0,
        initial={"kind": "vk", "k": [1, 0, 0],
                 "coefficients": {"1": [[0.0, 0.0], [0.3, 0.0], [0.0, 0.2]]}},
        solver={"dt": 2e-3, "t_end": 0.2, "form": "u"},
        expansion={},
    )
    traj = tmp_path / "traj.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(traj)]) == 0
    assert main(["expand", "--traj", str(traj), "--order", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mus"] == ["1"]


def _nan_trajectory(path):
    meta = {"meta": {"form": "v", "omega": 0.0, "dt": 0.1,
                     "lattice": {"ell": ["1", "1", "1"], "cutoff": "2"},
                     "config": {}, "config_hash": "0" * 64,
                     "gevrey_indices": [], "version": __version__}}
    rec = {"t": 0.0, "field": {"modes": [
        {"k": [1, 0, 0], "re": [0.0, float("nan"), 0.0], "im": [0.0, 0.0, 0.0]}],
        "mean": [0.0, 0.0, 0.0]},
        "norms": {"l2": 0.0, "h1": 0.0, "gevrey": []}}
    rec2 = dict(rec, t=0.1)
    path.write_text("\n".join(json.dumps(doc) for doc in (meta, rec, rec2)) + "\n")
    return path


def test_expand_nan_trajectory_exits_3(tmp_path, capsys):
    traj = _nan_trajectory(tmp_path / "nan.jsonl")
    assert main(["expand", "--traj", str(traj), "--order", "1"]) == 3
    assert _stderr_error(capsys)["kind"] == "numerical"


@pytest.mark.parametrize("t0, order", [(200.0, 2), (400.0, 1)])
def test_expand_refuses_a_late_start_whose_weights_overflow(tmp_path, capsys, t0, order):
    """A late start whose e^{mu_n t} squared leaves the float range exits 2
    with a message naming the order, its rate and the last sample time, not
    numpy's bare overflow (exit 3)."""
    cfg = {"lattice": {"cutoff": 2}, "omega": 5.0,
           "initial": {"kind": "random-gevrey", "seed": 1, "amplitude": 0.1},
           "solver": {"dt": 2.0 ** -7, "t0": t0, "t_end": t0 + 1.0, "form": "v"}}
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    traj = tmp_path / "traj.jsonl"
    assert main(["simulate", "--config", str(tmp_path / "run.json"), "--out", str(traj)]) == 0
    out = tmp_path / "exp.json"
    assert main(["expand", "--traj", str(traj), "--order", "2", "--out", str(out)]) == 2
    err = _stderr_error(capsys)
    assert err["code"] == 2
    assert f"order {order} (mu = {order})" in err["message"]
    assert f"last sample time t = {t0 + 1.0!r}" in err["message"]
    assert not out.exists()


def test_expand_refuses_an_early_start_whose_weights_underflow(tmp_path, capsys):
    """From t0 = -200, e^{2 mu t} of order 2 underflows at the first sample
    time: expand exits 2 naming order 2 and that time, rather than writing
    order 2 as zero.  Order 1 (2 * 1 * 200 < 709.78) expands."""
    cfg = {"lattice": {"cutoff": 2}, "omega": 5.0,
           "initial": {"kind": "random-gevrey", "seed": 1, "amplitude": 0.1},
           "solver": {"dt": 2.0 ** -4, "t0": -200.0, "t_end": 1.0, "form": "v",
                      "record_stride": 2}}
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    traj = tmp_path / "traj.jsonl"
    assert main(["simulate", "--config", str(tmp_path / "run.json"), "--out", str(traj)]) == 0
    out = tmp_path / "exp.json"
    assert main(["expand", "--traj", str(traj), "--order", "2", "--out", str(out)]) == 2
    message = _stderr_error(capsys)["message"]
    assert "order 2 (mu = 2)" in message and "first sample time t = -200.0" in message
    assert not out.exists()
    assert main(["expand", "--traj", str(traj), "--order", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["diagnostics"][0]["xi_norm"] > 0.0


def test_expand_names_the_order_whose_remainder_cannot_be_fitted(tmp_path, capsys):
    """A zero field's order-1 remainder is zero at every sample, so its rate
    fit has no positive samples: expand exits 2 naming that order."""
    (tmp_path / "u0.json").write_text(json.dumps({"L": [1, 1, 1], "modes": []}))
    cfg = {"lattice": {"cutoff": 2}, "omega": 5.0,
           "initial": {"kind": "file", "path": str(tmp_path / "u0.json")},
           "solver": {"dt": 2.0 ** -7, "t_end": 2.0, "form": "v"}}
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    traj = tmp_path / "traj.jsonl"
    assert main(["simulate", "--config", str(tmp_path / "run.json"), "--out", str(traj)]) == 0
    assert main(["expand", "--traj", str(traj), "--order", "1"]) == 2
    err = _stderr_error(capsys)
    assert err["code"] == 2
    assert err["message"] == "order 1 remainder: need at least 4 positive samples for a rate fit"


@pytest.mark.parametrize("order", [2, 3])
def test_expand_fits_remainders_whose_squares_underflow(tmp_path, capsys, order):
    """At amplitude 1e-150 the order-2 remainder sits near 1e-166, whose
    squares underflow to 0; its norms are taken on the rescaled data, so
    expand fits every order and flags the integrator's floor."""
    cfg = {"lattice": {"cutoff": 2}, "omega": 5.0,
           "initial": {"kind": "random-gevrey", "seed": 1, "amplitude": 1e-150},
           "solver": {"dt": 2.0 ** -7, "t_end": 2.0, "form": "v"}}
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    traj, out = tmp_path / "traj.jsonl", tmp_path / "exp.json"
    assert main(["simulate", "--config", str(tmp_path / "run.json"), "--out", str(traj)]) == 0
    assert main(["expand", "--traj", str(traj), "--order", str(order), "--out", str(out)]) == 0
    capsys.readouterr()
    rates = json.loads(out.read_text())["rates"]
    assert [r["order"] for r in rates] == list(range(1, order + 1))
    assert all(math.isfinite(r["slope"]) and r["n_samples"] >= 4 for r in rates)
    assert [r["floor_flag"] for r in rates] == [False] + [True] * (order - 1)


def test_helicity_nan_trajectory_exits_3(tmp_path, capsys):
    traj = _nan_trajectory(tmp_path / "nan.jsonl")
    out = tmp_path / "hel.csv"
    assert main(["helicity", "--traj", str(traj), "--out", str(out)]) == 3
    assert _stderr_error(capsys)["kind"] == "numerical"
    assert not out.exists()


@pytest.mark.parametrize("t", [None, "0.02"], ids=["null", "string"])
@pytest.mark.parametrize("command", [["expand", "--order", "1"], ["helicity"]],
                         ids=["expand", "helicity"])
def test_trajectory_time_not_a_number(pipeline, tmp_path, capsys, command, t):
    lines = pipeline["traj"].read_text().splitlines()
    rec = json.loads(lines[2])
    rec["t"] = t
    lines[2] = json.dumps(rec)
    traj = tmp_path / "traj.jsonl"
    traj.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main([command[0], "--traj", str(traj), *command[1:], "--out", str(out)]) == 2
    err = _stderr_error(capsys)
    assert err["kind"] == "config"
    assert f"line 3 key 't' must be a finite number, not {t!r}" in err["message"]
    assert not out.exists()


def _write_traj(path, header, records):
    path.write_text("\n".join(json.dumps(doc) for doc in [header, *records]) + "\n")


def _two_records(k):
    rec = {"t": 0.0, "field": {"modes": [
        {"k": k, "re": [0.0, 0.1, 0.0], "im": [0.0, 0.0, 0.0]}],
        "mean": [0.0, 0.0, 0.0]}}
    return [rec, dict(rec, t=0.1)]


_TRAJ_META = {"form": "v", "omega": 0.0, "dt": 0.1,
              "lattice": {"ell": ["1", "1", "1"], "cutoff": "2"}}


def test_trajectory_header_missing_key(tmp_path, capsys):
    meta = {k: v for k, v in _TRAJ_META.items() if k != "lattice"}
    traj = tmp_path / "nolattice.jsonl"
    _write_traj(traj, {"meta": meta}, _two_records([1, 0, 0]))
    for cmd in ("expand", "helicity"):
        argv = [cmd, "--traj", str(traj)] + (["--order", "1"] if cmd == "expand" else [])
        assert main(argv) == 2, cmd
        err = _stderr_error(capsys)
        assert err["kind"] == "config" and "lattice" in err["message"], cmd


@pytest.mark.parametrize("tail", ["", "\n\n  \n"], ids=["header-only", "trailing-blanks"])
def test_trajectory_without_samples(tmp_path, capsys, tail):
    """A file holding only its header line, with or without blank lines
    after it, is refused as holding no samples by every reader."""
    traj = tmp_path / "empty.jsonl"
    _write_traj(traj, {"meta": _TRAJ_META}, [])
    traj.write_text(traj.read_text() + tail)
    out = tmp_path / "out"
    for cmd in ("expand", "helicity"):
        argv = [cmd, "--traj", str(traj), "--out", str(out)]
        assert main(argv + (["--order", "1"] if cmd == "expand" else [])) == 2, cmd
        err = _stderr_error(capsys)
        assert err["kind"] == "config" and "no sample lines" in err["message"], cmd
        assert not out.exists()


def test_trajectory_unknown_mode(tmp_path, capsys):
    traj = tmp_path / "badmode.jsonl"
    _write_traj(traj, {"meta": _TRAJ_META}, _two_records([5, 0, 0]))
    assert main(["expand", "--traj", str(traj), "--order", "1"]) == 2
    err = _stderr_error(capsys)
    assert err["kind"] == "config" and "(5, 0, 0)" in err["message"]


def test_trajectory_header_not_object(tmp_path, capsys):
    traj = tmp_path / "listheader.jsonl"
    _write_traj(traj, [1, 2], _two_records([1, 0, 0]))
    assert main(["expand", "--traj", str(traj), "--order", "1"]) == 2
    err = _stderr_error(capsys)
    assert err["kind"] == "config" and "header" in err["message"]


@pytest.mark.parametrize("config", [
    [1],
    {"expansion": {"xi_windows": 3}},
    {"expansion": {"xi_windows": [["a", "b"]]}},
])
def test_trajectory_header_bad_config(tmp_path, capsys, config):
    """The header's config must be an object whose expansion block matches
    the config schema's; anything else exits 2, never a traceback."""
    traj = tmp_path / "badconfig.jsonl"
    _write_traj(traj, {"meta": dict(_TRAJ_META, config=config)}, _two_records([1, 0, 0]))
    assert main(["expand", "--traj", str(traj), "--order", "1"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "config" and "'config'" in err["message"]


def test_trajectory_record_not_object(tmp_path, capsys):
    traj = tmp_path / "listrecord.jsonl"
    _write_traj(traj, {"meta": _TRAJ_META}, _two_records([1, 0, 0])[:1] + [[1, 2]])
    assert main(["expand", "--traj", str(traj), "--order", "1"]) == 2
    err = _stderr_error(capsys)
    assert err["kind"] == "config" and "line 3" in err["message"]


def test_trajectory_refuses_a_non_zero_mean(pipeline, tmp_path, capsys):
    """A sample record with a non-zero mean exits 2 naming its line, on
    every reader, instead of a run that drops the mean; a zero mean and no
    mean give the same expansion bytes."""
    header, *records = pipeline["traj"].read_text().splitlines()
    written = []
    for mean in ([0, 0, 0], None, [1.0, 0.0, 0.5]):
        recs = [json.loads(line) for line in records]
        for rec in recs:
            rec["field"].pop("mean")
            if mean is not None:
                rec["field"]["mean"] = mean
        traj = tmp_path / "traj.jsonl"
        traj.write_text("\n".join([header] + [json.dumps(rec) for rec in recs]) + "\n")
        out = tmp_path / f"out{len(written)}.json"
        argv = ["--traj", str(traj), "--out", str(out)]
        if mean != [1.0, 0.0, 0.5]:
            assert main(["expand", "--order", "1"] + argv) == 0
            written.append(out.read_bytes())
            continue
        for cmd in (["expand", "--order", "1"], ["helicity"]):
            assert main(cmd + argv) == 2, cmd
            err = _stderr_error(capsys)
            assert err["kind"] == "config", cmd
            assert err["message"].startswith("trajectory line 2 has mean [1.0, 0.0, 0.5]"), cmd
            assert not out.exists()
    assert written[0] == written[1]


def test_trajectory_sample_line_cut_off(pipeline, tmp_path, capsys):
    """A sample line cut off mid-record exits 2 naming its line in the file,
    not json's line 1 of the one line it parsed."""
    lines = pipeline["traj"].read_text().splitlines()
    lines[3] = lines[3][:len(lines[3]) // 2]
    traj = tmp_path / "cut.jsonl"
    traj.write_text("\n".join(lines) + "\n")
    for cmd in ("expand", "helicity"):
        argv = [cmd, "--traj", str(traj)] + (["--order", "1"] if cmd == "expand" else [])
        assert main(argv) == 2, cmd
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "config", cmd
        assert err["message"].startswith("trajectory line 4 is not valid JSON: "), cmd


@pytest.mark.parametrize("header", ["", '{"meta": {"form": "v",', "not json"],
                         ids=["empty-file", "cut-off", "not-json"])
def test_trajectory_header_not_json(pipeline, tmp_path, capsys, header):
    """A header line that is not JSON exits 2 naming the header."""
    lines = pipeline["traj"].read_text().splitlines(keepends=True)
    traj = tmp_path / "badjson.jsonl"
    traj.write_text(header and header + "\n" + "".join(lines[1:]))
    assert main(["expand", "--traj", str(traj), "--order", "1"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "config"
    assert err["message"].startswith("trajectory header (line 1) is not valid JSON: ")


@pytest.mark.parametrize("key, value", [
    ("omega", None), ("omega", [1]), ("omega", "5"),
    ("dt", None), ("dt", "0.01"),
    ("form", ["v"]), ("form", "w"),
])
def test_trajectory_header_bad_value(pipeline, tmp_path, capsys, key, value):
    """A header value of the wrong type exits 2 naming the key, never a
    traceback or a run on data read in the wrong frame."""
    lines = pipeline["traj"].read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["meta"][key] = value
    traj = tmp_path / "badheader.jsonl"
    traj.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    for cmd in ("expand", "helicity"):
        argv = [cmd, "--traj", str(traj)] + (["--order", "1"] if cmd == "expand" else [])
        assert main(argv) == 2, cmd
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "config" and f"'{key}'" in err["message"], cmd


def test_trajectory_header_bad_rational(pipeline, tmp_path, capsys):
    """A header cutoff lattice cannot read exits 2 naming it, never a traceback."""
    lines = pipeline["traj"].read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["meta"]["lattice"]["cutoff"] = "1/0"
    traj = tmp_path / "badcutoff.jsonl"
    traj.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    for cmd in ("expand", "helicity"):
        argv = [cmd, "--traj", str(traj)] + (["--order", "1"] if cmd == "expand" else [])
        assert main(argv) == 2, cmd
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)["error"]
        assert err["message"] == "cutoff must be a rational number, not '1/0'", cmd


def test_output_directory_missing(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, solver={"dt": 0.01, "t_end": 0.02, "form": "v"})
    out = tmp_path / "nodir" / "traj.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert _stderr_error(capsys)["kind"] == "config"
    assert main(["spectrum", "--cutoff", "2", "--out", str(out)]) == 2
    assert _stderr_error(capsys)["kind"] == "config"


def test_expand_missing_trajectory(tmp_path, capsys):
    assert main(["expand", "--traj", str(tmp_path / "nope.jsonl"),
                 "--order", "1"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# helicity


def test_helicity_csv(pipeline, tmp_path):
    out = tmp_path / "hel.csv"
    assert main(["helicity", "--traj", str(pipeline["traj"]),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,helicity"
    assert len(lines) == 3002

    t0, h0 = lines[1].split(",")
    assert float(t0) == 0.0
    u0 = random_gevrey(build_lattice(cutoff=3), seed=11, sigma=1.0, amplitude=0.05)
    expected = helicity(u0)
    assert abs(float(h0) - expected) < 1e-12 * max(1.0, abs(expected))


# ---------------------------------------------------------------------------
# verify-special


def test_verify_special_helicity(capsys):
    assert main(["verify-special", "--case", "helicity",
                 "--omega", "5", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == "helicity"
    assert doc["pass"] is True
    assert all(c["pass"] for c in doc["checks"])
    names = {c["name"] for c in doc["checks"]}
    assert names == {"spectral_vs_series_rel", "aligned_data_helicity"}


def test_verify_special_ray_closed_form(capsys):
    assert main(["verify-special", "--case", "ray-closed-form"]) == 0
    doc = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["closed_form_rel_l2_error"]["value"] < 1e-8
    assert checks["invariant_line_leak"]["value"] < 1e-12


def test_verify_special_drift(capsys):
    assert main(["verify-special", "--case", "drift"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True

    # at omega=0 the exact pressure vanishes, so the zeroed-pressure control
    # cannot distinguish anything and the case honestly fails
    assert main(["verify-special", "--case", "drift", "--omega", "0"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    failing = [c["name"] for c in doc["checks"] if not c["pass"]]
    assert failing == ["zeroed_pressure_residual"]


@pytest.mark.parametrize("omega", ["1e308"])
def test_overflow_inside_a_command_exits_3(capsys, omega):
    """A finite rate whose rotation angles overflow exits 3 with one JSON
    error line on stderr and no warning, never 0 (an infinite one is a usage
    error: test_numeric_flag_refuses_bad_values); the message names the
    command before numpy's text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify-special", "--case", "helicity", "--omega", omega])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and caught == []
    assert len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "numerical"
    assert err["message"] == "verify-special: overflow encountered in multiply"


def test_simulate_blow_up_through_an_overflow_names_the_step(tmp_path, capsys):
    """Sparse data near the largest float overflow the closed support's
    product bound (fields._convolve) inside the first step, before the
    state is checked; the run still exits 3 with the integrator's message,
    which names the step."""
    lat = build_lattice(cutoff=6)
    C = np.zeros((lat.n_modes, 3), dtype=complex)
    rng = np.random.default_rng(0)
    for k in ([1, 0, 1], [0, 1, 1]):
        i = lat.index_of(np.array([k]))[0]
        z = lat.proj[i] @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        C[i], C[lat.conj_idx[i]] = z, np.conj(z)
    field_path = tmp_path / "u0.json"
    field_path.write_text(json.dumps(field_to_doc(SpectralField(lat, 5e307 * C))))
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, lattice={"cutoff": 6}, omega=5.0,
                  initial={"kind": "file", "path": str(field_path)},
                  solver={"dt": 0.05, "t_end": 1.0, "form": "v"})
    out = tmp_path / "traj.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "numerical"
    assert err["message"] == "simulate: state is not finite after step 1 of 20 (t = 0.05)"
    assert not out.exists()


def test_verify_special_unknown_case(capsys):
    assert main(["verify-special", "--case", "bogus"]) == 2
    assert _stderr_error(capsys)["kind"] == "config"


# ---------------------------------------------------------------------------
# sweep-omega


def _sweep_config(path):
    return _write_config(
        path,
        lattice={"cutoff": 2},
        omega=0.0,
        initial={"kind": "vk", "k": [0, 0, 1],
                 "coefficients": {"1": [[0.4, 0.0], [0.0, 0.3], [0.0, 0.0]]}},
        solver={"dt": 5e-3, "t_end": 2.0, "form": "v"},
        expansion={},
    )


def test_sweep_omega_vertical_halving(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    _sweep_config(cfg_path)
    T = math.pi / 15
    assert main(["sweep-omega", "--config", str(cfg_path),
                 "--omegas", "10,20,40,80", "--T", repr(T)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["omega"] == [10.0, 20.0, 40.0, 80.0]
    assert doc["T"] == T
    norms = doc["qbar_norm"]
    # averaging a vertical-ray mode over T = pi/15 halves the norm at each
    # doubling: |cos(omega T / 2)| = 1/2 exactly for omega = 10,20,40,80
    for ratio in doc["ratio"]:
        assert abs(ratio - 0.5) < 1e-9
    assert norms[0] > norms[-1]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_sweep_omega_undefined_ratio_is_null(tmp_path, capsys):
    """A horizontal ray has no first-order average, so its ratio is undefined."""
    cfg_path = tmp_path / "sweep.json"
    cfg = _sweep_config(cfg_path)
    cfg["initial"] = {"kind": "vk", "k": [1, 1, 0],
                      "coefficients": {"1": [[0.2, 0.0], [-0.2, 0.0], [0.0, 0.1]]}}
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep-omega", "--config", str(cfg_path),
                 "--omegas", "10,20", "--T", "0.2"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["qbar_norm"][0] == 0.0
    assert doc["ratio"] == [None]


def test_non_finite_output_exits_3(capsys, monkeypatch):
    def nan_check(omega, seed):
        return [{"name": "x", "value": float("nan"), "tol": 1.0,
                 "comparison": "<=", "pass": True}]

    monkeypatch.setattr("rotspec.cli._case_helicity", nan_check)
    assert main(["verify-special", "--case", "helicity"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "numerical"


def test_sweep_omega_needs_two_points(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    _sweep_config(cfg_path)
    assert main(["sweep-omega", "--config", str(cfg_path),
                 "--omegas", "10", "--T", "0.2"]) == 2
    capsys.readouterr()


def test_sweep_omega_ragged_records_exit_before_integrating(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "sweep.json"
    cfg = _sweep_config(cfg_path)
    cfg["solver"].update(t_end=3.0, record_stride=7)  # 600 steps
    cfg_path.write_text(json.dumps(cfg))

    def refuse(*args, **kwargs):
        raise AssertionError("integrated a run that records a ragged sample")

    monkeypatch.setattr("rotspec.cli.integrate", refuse)
    assert main(["sweep-omega", "--config", str(cfg_path),
                 "--omegas", "10,20", "--T", "0.2"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "config"
    assert "does not divide the 600 steps" in err["message"]


@pytest.mark.parametrize("flag, value", [("--T", "0"), ("--T", "-0.2"), ("--T", "nan"),
                                         ("--T", "inf"), ("--T", "-inf"), ("--t", "nan"),
                                         ("--t", "inf"), ("--t", "-inf")])
def test_sweep_omega_checks_window_and_time_before_integrating(tmp_path, capsys, monkeypatch,
                                                               flag, value):
    """A --T that is not finite and positive, or a --t that is not finite,
    is a config error, reported as one JSON line before any rate is
    integrated."""
    cfg_path = tmp_path / "sweep.json"
    _sweep_config(cfg_path)

    def refuse(*args, **kwargs):
        raise AssertionError("integrated a sweep with a bad window or time")

    monkeypatch.setattr("rotspec.cli.integrate", refuse)
    values = {"--T": "0.2", "--t": "0.0", flag: value}
    assert main(["sweep-omega", "--config", str(cfg_path), "--omegas", "10,20"]
                + [f"{f}={v}" for f, v in values.items()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "config" and flag in err["message"]


@pytest.mark.parametrize("omegas", ["nan,10", "inf,10", "10,-inf"])
def test_sweep_omega_refuses_non_finite_rates_before_integrating(tmp_path, capsys, monkeypatch,
                                                                omegas):
    """A rotation rate that is not finite is a config error, reported as one
    JSON line, with no warning, before any rate is integrated."""
    cfg_path = tmp_path / "sweep.json"
    _sweep_config(cfg_path)

    def refuse(*args, **kwargs):
        raise AssertionError("integrated a sweep with a non-finite rate")

    monkeypatch.setattr("rotspec.cli.integrate", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep-omega", "--config", str(cfg_path), "--omegas", omegas,
                     "--T", "0.2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "config" and "omega must be finite" in err["message"]


@pytest.mark.parametrize("omegas", ["10,abc", "10,,20", "10;20"])
def test_sweep_omega_refuses_rates_that_are_not_numbers(tmp_path, capsys, monkeypatch, omegas):
    """An --omegas entry that is not a number is a config error naming
    --omegas, before any rate is integrated."""
    cfg_path = tmp_path / "sweep.json"
    _sweep_config(cfg_path)

    def refuse(*args, **kwargs):
        raise AssertionError("integrated a sweep with a rate that is not a number")

    monkeypatch.setattr("rotspec.cli.integrate", refuse)
    assert main(["sweep-omega", "--config", str(cfg_path), "--omegas", omegas,
                 "--T", "0.2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "config" and "--omegas" in err["message"]
    assert repr(omegas) in err["message"]


def test_sweep_omega_names_the_rate_whose_run_fails(tmp_path, capsys):
    """A rate whose run goes non-finite exits 3 naming that rate and the
    step the run stopped at."""
    cfg_path = tmp_path / "sweep.json"
    cfg = _sweep_config(cfg_path)
    cfg["lattice"] = {"cutoff": 3}
    cfg["initial"] = {"kind": "random-gevrey", "seed": 1, "amplitude": 1e4}
    cfg["solver"].update(dt=0.05, t_end=1.0)
    cfg_path.write_text(json.dumps(cfg))
    with np.errstate(all="ignore"):
        assert main(["sweep-omega", "--config", str(cfg_path), "--omegas", "10,-7.5",
                     "--T", "0.2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "numerical"
    assert err["message"].startswith("the run at omega = 10.0 failed: state is not finite "
                                     "after step ")


def test_simulate_refuses_a_non_finite_rate(tmp_path, capsys):
    """A config whose omega is NaN (which Python's JSON reads) exits 2."""
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, omega=float("nan"))
    assert "NaN" in cfg_path.read_text()
    out = tmp_path / "traj.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = _stderr_error(capsys)
    assert err["kind"] == "config" and "omega must be finite" in err["message"]
    assert not out.exists()


NAN, INF = float("nan"), float("inf")
NON_FINITE = [  # (config block, its update, the key named, the value as named)
    ("initial", {"amplitude": NAN}, "initial.amplitude", "nan"),
    ("initial", {"sigma": NAN}, "initial.sigma", "nan"),
    ("initial", {"amplitude": INF}, "initial.amplitude", "inf"),
    ("initial", {"sigma": INF}, "initial.sigma", "inf"),
    ("output", {"gevrey_norms": [[NAN, 0.1], [0.5, INF]]}, "output.gevrey_norms[0][0]", "nan"),
    ("output", {"gevrey_norms": [[0.0, 0.1], [0.5, INF]]}, "output.gevrey_norms[1][1]", "inf"),
    ("solver", {"t0": -INF}, "solver.t0", "-inf"),
    ("expansion", {"xi_windows": [[3.0, INF]]}, "expansion.xi_windows[0][1]", "inf"),
]


@pytest.mark.parametrize("command", ["simulate", "sweep-omega"])
@pytest.mark.parametrize("block, update, key, shown", NON_FINITE,
                         ids=[f"{key}={shown}" for *_, key, shown in NON_FINITE])
def test_config_refuses_non_finite_numbers(tmp_path, capsys, monkeypatch, command, block, update,
                                           key, shown):
    """A NaN or infinite number anywhere in a config (Python's JSON reads
    NaN, Infinity and -Infinity) exits 2 naming its key, before anything is
    integrated or written."""
    cfg_path = tmp_path / "cfg.json"
    cfg = _write_config(cfg_path)
    cfg[block] = {**cfg.get(block, {}), **update}
    cfg_path.write_text(json.dumps(cfg))

    def refuse(*args, **kwargs):
        raise AssertionError("integrated a config with a non-finite number")

    monkeypatch.setattr("rotspec.cli.integrate", refuse)
    out = tmp_path / "out.json"
    args = {"simulate": [], "sweep-omega": ["--omegas", "10,20", "--T", "0.2"]}[command]
    assert main([command, "--config", str(cfg_path), "--out", str(out), *args]) == 2
    err = _stderr_error(capsys)
    assert err == {"code": 2, "kind": "config", "message": f"{key} must be finite, not {shown}"}
    assert not out.exists()


def test_sweep_omega_has_no_order_flag(tmp_path, capsys, monkeypatch):
    """The sweep reads only q_1, so it takes no --order; an old command line
    that passes one is a usage error, reported as JSON before any run."""
    cfg_path = tmp_path / "sweep.json"
    _sweep_config(cfg_path)

    def refuse(*args, **kwargs):
        raise AssertionError("integrated a sweep with an unknown flag")

    monkeypatch.setattr("rotspec.cli.integrate", refuse)
    assert main(["sweep-omega", "--config", str(cfg_path), "--omegas", "10,20",
                 "--T", "0.2", "--order", "2"]) == 2
    err = _stderr_error(capsys)
    assert err["kind"] == "config"
    assert "--order" in err["message"]


def test_sweep_omega_honours_t0(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "sweep.json"
    cfg = _sweep_config(cfg_path)
    cfg["solver"].update(t0=0.5, t_end=2.5)
    cfg_path.write_text(json.dumps(cfg))
    runs = []

    def keep(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr("rotspec.cli.integrate", keep)
    assert main(["sweep-omega", "--config", str(cfg_path),
                 "--omegas", "10,20", "--T", "0.2", "--t", "1.0"]) == 0
    capsys.readouterr()
    assert len(runs) == 2
    for traj in runs:
        assert traj.times[0] == 0.5
        assert traj.times[-1] == pytest.approx(2.5, abs=1e-12)


def _spy_integrate(monkeypatch):
    configs = []

    def keep(u0, config):
        configs.append(config)
        return integrate(u0, config)

    monkeypatch.setattr("rotspec.cli.integrate", keep)
    return configs


def test_sweep_omega_u_form_matches_library_chain(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "sweep.json"
    cfg = _sweep_config(cfg_path)
    cfg["solver"]["form"] = "u"
    cfg_path.write_text(json.dumps(cfg))
    configs = _spy_integrate(monkeypatch)
    T, t = 0.2, 0.3
    assert main(["sweep-omega", "--config", str(cfg_path), "--omegas", "10,20",
                 "--T", repr(T), "--t", repr(t)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c.form for c in configs] == ["u", "u"]

    lat = build_lattice(cutoff=2)
    u0 = VkData((0, 0, 1), {1: np.array([0.4 + 0.0j, 0.3j, 0.0j])}).field(lat)
    want = []
    for omega in (10.0, 20.0):
        traj = integrate(u0, SolverConfig(dt=5e-3, t_end=2.0, omega=omega, form="u"))
        exp = expand(transform_trajectory(traj, "v"), 1)
        want.append(time_average_Q(to_u_expansion(exp)[0][1], T).evaluate(t).norm())
    assert doc["qbar_norm"] == want


def test_simulate_and_sweep_read_the_same_solver_block(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg = _sweep_config(cfg_path)
    cfg["solver"] = {"dt": 1 / 128, "t0": 0.5, "t_end": 1.5, "form": "u", "record_stride": 2}
    cfg_path.write_text(json.dumps(cfg))
    configs = _spy_integrate(monkeypatch)
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "traj.jsonl")]) == 0
    assert main(["sweep-omega", "--config", str(cfg_path),
                 "--omegas", "10,20", "--T", "0.2"]) == 0
    capsys.readouterr()
    simulated, *swept = configs
    assert simulated == SolverConfig(dt=1 / 128, t_end=1.5, omega=0.0, form="u",
                                     record_stride=2, t0=0.5)
    assert [c.omega for c in swept] == [10.0, 20.0]
    assert [dataclasses.replace(c, omega=cfg["omega"]) for c in swept] == [simulated] * 2


# ---------------------------------------------------------------------------
# report


def test_report_expansion_csv(pipeline, tmp_path):
    out = tmp_path / "series.csv"
    assert main(["report", "--report", str(pipeline["report"]),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,remainder_0,remainder_1"
    assert len(lines) == 3002
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) < float(first[1])


def test_report_sweep_csv(tmp_path, capsys):
    doc_path = tmp_path / "sweep.json"
    doc_path.write_text(json.dumps({"omega": [1.0, 2.0],
                                    "qbar_norm": [0.5, 0.25]}))
    assert main(["report", "--report", str(doc_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["omega,qbar_norm", "1.0,0.5", "2.0,0.25"]


def test_report_degenerate_and_bad(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["report", "--report", str(empty)]) == 0
    assert capsys.readouterr().out.splitlines() == ["t"]

    weird = tmp_path / "weird.json"
    weird.write_text(json.dumps({"x": 1}))
    assert main(["report", "--report", str(weird)]) == 2
    capsys.readouterr()

    assert main(["report", "--report", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("doc", [
    {"series": [1]},
    {"qbar_norm": [1]},
    {"series": {"t": 5}},
    {"series": {"t": [0.1], "remainder": 3}},
])
def test_report_wrong_shape(tmp_path, capsys, doc):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert main(["report", "--report", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.err)["error"]["kind"] == "config"
    assert not out.exists()


# ---------------------------------------------------------------------------
# usage errors


@pytest.mark.parametrize("argv, message", [
    (["expand", "--order", "two"], "invalid int value"),
    (["expand", "--order", "1"], "--traj"),
    (["frobnicate"], "invalid choice"),
])
def test_usage_errors_are_json(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["kind"] == "config" and message in err["message"]


def test_help_still_prints_help(capsys):
    with pytest.raises(SystemExit) as e:
        main(["expand", "--help"])
    assert e.value.code == 0
    assert "--traj" in capsys.readouterr().out


def _numeric_flags():
    """(subcommand, flag, its type, the name its errors give) for every
    option the parser converts, and for the rationals lattice reads."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    typed = [(command, action.option_strings[0], action.type, action.option_strings[0])
             for command, parser in subparsers.choices.items()
             for action in parser._actions if action.type is not None]
    return typed + [("spectrum", flag, None, name)
                    for flag, name in (("--L", "ell"), ("--cutoff", "cutoff"), ("--cap", "cap"))]


NUMERIC_FLAGS = _numeric_flags()
_FLAG_IDS = [f"{command}{flag}" for command, flag, _, _ in NUMERIC_FLAGS]


def test_numeric_flags_are_enumerated():
    assert sorted(flag for _, flag, _, _ in NUMERIC_FLAGS) == sorted(
        ["--L", "--cutoff", "--cap", "--order", "--norm", "--omega", "--seed",
         "--omegas", "--T", "--t"])


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A cutoff-2 config and its 64-sample trajectory."""
    root = tmp_path_factory.mktemp("numeric_flags")
    cfg_path = root / "config.json"
    _write_config(cfg_path, lattice={"cutoff": 2}, expansion={},
                  solver={"dt": 0.01, "t_end": 0.63, "form": "v"})
    traj_path = root / "traj.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(traj_path)]) == 0
    return {"spectrum": ["--cutoff", "2"],
            "expand": ["--traj", str(traj_path), "--order", "1"],
            "verify-special": ["--case", "drift"],
            "sweep-omega": ["--config", str(cfg_path), "--omegas", "10,20", "--T", "0.2"]}


def _run_flag(argv, capsys):
    """(exit code, stdout, stderr) of main(argv), which must warn nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    assert caught == [] and "Traceback" not in captured.err
    return code, captured.out, captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "", "abc", "1/0"])
@pytest.mark.parametrize("command, flag, kind, name", NUMERIC_FLAGS, ids=_FLAG_IDS)
def test_numeric_flag_refuses_bad_values(small_run, capsys, monkeypatch, command, flag, kind,
                                         name, value):
    """Every numeric flag goes through a checked converter (no bare int or
    float), and every value that is not a finite number of its kind exits 2
    with one JSON line naming the flag or the parameter, before anything is
    read or integrated."""
    assert kind not in (int, float)

    def refuse(*args, **kwargs):
        raise AssertionError(f"ran on {flag}={value!r}")

    monkeypatch.setattr("rotspec.cli.integrate", refuse)
    monkeypatch.setattr("rotspec.cli.trajectory_from_jsonl", refuse)
    code, out, err = _run_flag([command] + small_run[command] + [f"{flag}={value}"], capsys)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert error["kind"] == "config" and name in error["message"]


@pytest.mark.parametrize("command, flag, kind, name", NUMERIC_FLAGS, ids=_FLAG_IDS)
def test_numeric_flag_at_a_huge_value(small_run, capsys, command, flag, kind, name):
    """A huge finite value may run, or exit 2, 3 or 4, but never with a
    traceback or a warning, and an error is one JSON line."""
    ints = ["1000000000", "9" * 400]  # the second is past the largest float
    values = {"--order": ints, "--seed": ints, "--norm": ["1e308,1e308"],
              "--omegas": ["10,1e308"]}.get(flag, ["1e308"])
    for value in values:
        code, out, err = _run_flag([command] + small_run[command] + [f"{flag}={value}"], capsys)
        assert code in (0, 2, 3, 4), value
        if code in (2, 3):
            assert len(err.splitlines()) == 1 and "error" in json.loads(err)
        else:  # a run, or a verification that fails, writes its document and no error
            assert err == ""


# ---------------------------------------------------------------------------
# output redirection


def test_outdir_env_redirects_relative_paths(tmp_path, monkeypatch):
    outdir = tmp_path / "redirected"
    outdir.mkdir()
    monkeypatch.setenv(OUTDIR_ENV, str(outdir))
    assert main(["spectrum", "--cutoff", "2", "--out", "spec.json"]) == 0
    assert (outdir / "spec.json").is_file()

    absolute = tmp_path / "direct.json"
    assert main(["spectrum", "--cutoff", "2", "--out", str(absolute)]) == 0
    assert absolute.is_file()
    assert not (outdir / "direct.json").exists()


# ---------------------------------------------------------------------------
# start-up


def test_import_of_the_cli_leaves_orjson_unloaded():
    """Every command that writes JSON, a document or a trajectory, imports
    orjson when it writes; importing the command line does not load it."""
    src = str(Path(rotspec.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, rotspec.cli; print('orjson' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert (run.returncode, run.stdout.strip()) == (0, "False"), run.stderr
