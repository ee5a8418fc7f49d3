"""The package's public names: each module's __all__ and the top-level imports agree."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import rotspec

MODULES = sorted(m.name for m in pkgutil.iter_modules(rotspec.__path__))


def _top_level_imports():
    """(module, public name) for every `from .module import name` in __init__."""
    tree = ast.parse(Path(rotspec.__file__).read_text())
    return [(node.module, alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names if not alias.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"rotspec.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def test_package_exports_are_in_module_all():
    imports = _top_level_imports()
    assert imports
    stray = [(mod, n) for mod, n in imports
             if n not in importlib.import_module(f"rotspec.{mod}").__all__]
    assert not stray


# -- the pinned surface -------------------------------------------------------

TOP_LEVEL = ["SolverConfig", "build_lattice", "expand", "integrate", "random_gevrey",
             "remainder_rate"]

DELETED = {
    "fields": ["leray_project", "apply_A_power", "low_pass", "bilinear_B_omega",
               "field_to_json", "field_from_json", "gevrey_norm", "_code_table", "_encode",
               "_triads", "_conv_plan", "_plan_entry", "_complex_kc"],
    "lattice": ["rationalize_period", "spectrum_to_json", "_cross_matrix"],
    "spoly": ["integrate_term", "mode_rotation_frequency", "spoly_to_json",
              "spoly_from_json", "_pair_table"],
    "cli": ["_require_whole_records"],
    "expansion": ["FitPolicy", "_require_uniform", "_fit_chunks", "_FIT_BLOCK_BYTES",
                  "_order_samples", "_partial_sum"],
}


def test_top_level_names_are_the_readme_quick_start():
    public = sorted(n for n in vars(rotspec) if not n.startswith("_")
                    and n not in MODULES)
    assert public == TOP_LEVEL
    readme = (Path(rotspec.__file__).parents[2] / "README.md").read_text()
    assert [n for n in TOP_LEVEL if n not in readme] == []


@pytest.mark.parametrize("module", sorted(DELETED))
def test_deleted_names_stay_deleted(module):
    mod = importlib.import_module(f"rotspec.{module}")
    assert [n for n in DELETED[module] if hasattr(mod, n)] == []


def test_trimmed_signatures_and_knobs():
    from rotspec.expansion import expand, remainder_rate
    from rotspec.lattice import SemigroupTable, build_lattice
    from rotspec.special import pde_residual
    from rotspec.spoly import Frequency, SPoly, ode_solve

    assert list(inspect.signature(expand).parameters) == ["traj", "n_orders", "xi_windows"]
    assert list(inspect.signature(remainder_rate).parameters) == [
        "exp", "order", "window", "alpha", "sigma"]
    assert list(inspect.signature(SPoly.from_field).parameters) == ["u"]
    assert not hasattr(SPoly, "reality_error")
    assert list(inspect.signature(ode_solve).parameters) == ["beta", "p"]
    assert not hasattr(Frequency, "scale")
    assert not hasattr(Frequency, "user")
    assert not hasattr(SemigroupTable, "is_eigenvalue")
    assert list(inspect.signature(build_lattice).parameters) == ["cutoff", "ell"]
    params = inspect.signature(pde_residual).parameters
    assert "fd_h" not in params
    assert params["velocity_dt"].default is inspect.Parameter.empty


def test_expansion_keeps_one_set_of_samples():
    """An expansion reads its times off its trajectory and sums only its cached samples."""
    from rotspec.expansion import expand
    from rotspec.lattice import build_lattice
    from rotspec.solver import Trajectory

    lat = build_lattice(cutoff=1)
    traj = Trajectory(lat, "v", 1.0, np.linspace(0.0, 1.0, 64),
                      np.zeros((64, lat.n_modes, 3), dtype=complex))
    exp = expand(traj, 1)
    assert exp.traj is traj
    assert not hasattr(exp, "partial_sum_coeffs")
    assert not hasattr(exp, "times")


def test_lattice_has_one_wave_vector_index():
    """index_of (and pair_index on mode indices) is the only lookup of a wave vector."""
    from rotspec.lattice import Lattice, build_lattice

    assert not hasattr(Lattice, "contains")
    assert not hasattr(Lattice, "_is_rep")
    assert not hasattr(build_lattice(cutoff=2), "mode_index")


def test_package_metadata_version_is_the_module_version():
    from setuptools.config.pyprojecttoml import read_configuration

    root = Path(rotspec.__file__).parents[2]
    config = read_configuration(root / "pyproject.toml")
    assert config["project"]["version"] == rotspec.__version__


def test_json_text_only_in_cli_and_solver():
    """The library's codecs take and return documents; only the command line
    and the trajectory stream read or write JSON text."""
    importers = []
    for name in MODULES + ["__init__"]:
        tree = ast.parse((Path(rotspec.__file__).parent / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(a.name == "json" for a in node.names) \
                    or isinstance(node, ast.ImportFrom) and node.module == "json":
                importers.append(name)
    assert sorted(set(importers)) == ["cli", "solver"]


# -- names the benchmark reads --------------------------------------------------

PERFBENCH = Path(rotspec.__file__).parents[2] / "perfbench"
# tracer targets that were already gone before this check was written
KNOWN_ABSENT = {("rotspec.cli", "spoly_to_json"), ("rotspec.solver", "convolve_advect"),
                ("rotspec.expansion", "convolve_advect")}
BENCH_NAMES = ["fields.bilinear_B", "fields.random_gevrey", "special.VkData.random",
               "special.linear_evolution", "solver.SolverConfig", "solver.integrate",
               "solver.trajectory_from_jsonl", "cli.main", "cli.integrate"]


def _tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.skipif(not (PERFBENCH / "tracer.py").is_file(), reason="no perfbench/")
def test_benchmark_patch_targets_resolve():
    tracer = _tracer()
    absent = {(owner, attr) for owner, attr, _ in tracer.PATCHES
              if not hasattr(tracer._resolve(owner) or object(), attr)}
    assert absent <= KNOWN_ABSENT


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench/")
@pytest.mark.parametrize("dotted", BENCH_NAMES)
def test_benchmark_names_resolve(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"rotspec.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)
