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
               "_triads", "_conv_plan", "_plan_entry", "_complex_kc", "_rotate_coeffs",
               "apply_expS", "eigen_restrict", "_ShellPlans", "_shell_plans", "_paired_frame",
               "_paired_rows", "_shell_rows", "_stack_block"],
    "lattice": ["rationalize_period", "spectrum_to_json", "_cross_matrix", "stokes_spectrum",
                "squarefree_decompose"],
    "spoly": ["integrate_term", "mode_rotation_frequency", "spoly_to_json",
              "spoly_from_json", "_pair_table"],
    "cli": ["_require_whole_records", "_CONTAINERS", "_encoder", "_scalars", "_layout"],
    "special": ["linear_expansion_terms", "field_shift", "eval_on_grid"],
    "expansion": ["FitPolicy", "_require_uniform", "_fit_chunks", "_FIT_BLOCK_BYTES",
                  "_order_samples", "_partial_sum", "_fast_pair_forcing", "fit_log_slope"],
}

# Each module's __all__, exactly.  A name that no other module imports says
# why it stays.
ALL = {
    "cli": None,
    "expansion": ["Expansion",  # README: the type expand returns
                  "expand", "verify_expansion_system", "remainder_rate", "fit_decay_rate",
                  "to_u_expansion", "time_average_Q"],
    "fields": ["SpectralField", "random_gevrey",
               "inner", "apply_S",  # the references criteria 02 and 03 compare against
               "advect",  # README: the one advection kernel
               "bilinear_B",  # the benchmark's probe (perfbench/layers.py)
               "field_to_doc", "field_from_doc"],
    "lattice": ["Lattice", "LatticeError", "SemigroupTable", "build_lattice",
                "semigroup_table", "spectrum_to_doc"],
    "solver": ["SolverConfig", "Trajectory", "integrate", "transform_trajectory",
               "energy_report",  # README contract
               "trajectory_to_jsonl", "trajectory_from_jsonl"],
    "special": ["VkData", "MeanFlow", "linear_evolution", "helicity", "helicity_series",
                "shift_trajectory",  # criterion 10 and item 14
                "DriftingSolution", "pde_residual",
                "verify_ss_expansion"],  # criterion 10 and item 14
    "spoly": ["Frequency",  # README: the key type of SPoly.terms
              "SPoly", "ode_solve", "antiderivative", "apply_expS_spoly", "bilinear_spoly",
              "OdeResonanceError", "spoly_to_doc",
              "spoly_from_doc"],  # README contract: reads spoly_to_doc's document back
}

# Per module, the private names it imports from other rotspec modules.
PRIVATE_IMPORTS = {
    "expansion": ["fields._gevrey_norms", "fields._rotated_products", "fields._shell_reps",
                  "spoly._sum_spoly"],
    "solver": ["fields._advect", "fields._angles", "fields._closed_frame",
               "fields._doc_rows", "fields._field_docs", "fields._fields_of",
               "fields._gevrey_norms", "fields._mirror", "fields._per_mode", "fields._rotate",
               "fields._rotate_by", "fields._strided"],
    "special": ["fields._J_VERT", "fields._along_k", "fields._apply_jk", "fields._gevrey_norms",
                "fields._modes_of", "fields._rotate_by"],
    "spoly": ["fields._lattice_frame", "fields._mirror", "fields._modes_of", "fields._rows"],
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


@pytest.mark.parametrize("module", MODULES)
def test_module_all_is_pinned(module):
    mod = importlib.import_module(f"rotspec.{module}")
    assert getattr(mod, "__all__", None) == ALL[module]


def test_private_imports_are_pinned():
    """Which private names cross a module boundary: the rotation and block
    loop stay inside fields (_rotated_products), and _lattice_frame is
    imported only by spoly, for _mirror."""
    found = {}
    for name in MODULES + ["__init__"]:
        tree = ast.parse((Path(rotspec.__file__).parent / f"{name}.py").read_text())
        names = sorted(f"{node.module}.{alias.name}" for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                       for alias in node.names
                       if alias.name.startswith("_") and not alias.name.startswith("__"))
        if names:
            found[name] = names
    assert found == PRIVATE_IMPORTS


def test_trimmed_signatures_and_knobs():
    from rotspec.expansion import expand, remainder_rate
    from rotspec.fields import convolve_advect
    from rotspec.lattice import SemigroupTable, build_lattice
    from rotspec.special import pde_residual
    from rotspec.spoly import Frequency, SPoly, bilinear_spoly, ode_solve

    assert list(inspect.signature(expand).parameters) == ["traj", "n_orders", "xi_windows"]
    assert list(inspect.signature(remainder_rate).parameters) == [
        "exp", "order", "window", "alpha", "sigma"]
    assert list(inspect.signature(SPoly.from_field).parameters) == ["u"]
    assert not hasattr(SPoly, "reality_error")
    assert list(inspect.signature(ode_solve).parameters) == ["beta", "p"]
    assert list(inspect.signature(bilinear_spoly).parameters) == ["f", "g"]
    assert not hasattr(Frequency, "scale")
    assert not hasattr(Frequency, "user")
    assert not hasattr(SemigroupTable, "is_eigenvalue")
    assert list(inspect.signature(build_lattice).parameters) == ["cutoff", "ell"]
    assert list(inspect.signature(convolve_advect).parameters) == ["lattice", "U", "V"]
    params = inspect.signature(pde_residual).parameters
    assert "fd_h" not in params
    assert params["velocity_dt"].default is inspect.Parameter.empty


def test_one_frame_kind():
    """Every frame lists its representative modes, then their partners, and
    owns plans built on those rows: a closed support on dense data is the
    lattice frame itself, and no plan is re-indexed from another."""
    from rotspec.fields import _Plan, _closed_frame, _lattice_frame, random_gevrey
    from rotspec.lattice import build_lattice

    lat = build_lattice(cutoff=4)
    frame = _lattice_frame(lat)
    reps = np.flatnonzero(lat.rep_mask)
    np.testing.assert_array_equal(frame.rows, np.r_[reps, lat.conj_idx[reps]])
    assert _closed_frame(lat, random_gevrey(lat, seed=1).coeffs) is frame
    assert not hasattr(_Plan, "reindexed")


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


# setuptools notes that its pyproject.toml support is beta each time it reads one
@pytest.mark.filterwarnings(r"ignore:Support for `\[tool.setuptools\]` in `pyproject.toml` "
                            r"is still \*beta\*")
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


def test_rotation_angles_only_in_fields_angles():
    """np.cos and np.sin are called in the package only inside
    fields._angles, the one rule for the angles rate k3til t."""
    def trig(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                and node.func.attr in ("cos", "sin"))

    inside, outside = [], []
    for name in MODULES + ["__init__"]:
        tree = ast.parse((Path(rotspec.__file__).parent / f"{name}.py").read_text())
        angles = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_angles"]
        owned = {id(n) for f in angles for n in ast.walk(f)} if name == "fields" else set()
        for node in filter(trig, ast.walk(tree)):
            (inside if id(node) in owned else outside).append((name, node.lineno))
    assert outside == []
    assert len(inside) == 2


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
