import numpy as np
import pytest

from rotspec.lattice import build_lattice
from rotspec.fields import random_gevrey
from rotspec.solver import SolverConfig, integrate
from rotspec.expansion import expand


@pytest.fixture(scope="session")
def cube6():
    return build_lattice(cutoff=6)


@pytest.fixture(scope="session")
def cube_run(cube6):
    """One long cube run shared by the expansion tests and the acceptance
    gate: seeded data, both evolution forms, and a two-order expansion.
    """
    v0 = random_gevrey(cube6, seed=7, sigma=1.0, amplitude=0.1)
    base = dict(dt=1e-3, t_end=12.0, omega=5.0, record_stride=1)
    trajv = integrate(v0, SolverConfig(form="v", **base))
    traju = integrate(v0, SolverConfig(form="u", **base))
    exp = expand(trajv, 2, xi_windows=((6.0, 8.0), (8.0, 10.0)))
    return {"v0": v0, "trajv": trajv, "traju": traju, "exp": exp}
