"""Spectral toolbox for rotating incompressible flow on a periodic box.

Exact rational mode bookkeeping, Galerkin integration with an integrating
factor, a symbolic trigonometric-polynomial calculus, term-by-term long-time
expansions with fitted resonance constants, and closed-form special
solutions with their invariants.

The top level holds the names of the README's quick start; everything else
is imported from its module (`rotspec.lattice`, `rotspec.fields`,
`rotspec.spoly`, `rotspec.solver`, `rotspec.expansion`, `rotspec.special`).
"""

__version__ = "0.5.0"

from .lattice import build_lattice
from .fields import random_gevrey
from .solver import SolverConfig, integrate
from .expansion import expand, remainder_rate
