"""Spectral toolbox for rotating incompressible flow on a periodic box.

Exact rational mode bookkeeping, Galerkin integration with an integrating
factor, a symbolic trigonometric-polynomial calculus, term-by-term long-time
expansions with fitted resonance constants, and closed-form special
solutions with their invariants.
"""

__version__ = "0.1.0"

from .lattice import (
    Lattice,
    LatticeError,
    SemigroupTable,
    build_lattice,
    rationalize_period,
    semigroup_table,
    spectrum_to_json,
    squarefree_decompose,
    stokes_spectrum,
)
from .fields import (
    SpectralField,
    advect,
    apply_A_power,
    apply_S,
    apply_expS,
    bilinear_B,
    bilinear_B_omega,
    eigen_restrict,
    field_from_json,
    field_to_json,
    gevrey_norm,
    inner,
    leray_project,
    low_pass,
    random_gevrey,
)
from .spoly import (
    Frequency,
    OdeResonanceError,
    SPoly,
    antiderivative,
    apply_expS_spoly,
    bilinear_spoly,
    integrate_term,
    mode_rotation_frequency,
    ode_solve,
    spoly_from_json,
    spoly_to_doc,
    spoly_to_json,
)
from .solver import (
    SolverConfig,
    Trajectory,
    energy_report,
    integrate,
    trajectory_from_jsonl,
    trajectory_to_jsonl,
    transform_trajectory,
)
from .expansion import (
    Expansion,
    FitPolicy,
    expand,
    fit_decay_rate,
    fit_log_slope,
    remainder_rate,
    time_average_Q,
    to_u_expansion,
    verify_expansion_system,
)
from .special import (
    DriftingSolution,
    MeanFlow,
    VkData,
    eval_on_grid,
    field_shift,
    helicity,
    helicity_series,
    linear_evolution,
    linear_expansion_terms,
    pde_residual,
    shift_trajectory,
    verify_ss_expansion,
)
