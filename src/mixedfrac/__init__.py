"""Numerical laboratory for the mixed exterior-data fractional eigenvalue problem.

Discretizes the principal-eigenvalue problem for the integral fractional
Laplacian on an interval with Dirichlet data on an exterior set D and the
nonlocal Neumann condition on the complementary exterior set N, and provides
the verification calculus (Gauss-type identities, far-field asymptotics,
integrability oracles) for moving-boundary family sweeps.
"""

from .errors import (
    BadParameters,
    ConfigError,
    DegenerateData,
    DivergentIntegral,
    EmptySet,
    IncompatibleScheme,
    InconclusiveClassification,
    IndefinitePencil,
    InvalidCells,
    MixedFarField,
    MixedFracError,
    NonConvergedQuadrature,
    OnBoundary,
    SingularExteriorBlock,
)
from .fracops import (
    FractionalOrder,
    KernelOrder,
    ModulusOfContinuity,
    NormalizationResult,
    dini_check,
    exterior_mass,
    exterior_mass_disk,
    indicator_seminorm_identity,
    make_order,
    normalization_constant,
    pair_integral,
    tail_mass,
)
from .geometry import (
    Domain1D,
    ExteriorPartition,
    ExteriorSet,
    PartitionFamily,
    condition_C,
    diffusion_report,
    family_param,
    generate,
    measure_in_ball,
    separation,
)
from .assembly import (
    Discretization,
    StiffnessSystem,
    assemble,
    brute_force_energy,
    build_mesh,
)
from .eigensolver import (
    DiscParams,
    EigenResult,
    SolverParams,
    dirichlet_baseline,
    full_dirichlet_partition,
    richardson_extrapolate,
    schur_reduce,
    smallest_eigenpair,
    solve_mixed,
)
from .nonlocal_ops import (
    DiscreteFunction,
    e_of_r,
    farfield_rate,
    gauss_residual,
    gauss_residual_relative,
    neumann_cell_residuals,
    neumann_value,
    nonlocal_normal,
    parts_residual,
    parts_residual_relative,
    phi_integrability,
    phi_potential,
)
from .experiments import (
    ExperimentConfig,
    ExperimentRecord,
    RunResult,
    emit,
    fit_rate,
    run,
)

__version__ = "0.1.0"
