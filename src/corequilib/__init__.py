"""Axisymmetric equilibria of rotating self-gravitating gas around a rigid core.

The package builds discrete equilibrium densities rho(r, z) that balance
pressure, self-gravity, centrifugal lift, and the pull of a rigid central
core, under a fixed total mass.  The workhorse is a self-consistent-field
iteration with Anderson mixing; convergence and its typed failure modes map
the existence / non-existence structure of the underlying variational
problem.
"""

from .eos import (
    EosDomainError,
    EosInversionError,
    EosRangeError,
    Polytrope,
    QuadratureError,
    TabulatedEos,
)
from .field import (
    CoreRegion,
    CylGrid,
    DegenerateFieldError,
    GridError,
    boundary_mass_exceeds,
    random_blob_field,
    read_field_csv,
    rescale_to_mass,
    support_extent,
    total_mass,
    write_field_csv,
)
from .potential import (
    AxiKernel,
    CoreFieldReport,
    Environment,
    RotationLaw,
    bound_ratios,
    core_potential,
    ensemble_ratio_maxima,
    kernel_for,
    validate_core_potential,
)
from .energy import (
    BoundCheck,
    EnergyReport,
    ResidualStats,
    energy_with_potential,
    multiplier_bound_check,
    residual_with_potential,
)
from .lane_emden import (
    PolytropeStructure,
    integrate_lane_emden,
    polytrope_structure,
)
from .solver import (
    InitialGuess,
    LambdaBracketError,
    MassDriftError,
    Outcome,
    ProblemSpec,
    ScfConfig,
    ScfState,
    initial_field,
    mass_of_lambda,
    scf_step,
    solve,
    solve_lambda,
)
from .config import ConfigError, build_problem, effective_config, load_config_file
from .output import outcome_to_dict, write_scan_csv, write_solve_outputs
from .scan import ScanSpec, ScanTable, run_scan

__version__ = "0.1.0"
