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
    make_eos,
)
from .field import (
    CoreRegion,
    CylGrid,
    DegenerateFieldError,
    DensityField,
    GridError,
    boundary_mass_exceeds,
    mask_is_radially_convex,
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
    elliptic_k,
    ensemble_ratio_maxima,
    kernel_for,
    rotation_potential,
    validate_core_potential,
)
from .energy import (
    BoundCheck,
    DilationRangeError,
    EnergyReport,
    ResidualStats,
    energy_with_potential,
    multiplier_bound_check,
    resample_dilated,
    residual_with_potential,
    scaling_energy_curve,
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
    outcome_to_dict,
    scf_step,
    solve,
    solve_lambda,
)
from .config import ConfigError, build_problem, effective_config, load_config_file
from .output import write_solve_outputs
from .scan import ScanSpec, ScanTable, run_scan, write_scan_csv

__version__ = "0.1.0"
