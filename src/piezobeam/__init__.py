"""Voltage-actuated piezoelectric beam models, fully dynamic or electrostatic.

Four beam variants (single layer or symmetric patch pair, each under
Euler-Bernoulli or Mindlin-Timoshenko kinematics) are discretized from their
energy functionals, so the assembled matrices inherit the continuous energy
balance exactly.  An implicit midpoint integrator, modal analysis, structure
checks and a small CLI sit on top.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConvergenceFailure,
    EnergyImbalance,
    IllegalRegime,
    InsufficientMeshes,
    InvalidGeometry,
    MeshSpecMismatch,
    MissingPatchMaterial,
    NonPositiveParameter,
    NotPositiveDefinite,
    OutOfDomain,
    ParseError,
    PiezobeamError,
    SingularElectricBlock,
    SingularStepMatrix,
    TooFewElements,
    UnknownKey,
    UnitViolation,
)
from .materials import (
    BeamGeometry,
    BoundaryCondition,
    DerivedCoefficients,
    MaterialParams,
    ModelSpec,
    Regime,
    ValidatedModelSpec,
    Variant,
    VoltageSignal,
    derive_coefficients,
    stretching_wave_speeds,
    validate_spec,
)
from .mesh import Mesh, build_mesh
from .layout import DofLayout, FieldState, build_layout, interpolate_field
from .forms import (
    EnergyBreakdown,
    PointwiseFields,
    energy_breakdown,
    eval_field_at,
    kinetic_energy,
    magnetic_energy,
    recover_pointwise,
    stored_energy,
    work_rate,
)
from .assembly import (
    SemiDiscreteSystem,
    apply_mechanical_bc,
    assemble,
    build_system,
    reduce_electrostatic,
)
from .solvers import (
    ModeSet,
    Trajectory,
    eigenmodes,
    simulate,
    solve_spd,
)
from .scenarios import (
    LimitStudy,
    ScenarioReport,
    check_patch_voltage_selectivity,
    check_single_beam_decoupling,
    mode_energy_fractions,
    classify_mode,
    pulse_time_of_flight,
    run_convergence_study,
    run_electrostatic_limit,
    static_solution,
)
from .config import (
    RunConfig,
    config_digest,
    heuristic_dt,
    parse_config,
    serialize_config,
)
