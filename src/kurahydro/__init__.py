"""Finite-volume and characteristic solvers for an inertial mean-field
oscillator fluid on the circle, with gradient-threshold classification,
decay envelopes, and hysteresis sweeps."""

__version__ = "0.1.0"

from .domain import (
    FieldState,
    InitSpec,
    OmegaGrid,
    Params,
    RhoGaussian,
    RhoPointCell,
    RhoUniform,
    TableData,
    ThetaGrid,
    UConst,
    UCosine,
    USine,
    discretize_frequency,
    evaluate_du0,
    evaluate_u0,
    init_state,
    make_theta_grid,
    min_du0,
    normalize_slices,
    rho0_profile,
    wrap_angle,
)
from .meanfield import (
    OrderParam,
    ensemble_order_parameter,
    mean_field_force,
    order_parameter,
)
from .fv import MassClipError, cfl_dt, step_rk2
from .lagrangian import (
    CharEnsemble,
    evolve,
    pushforward_density,
    sample_initial,
)
from .diagnostics import (
    SERIES_COLUMNS,
    BlowupEvent,
    BlowupMonitor,
    RunResult,
    TimeSeries,
    diameters,
    dirac_distance_bound,
    energies,
    envelope_params,
    gronwall_bound,
    lyapunov,
    mean_phase,
    mean_velocity,
    min_grad_u,
    phase_envelope,
    r_infinity_prediction,
    velocity_envelope,
)
from .thresholds import (
    INDETERMINATE,
    SUBCRITICAL,
    SUPERCRITICAL,
    CriticalRoots,
    ThresholdVerdict,
    blowup_time_bound,
    classify,
    classify_value,
    critical_roots,
    riccati_comparison,
    subcritical_density_bound,
    supercritical_density_bound,
    supercritical_envelope,
)
from .experiments import (
    SweepResult,
    build_grids,
    build_state,
    hysteresis_sweep,
    marginalize,
    run_eulerian,
    run_lagrangian,
    run_scenario,
    steady_r,
)
from .config import (
    ScenarioConfig,
    SchemeConfig,
    SweepConfig,
    apply_overrides,
    format_rho0,
    format_wave,
    parse_config,
    parse_rho0,
    parse_wave_expression,
    resolve_config,
    serialize_config,
    write_config,
)
