"""Cascaded dirty-derivative estimation interconnected with continuous-time
optimization flows, plus the simulation and verification harness around them."""

from .estimator import (
    DirtyDerivativeConfig,
    DirtyDerivativeEstimator,
    LtiRealization,
    build_branch_block,
    build_estimator,
    build_f_block,
    closed_form_transfer,
    frequency_response,
    output_bound_constants,
    steady_state_sinusoid_error,
)
from .flows import (
    CorrectionMode,
    CostModel,
    LogCoshTrackingCost,
    QuadraticTrackingCost,
    check_redesign_condition,
    corrected_newton_rhs,
    cost_by_name,
    ideal_correction,
    lyapunov_gradients,
)
from .numerics import (
    SingularMatrixError,
    eig_extremes_symmetric,
    expm,
    lyapunov_solve,
    solve_linear,
)
from .record import (
    NonFiniteStateError,
    Trajectory,
    steady_state_sup,
    write_csvs,
)
from .signals import (
    AnalyticSignal,
    NoiseSpec,
    Polynomial,
    Sinusoid,
    benchmark_parameter_path,
    sinusoid_5t_minus_2,
)
from .sim import (
    InsufficientDataError,
    SimConfig,
    run_derivative_experiment,
    run_interconnection,
    run_interconnections,
    slope_fit,
    steady_state_errors,
)

__version__ = "0.1.0"
