"""Fully first-order stochastic bilevel optimization.

Two solvers for  min_x f(x, y*(x))  with  y*(x) = argmin_y g(x, y)  that
never touch second derivatives: a double-loop scheme with a growing penalty
multiplier and a single-loop variant with same-sample momentum.  Both come
with the exact step-size and multiplier schedules required by their
convergence guarantees, plus reference oracles and a verification harness.
"""

from .batch import BatchResult, f2sa_run_batch, f3sa_run_batch
from .errors import (
    ConfigError,
    DataError,
    FosboError,
    InvalidArgumentError,
    NumericFailure,
    ParseError,
    PreconditionViolation,
)
from .f2sa import f2sa_run, f2sa_step, init_state
from .f3sa import MomentumState, f3sa_run, f3sa_step, momentum_update
from .oracles import (
    BilevelProblem,
    NoiseRegime,
    RegularityConstants,
    SampleToken,
    SecondOrderOracle,
    draw_token,
    gaussian_noise,
)
from .reference import (
    Diagnostics,
    bias_bound_check,
    exact_hypergradient,
    finite_difference_grad,
    hyper_objective,
    proxy_gradient,
    sobo_baseline_run,
    solve_lower_level,
    solve_penalized,
)
from .runs import RunResult
from .schedule import (
    Algorithm,
    ScheduleParams,
    ScheduleState,
    advance,
    check_sweep,
    default_params,
    make_schedule,
    run_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "BatchResult",
    "BilevelProblem",
    "ConfigError",
    "DataError",
    "Diagnostics",
    "FosboError",
    "InvalidArgumentError",
    "MomentumState",
    "NoiseRegime",
    "NumericFailure",
    "ParseError",
    "PreconditionViolation",
    "RegularityConstants",
    "RunResult",
    "SampleToken",
    "ScheduleParams",
    "ScheduleState",
    "SecondOrderOracle",
    "advance",
    "bias_bound_check",
    "check_sweep",
    "default_params",
    "draw_token",
    "exact_hypergradient",
    "f2sa_run",
    "f2sa_run_batch",
    "f2sa_step",
    "f3sa_run",
    "f3sa_run_batch",
    "f3sa_step",
    "finite_difference_grad",
    "gaussian_noise",
    "hyper_objective",
    "init_state",
    "make_schedule",
    "momentum_update",
    "proxy_gradient",
    "run_schedule",
    "sobo_baseline_run",
    "solve_lower_level",
    "solve_penalized",
]
