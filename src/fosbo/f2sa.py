"""Double-loop fully first-order solver.

Each outer iteration runs T inner gradient steps tracking the lower-level
minimizer (z) and the penalized minimizer (y), then takes one x step along
the penalty-proxy direction

    grad_x f(x, y) + lambda * (grad_x g(x, y) - grad_x g(x, z))

and grows the multiplier by the scheduled increment.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import InvalidArgumentError, NumericFailure
from .oracles import BilevelProblem, Vector, draw_token
from .reference import Diagnostics
from .runs import RunResult, drive
from .schedule import (Algorithm, ScheduleParams, ScheduleState, advance,
                       check_sweep, make_schedule)


@dataclass
class SolverState:
    """Mutable per-run state owned by a single run."""

    x: Vector
    y: Vector
    z: Vector
    schedule: ScheduleState
    k: int
    rng: np.random.Generator
    R: int | None = None
    last_direction: Vector | None = field(default=None, repr=False)


def init_state(problem: BilevelProblem, params: ScheduleParams, seed: int,
               x0: Vector | None = None, y0: Vector | None = None,
               z0: Vector | None = None, K: int | None = None,
               check_constants: bool = True) -> SolverState:
    """Fresh state at k=0.

    When ``K`` is given, the uniform evaluation index R is drawn immediately
    as the stream's first value, so token sequences line up with a full run.
    ``check_constants=False`` skips the multiplier-floor precondition, for
    problems whose attached constants are too coarse to tune against.
    """
    schedule = make_schedule(params,
                             problem.constants if check_constants else None)
    rng = np.random.default_rng(seed)
    R = None
    if K is not None:
        R = int(rng.integers(0, K)) if K > 0 else 0
    x = np.zeros(problem.dim_x) if x0 is None else np.array(x0, dtype=float).reshape(problem.dim_x)
    y = np.zeros(problem.dim_y) if y0 is None else np.array(y0, dtype=float).reshape(problem.dim_y)
    z = np.zeros(problem.dim_y) if z0 is None else np.array(z0, dtype=float).reshape(problem.dim_y)
    return SolverState(x=x, y=y, z=z, schedule=schedule, k=0, rng=rng, R=R)


def inner_z_step(state: SolverState, problem: BilevelProblem,
                 batch_size: int = 1) -> Vector:
    """One tracking step for the lower-level minimizer: z -= gamma_k * grad_g_y."""
    tok = draw_token(state.rng, batch_size) if problem.noise_regime.g_noisy else None
    z = state.z - state.schedule.gamma_k * problem.grad_g_y(state.x, state.z, tok)
    state.z = z
    return z


def inner_y_step(state: SolverState, problem: BilevelProblem,
                 batch_size: int = 1) -> Vector:
    """One penalized step: y -= alpha_k * (grad_f_y + lambda_k * grad_g_y).

    The two channels draw independent samples.
    """
    s = state.schedule
    nr = problem.noise_regime
    tf = draw_token(state.rng, batch_size) if nr.f_noisy else None
    tg = draw_token(state.rng, batch_size) if nr.g_noisy else None
    y = state.y - s.alpha_k * (problem.grad_f_y(state.x, state.y, tf)
                               + s.lambda_k * problem.grad_g_y(state.x, state.y, tg))
    state.y = y
    return y


def outer_x_step(state: SolverState, problem: BilevelProblem,
                 params: ScheduleParams, batch_size: int = 1,
                 share_x_token: bool = False) -> Vector:
    """The x update along the penalty-proxy direction.

    By default the two grad_g_x evaluations draw independent samples;
    ``share_x_token`` reuses one sample for both, which makes the noise
    cancel in their difference.
    """
    s = state.schedule
    nr = problem.noise_regime
    tfx = draw_token(state.rng, batch_size) if nr.f_noisy else None
    tg1 = draw_token(state.rng, batch_size) if nr.g_noisy else None
    tg2 = tg1 if share_x_token or not nr.g_noisy \
        else draw_token(state.rng, batch_size)
    direction = (problem.grad_f_x(state.x, state.y, tfx)
                 + s.lambda_k * (problem.grad_g_x(state.x, state.y, tg1)
                                 - problem.grad_g_x(state.x, state.z, tg2)))
    x = state.x - params.xi * s.alpha_k * direction
    state.x = x
    state.last_direction = direction
    return x


def f2sa_step(state: SolverState, problem: BilevelProblem,
              params: ScheduleParams, batch_size: int = 1,
              share_x_token: bool = False) -> SolverState:
    """One full outer iteration: T inner (z, y) steps, x step, multiplier
    increment.

    The iterates are checked for finiteness once, after the x step; a
    non-finite value met in any inner step propagates to that check, so
    NumericFailure names the outer iteration where it first appeared.
    """
    for _ in range(params.T):
        inner_z_step(state, problem, batch_size)
        inner_y_step(state, problem, batch_size)
    outer_x_step(state, problem, params, batch_size, share_x_token)
    if not (np.isfinite(state.x).all() and np.isfinite(state.y).all()
            and np.isfinite(state.z).all()):
        raise NumericFailure("outer step produced non-finite iterates",
                             k=state.k)
    state.schedule = advance(state.schedule, params)
    state.k += 1
    return state


def warn_condition_violations(params: ScheduleParams,
                              problem: BilevelProblem) -> None:
    """Emit a warning naming each step-size condition violated at k=0
    (non-fatal so ablation runs stay possible)."""
    violations = check_sweep(params, problem.constants, 1)
    if violations:
        warnings.warn(
            "schedule violates step-size conditions at k=0: "
            + ", ".join(violations), RuntimeWarning, stacklevel=4)


def _solver_run(algorithm: str, problem: BilevelProblem,
                params: ScheduleParams, K: int, seed: int, x0, y0, z0, step,
                *, checkpoint_every: int | None, grad_mode: str,
                check_constants: bool) -> RunResult:
    """The run both solvers share: seeded state, the condition advisory,
    rows of schedule values and state diagnostics, and ``drive`` over
    ``step(state, due)``."""
    t_start = time.perf_counter()
    state = init_state(problem, params, seed, x0, y0, z0, K=K,
                       check_constants=check_constants)
    warn_condition_violations(params, problem)
    diag = Diagnostics(problem, grad_mode)

    def row() -> dict:
        s = state.schedule
        return dict(alpha=s.alpha_k, gamma=s.gamma_k, beta=s.beta_k,
                    eta=s.eta_k, **{"lambda": s.lambda_k},
                    **diag.state_row(state.x, state.y, state.z, s.lambda_k))

    checkpoints, series, x_R = drive(
        K, checkpoint_every, lambda: {"x": state.x, "y": state.y, "z": state.z},
        row, partial(step, state), R=state.R)
    return RunResult(
        algorithm=algorithm, problem_name=problem.name, seed=seed, K=K,
        R=state.R, x_R=x_R, x_final=state.x, y_final=state.y, z_final=state.z,
        lambda_final=state.schedule.lambda_k,
        checkpoints=checkpoints, series=series, grad_estimator=diag.kind,
        wall_time_s=time.perf_counter() - t_start)


def _proxy_row(state: SolverState) -> dict:
    d = state.last_direction
    return {"proxy_sq": float(d @ d)}


def f2sa_run(problem: BilevelProblem, params: ScheduleParams, K: int,
             seed: int, x0: Vector | None = None, y0: Vector | None = None,
             z0: Vector | None = None, *, batch_size: int = 1,
             checkpoint_every: int | None = None,
             share_x_token: bool = False, grad_mode: str = "auto",
             check_constants: bool = True) -> RunResult:
    """Run K outer iterations from a seeded stream and collect a trace.

    Checkpoint rows record the state entering that iteration; the row's
    ``proxy_sq`` is the squared norm of the x direction computed during it.
    A final row at index K (present when the cadence divides K) records the
    post-run state.
    """
    if params.algorithm is not Algorithm.F2SA:
        raise InvalidArgumentError("params are not for the double-loop solver")
    if K < 0:
        raise InvalidArgumentError("iteration budget must be nonnegative")

    def step(state: SolverState, due: bool) -> dict | None:
        f2sa_step(state, problem, params, batch_size, share_x_token)
        return _proxy_row(state) if due else None

    return _solver_run("F2SA", problem, params, K, seed, x0, y0, z0, step,
                       checkpoint_every=checkpoint_every, grad_mode=grad_mode,
                       check_constants=check_constants)
