"""Single-loop fully first-order solver with momentum-assisted estimators.

Six recursive gradient estimators replace the inner loop: each one refreshes
at the current point and carries over the previous buffer corrected by a
same-sample evaluation at the previous point, so the sampling noise cancels
in the correction term.  One outer iteration updates z, y, x in that order
and advances the multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericFailure
from .oracles import BilevelProblem, Vector, draw_token
from .runs import RunResult
from .schedule import Algorithm, ScheduleParams, advance
from .f2sa import SolverState, _proxy_row, _solver_run


@dataclass
class MomentumState:
    """The six estimator buffers plus the previous evaluation points.

    ``h_z`` estimates grad_g_y at (x, z); ``h_fy``/``h_gy`` the two y-channel
    gradients at (x, y); ``h_fx``/``h_gxy``/``h_gxz`` the x-channel gradients
    at (x, y) and (x, z).  Until ``initialized`` the buffers are unset and
    the first step uses plain sampled gradients (the forced eta=1 bootstrap).
    """

    h_z: Vector | None = None
    h_fy: Vector | None = None
    h_gy: Vector | None = None
    h_fx: Vector | None = None
    h_gxy: Vector | None = None
    h_gxz: Vector | None = None
    prev_x: Vector | None = None
    prev_y: Vector | None = None
    prev_z: Vector | None = None
    initialized: bool = False


def momentum_update(buffer: Vector, fresh_grad_at_current: Vector,
                    fresh_grad_at_previous: Vector, eta: float) -> Vector:
    """fresh_current + (1 - eta) * (buffer - fresh_previous).

    Both fresh gradients must come from the same sample token; only then does
    the correction term cancel the shared noise.
    """
    if not 0.0 < eta <= 1.0:
        raise InvalidArgumentError(f"eta must lie in (0, 1], got {eta}")
    return fresh_grad_at_current + (1.0 - eta) * (buffer - fresh_grad_at_previous)


def f3sa_step(state: SolverState, mom: MomentumState, problem: BilevelProblem,
              params: ScheduleParams, batch_size: int = 1,
              exact_z_error: bool = False) -> float | None:
    """One outer iteration of the momentum solver.

    Updates z, y, x in order.  The x-channel estimators refresh at
    (x_k, y_{k+1}) and (x_k, z_{k+1}) with one shared sample for the three
    g evaluations; their previous-point terms evaluate at (x_{k-1}, y_k) and
    (x_{k-1}, z_k).  Returns ||h_z - exact grad||^2 when ``exact_z_error`` is
    set (diagnostic for the estimator error recursion), else None.
    """
    s = state.schedule
    eta = s.eta_k if s.eta_k is not None else 1.0
    lam = s.lambda_k
    nr = problem.noise_regime
    x, y, z = state.x, state.y, state.z
    # eta == 1 wipes the correction term, so prev-point evaluations are
    # skipped entirely (also the bootstrap path while buffers are unset)
    momentum = mom.initialized and eta < 1.0
    px, py, pz = mom.prev_x, mom.prev_y, mom.prev_z

    tz = draw_token(state.rng, batch_size) if nr.g_noisy else None
    fz = problem.grad_g_y(x, z, tz)
    h_z = momentum_update(mom.h_z, fz, problem.grad_g_y(px, pz, tz), eta) \
        if momentum else fz
    z_new = z - s.gamma_k * h_z

    tfy = draw_token(state.rng, batch_size) if nr.f_noisy else None
    f_fy = problem.grad_f_y(x, y, tfy)
    tgy = draw_token(state.rng, batch_size) if nr.g_noisy else None
    f_gy = problem.grad_g_y(x, y, tgy)
    if momentum:
        h_fy = momentum_update(mom.h_fy, f_fy, problem.grad_f_y(px, py, tfy), eta)
        h_gy = momentum_update(mom.h_gy, f_gy, problem.grad_g_y(px, py, tgy), eta)
    else:
        h_fy, h_gy = f_fy, f_gy
    y_new = y - s.alpha_k * (h_fy + lam * h_gy)

    tfx = draw_token(state.rng, batch_size) if nr.f_noisy else None
    f_fx = problem.grad_f_x(x, y_new, tfx)
    tgx = draw_token(state.rng, batch_size) if nr.g_noisy else None
    f_gxy = problem.grad_g_x(x, y_new, tgx)
    f_gxz = problem.grad_g_x(x, z_new, tgx)
    if momentum:
        h_fx = momentum_update(mom.h_fx, f_fx, problem.grad_f_x(px, y, tfx), eta)
        h_gxy = momentum_update(mom.h_gxy, f_gxy, problem.grad_g_x(px, y, tgx), eta)
        h_gxz = momentum_update(mom.h_gxz, f_gxz, problem.grad_g_x(px, z, tgx), eta)
    else:
        h_fx, h_gxy, h_gxz = f_fx, f_gxy, f_gxz
    direction = h_fx + lam * (h_gxy - h_gxz)
    x_new = x - params.xi * s.alpha_k * direction
    if not (np.isfinite(x_new).all() and np.isfinite(y_new).all()
            and np.isfinite(z_new).all()):
        raise NumericFailure("momentum step produced non-finite iterates",
                             k=state.k)

    err = None
    if exact_z_error:
        e = h_z - problem.grad_g_y(x, z, None)
        err = float(e @ e)

    mom.h_z, mom.h_fy, mom.h_gy = h_z, h_fy, h_gy
    mom.h_fx, mom.h_gxy, mom.h_gxz = h_fx, h_gxy, h_gxz
    mom.prev_x, mom.prev_y, mom.prev_z = x, y, z
    mom.initialized = True
    state.x, state.y, state.z = x_new, y_new, z_new
    state.last_direction = direction
    state.schedule = advance(state.schedule, params)
    state.k += 1
    return err


def f3sa_run(problem: BilevelProblem, params: ScheduleParams, K: int,
             seed: int, x0: Vector | None = None, y0: Vector | None = None,
             z0: Vector | None = None, *, batch_size: int = 1,
             checkpoint_every: int | None = None, callbacks=(),
             grad_mode: str = "auto", check_constants: bool = True) -> RunResult:
    """Run K momentum-solver iterations; trace contract matches f2sa_run.

    Checkpoint rows additionally carry ``mom_err_z_sq``, the squared error of
    the z-channel estimator against the exact gradient at the point where it
    was refreshed.
    """
    if params.algorithm is not Algorithm.F3SA:
        raise InvalidArgumentError("params are not for the momentum solver")
    if K < 0:
        raise InvalidArgumentError("iteration budget must be nonnegative")
    mom = MomentumState()

    def step(state: SolverState, due: bool) -> dict | None:
        err = f3sa_step(state, mom, problem, params, batch_size,
                        exact_z_error=due)
        return {**_proxy_row(state), "mom_err_z_sq": err} if due else None

    return _solver_run("F3SA", problem, params, K, seed, x0, y0, z0, step,
                       checkpoint_every=checkpoint_every, callbacks=callbacks,
                       grad_mode=grad_mode, check_constants=check_constants)
