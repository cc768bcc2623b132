"""Ground-truth computations used for verification and baselines.

Nothing here is part of the first-order solver path: these routines may use
second-order information, linear solves and tight sub-solves, because their
job is to be far more accurate than the methods under test.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, NumericFailure, PreconditionViolation
from .oracles import BilevelProblem, Vector, _inner, draw_token
from .runs import RunResult, drive


def solve_lower_level(problem: BilevelProblem, x: Vector, tol: float = 1e-10,
                      max_steps: int = 10**6, y0: Vector | None = None) -> Vector:
    """y*(x) to ||grad_y g|| <= tol.

    Uses the closed form when the problem carries analytics, otherwise exact
    gradient descent with step 1/l_g1.
    """
    if problem.analytics is not None:
        return problem.analytics.y_star(x)
    y = np.zeros(problem.dim_y) if y0 is None else np.array(y0, dtype=float)
    step = 1.0 / problem.constants.l_g1
    for _ in range(max_steps):
        g = problem.grad_g_y(x, y, None)
        if float(np.linalg.norm(g)) <= tol:
            return y
        y = y - step * g
    raise NumericFailure(
        f"lower-level solve did not reach tol={tol} in {max_steps} steps",
        x=np.array(x), tol=tol)


def solve_penalized(problem: BilevelProblem, x: Vector, lam: float,
                    tol: float = 1e-10, max_steps: int = 10**6,
                    y0: Vector | None = None) -> Vector:
    """Minimizer over y of f + lam * g, to ||grad|| <= tol."""
    if problem.analytics is not None:
        return problem.analytics.y_star_lambda(x, lam)
    y = np.zeros(problem.dim_y) if y0 is None else np.array(y0, dtype=float)
    c = problem.constants
    step = 1.0 / (c.l_f1 + lam * c.l_g1)
    for _ in range(max_steps):
        g = problem.grad_f_y(x, y, None) + lam * problem.grad_g_y(x, y, None)
        if float(np.linalg.norm(g)) <= tol:
            return y
        y = y - step * g
    raise NumericFailure(
        f"penalized solve did not reach tol={tol} in {max_steps} steps",
        x=np.array(x), lam=lam, tol=tol)


def hyper_objective(problem: BilevelProblem, x: Vector, tol: float = 1e-10) -> float:
    """F(x) = f(x, y*(x)), composed through a lower-level solve."""
    if problem.value_f is None:
        raise InvalidArgumentError("problem exposes no objective values")
    return problem.value_f(x, solve_lower_level(problem, x, tol=tol))


def exact_hypergradient(problem: BilevelProblem, x: Vector,
                        y_star: Vector) -> Vector:
    """Total gradient of F at x, given y_star solved to high accuracy.

    Computes grad_x f - J_gxy . (H_gyy)^-1 . grad_y f at (x, y_star) through
    a Cholesky solve; the Hessian is never inverted explicitly.
    """
    if problem.second_order is None:
        raise InvalidArgumentError("problem declares no second-order oracle")
    so = problem.second_order
    H = np.atleast_2d(np.asarray(so.hess_g_yy(x, y_star), dtype=float))
    J = np.atleast_2d(np.asarray(so.jac_g_xy(x, y_star), dtype=float))
    fy = problem.grad_f_y(x, y_star, None)
    try:
        cho = np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("lower-level Hessian not positive definite",
                             x=np.array(x)) from exc
    v = np.linalg.solve(cho.T, np.linalg.solve(cho, fy))
    return problem.grad_f_x(x, y_star, None) - J @ v


def proxy_gradient(problem: BilevelProblem, x: Vector, lam: float,
                   y_lambda: Vector, y_star: Vector) -> Vector:
    """First-order penalty proxy for the hypergradient.

    grad_x f(x, y_lambda) + lam * (grad_x g(x, y_lambda) - grad_x g(x, y_star)),
    where y_lambda minimizes f + lam*g and y_star minimizes g.  Requires lam
    at or above the strong-convexity threshold 2 l_f1 / mu_g.
    """
    c = problem.constants
    if lam < c.lambda_min * (1.0 - 1e-12):
        raise PreconditionViolation(
            f"multiplier {lam} below threshold 2 l_f1 / mu_g = {c.lambda_min}")
    return (problem.grad_f_x(x, y_lambda, None)
            + lam * (problem.grad_g_x(x, y_lambda, None)
                     - problem.grad_g_x(x, y_star, None)))


def bias_bound_check(problem: BilevelProblem, x: Vector,
                     lam: float) -> tuple[float, float, bool]:
    """Measured proxy bias at (x, lam) against the certified bound.

    Returns (||grad F - proxy||, C_lambda / lam, pass).  A small absolute
    slack absorbs solve round-off.
    """
    x = np.asarray(x, dtype=float)
    y_star = solve_lower_level(problem, x)
    y_lam = solve_penalized(problem, x, lam)
    proxy = proxy_gradient(problem, x, lam, y_lam, y_star)
    if problem.analytics is not None:
        grad_F = problem.analytics.grad_F(x)
    else:
        grad_F = exact_hypergradient(problem, x, y_star)
    measured = float(np.linalg.norm(grad_F - proxy))
    bound = problem.constants.C_lambda / lam
    return measured, bound, measured <= bound + 1e-10


def finite_difference_grad(scalar_map: Callable[[Vector], float], x: Vector,
                           h: float = 1e-5) -> Vector:
    """Central differences per coordinate; error O(h^2) for smooth maps."""
    if h <= 0:
        raise InvalidArgumentError("finite-difference step must be positive")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        hi = scalar_map(x + e)
        lo = scalar_map(x - e)
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NumericFailure("non-finite value in finite differencing",
                                 coordinate=i, x=x.copy())
        out[i] = (hi - lo) / (2.0 * h)
    return out


def _analytic_state(an, l_g1: float, x, y, z, lam: float) -> dict:
    """dist_y_sq = ||y - y*_lam(x)||^2, dist_z_sq = ||z - y*(x)||^2 and the
    potential F(x) - F* + l_g1 lam dist_y_sq + 1/2 lam l_g1 dist_z_sq, from
    the closed forms ``an`` (a ``ProblemAnalytics``), of one state or of
    replicate rows (one value per row).  A term whose inputs are absent (z
    None, lam not positive or not finite) is left out."""
    row = {}
    if lam > 0:
        d = y - an.y_star_lambda(x, lam)
        row["dist_y_sq"] = _inner(d, d)
    if z is not None:
        d = z - an.y_star(x)
        row["dist_z_sq"] = _inner(d, d)
    if len(row) == 2 and math.isfinite(lam):
        row["potential"] = (an.F_value(x) - an.F_star
                            + l_g1 * lam * row["dist_y_sq"]
                            + 0.5 * lam * l_g1 * row["dist_z_sq"])
    return row


class Diagnostics:
    """Checkpoint-time evaluator shared by all run loops.

    mode: "auto" uses closed forms when the problem has analytics and records
    no hypergradient otherwise; "second-order" computes the exact
    hypergradient through solves (cost per checkpoint: one lower-level
    solve); "fd" differentiates the composed objective; "none" disables
    hypergradient reporting.  Objective values are recorded for dataset-style
    problems (no analytics, value oracles present).
    """

    def __init__(self, problem: BilevelProblem, mode: str = "auto",
                 fd_step: float = 1e-6):
        if mode not in ("auto", "analytic", "second-order", "fd", "none"):
            raise InvalidArgumentError(f"unknown diagnostics mode {mode!r}")
        if mode == "auto":
            mode = "analytic" if problem.analytics is not None else "none"
        if mode == "analytic" and problem.analytics is None:
            raise InvalidArgumentError("analytic diagnostics need analytics")
        elif mode == "second-order" and problem.second_order is None:
            raise InvalidArgumentError("second-order diagnostics need the oracle")
        elif mode == "fd" and (problem.value_f is None or problem.dim_x > 32):
            raise InvalidArgumentError(
                "fd diagnostics need value_f and at most 32 upper dims")
        self.problem = problem
        self.mode = mode
        self.fd_step = fd_step
        self.kind = {"analytic": "exact", "second-order": "exact",
                     "fd": "fd", "none": "none"}[mode]
        self._warm_y: Vector | None = None

    def _y_star(self, x: Vector) -> Vector:
        y = solve_lower_level(self.problem, x, y0=self._warm_y)
        self._warm_y = y
        return y

    def grad_F_sq(self, x: Vector) -> float:
        if self.mode == "analytic":
            g = self.problem.analytics.grad_F(x)
        elif self.mode == "second-order":
            g = exact_hypergradient(self.problem, x, self._y_star(x))
        elif self.mode == "fd":
            g = finite_difference_grad(
                lambda xx: hyper_objective(self.problem, xx), x, self.fd_step)
        else:
            return math.nan
        return float(g @ g)

    def state_row(self, x: Vector, y: Vector, z: Vector | None,
                  lam: float) -> dict:
        row = {"grad_F_sq": self.grad_F_sq(x)}
        pb = self.problem
        if pb.analytics is not None:
            row.update(_analytic_state(pb.analytics, pb.constants.l_g1,
                                       x, y, z, lam))
        else:
            if pb.value_g is not None:
                row["train_loss"] = float(pb.value_g(x, y))
            if pb.value_f is not None:
                row["val_loss"] = float(pb.value_f(x, y))
        return row


def sobo_baseline_run(problem: BilevelProblem, K: int, seed: int,
                      alpha: float = 0.1, inner_steps: int = 10,
                      gamma: float | None = None,
                      x0: Vector | None = None, y0: Vector | None = None,
                      batch_size: int = 1, checkpoint_every: int | None = None,
                      grad_mode: str = "auto") -> RunResult:
    """Second-order baseline: hypergradient descent with exact linear solves.

    Per outer step: ``inner_steps`` stochastic lower-level gradient steps,
    then one x-step along the estimated hypergradient built from stochastic
    f-gradients and the exact second-order blocks.  Serves as the reference
    competitor in benchmark comparisons; full-scale approximate-inverse
    variants are out of scope.
    """
    if problem.second_order is None:
        raise PreconditionViolation("baseline requires a second-order oracle")
    if K < 0:
        raise InvalidArgumentError("iteration budget must be nonnegative")
    if alpha <= 0:
        raise PreconditionViolation("alpha must be positive")
    t_start = time.perf_counter()
    so = problem.second_order
    c = problem.constants
    gamma = 1.0 / c.l_g1 if gamma is None else gamma
    x = np.zeros(problem.dim_x) if x0 is None else np.array(x0, dtype=float)
    y = np.zeros(problem.dim_y) if y0 is None else np.array(y0, dtype=float)

    rng = np.random.default_rng(seed)
    R = int(rng.integers(0, K)) if K > 0 else 0
    f_noisy = problem.noise_regime.f_noisy
    g_noisy = problem.noise_regime.g_noisy
    diag = Diagnostics(problem, grad_mode)

    def row() -> dict:
        return dict(alpha=alpha, gamma=gamma,
                    **diag.state_row(x, y, None, math.nan))

    def step(due: bool) -> dict | None:
        nonlocal x, y
        for _ in range(inner_steps):
            tg = draw_token(rng, batch_size) if g_noisy else None
            y = y - gamma * problem.grad_g_y(x, y, tg)
        tf = draw_token(rng, batch_size) if f_noisy else None
        fy = problem.grad_f_y(x, y, tf)
        H = np.atleast_2d(np.asarray(so.hess_g_yy(x, y), dtype=float))
        v = np.linalg.solve(H, fy)
        tfx = draw_token(rng, batch_size) if f_noisy else None
        h = problem.grad_f_x(x, y, tfx) - np.atleast_2d(
            np.asarray(so.jac_g_xy(x, y), dtype=float)) @ v
        x = x - alpha * h
        return {"proxy_sq": float(h @ h)} if due else None

    checkpoints, series, x_R = drive(K, checkpoint_every,
                                     lambda: {"x": x, "y": y}, row, step, R=R)
    return RunResult(
        algorithm="SOBO", problem_name=problem.name, seed=seed, K=K, R=R,
        x_R=x_R, x_final=x, y_final=y, z_final=None, lambda_final=math.nan,
        checkpoints=checkpoints, series=series, grad_estimator=diag.kind,
        wall_time_s=time.perf_counter() - t_start)
