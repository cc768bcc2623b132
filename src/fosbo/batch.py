"""Vectorized multi-replicate runs on quadratic problems.

Seed sweeps of the solvers on synthetic additive-noise quadratics are wide
but tiny: many independent replicates of a low-dimensional iteration.  The
engines here run all replicates at once as rows of (n_runs, dim) arrays,
which turns a 20-seed sweep into roughly the cost of a single run.  They
evaluate the problem's own oracles and closed forms on those rows and add
one noise array per oracle use.  Update formulas, schedules and the
same-sample momentum corrections match the per-seed solvers exactly; only
the noise bookkeeping differs (per-replicate rows of one master stream
instead of per-run token streams).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .oracles import _inner
from .problems.quadratic import QuadraticBilevel
from .reference import _analytic_state
from .runs import checkpoint_cadence, guard_state
from .schedule import Algorithm, ScheduleParams, run_schedule

@dataclass
class BatchResult:
    """Checkpointed diagnostics for a whole replicate sweep.

    ``series`` maps field names to (n_checkpoints, n_runs) arrays;
    ``schedule_series`` holds the shared (n_checkpoints,) schedule values.
    """

    algorithm: str
    problem_name: str
    master_seed: int
    n_runs: int
    K: int
    R: np.ndarray
    x_R: np.ndarray
    x_final: np.ndarray
    y_final: np.ndarray
    z_final: np.ndarray
    lambda_final: float
    checkpoints: np.ndarray
    series: dict[str, np.ndarray]
    schedule_series: dict[str, np.ndarray]
    wall_time_s: float = 0.0

    def seed_mean(self, name: str) -> np.ndarray:
        return self.series[name].mean(axis=1)

    def seed_stderr(self, name: str) -> np.ndarray:
        s = self.series[name]
        if s.shape[1] < 2:
            return np.zeros(s.shape[0])
        return s.std(axis=1, ddof=1) / math.sqrt(s.shape[1])


def _tile(v, n, dim, name):
    arr = np.zeros(dim) if v is None else np.asarray(v, dtype=float)
    if arr.ndim <= 1 and arr.size in (1, dim):
        arr = arr.reshape(-1)
    elif arr.shape != (n, dim):
        raise InvalidArgumentError(
            f"{name} must have 1 or {dim} entries or shape ({n}, {dim})")
    return np.broadcast_to(arr, (n, dim)).copy()


def _run_batch(quad: QuadraticBilevel, params: ScheduleParams, K: int,
               n_runs: int, master_seed: int, sigma_f: float, sigma_g: float,
               x0, y0, z0, batch_size: int, checkpoint_every: int | None,
               share_x_token: bool) -> BatchResult:
    if K < 0 or n_runs < 1:
        raise InvalidArgumentError("need K >= 0 and at least one replicate")
    t_start = time.perf_counter()
    S, dx, dy = n_runs, quad.dim_x, quad.dim_y
    X = _tile(x0, S, dx, "x0")
    Y = _tile(y0, S, dy, "y0")
    Z = _tile(z0, S, dy, "z0")

    rng = np.random.default_rng(master_seed)
    R = rng.integers(0, K, size=S) if K > 0 else np.zeros(S, dtype=int)
    x_R = X.copy()
    f_noisy = sigma_f > 0
    g_noisy = sigma_g > 0
    f2sa = params.algorithm is Algorithm.F2SA

    sched = run_schedule(params, K + 1)
    alphas = sched["alpha"].tolist()
    gammas = sched["gamma"].tolist()
    lams = sched["lambda"].tolist()
    etas = sched["eta"].tolist() if "eta" in sched else None
    xi, T = params.xi, params.T
    # the problem's own exact oracles, evaluated on replicate rows
    fx, fy = quad.grad_f_x_exact, quad.grad_f_y_exact
    gx, gy = quad.grad_g_x_exact, quad.grad_g_y_exact

    cadence = checkpoint_cadence(K, checkpoint_every)
    ck_ks: list[int] = []
    # per-replicate diagnostic series, one entry per checkpoint
    rows: dict[str, list] = {name: [] for name in (
        "grad_F_sq", "proxy_sq", "dist_y_sq", "dist_z_sq", "potential",
        "mom_err_z_sq")}
    problem = quad.to_problem()  # the closed forms and l_g1 of per-seed runs
    an, l_g1 = problem.analytics, problem.constants.l_g1

    def nf(sigma, d):
        return rng.standard_normal((S, d)) * (sigma / math.sqrt(d * batch_size))

    def record(k):
        guard_state(k, x=X, y=Y, z=Z)
        ck_ks.append(k)
        G = an.grad_F(X)
        rows["grad_F_sq"].append(_inner(G, G))
        for name, v in _analytic_state(an, l_g1, X, Y, Z, lams[k]).items():
            rows[name].append(v)
        rows["proxy_sq"].append(np.full(S, math.nan))
        rows["mom_err_z_sq"].append(np.full(S, math.nan))

    if f2sa:
        for k in range(K):
            due = k % cadence == 0
            if due:
                record(k)
            hit = R == k
            if hit.any():
                x_R[hit] = X[hit]
            alpha, gamma, lam = alphas[k], gammas[k], lams[k]
            for _ in range(T):
                Gz = gy(X, Z)
                if g_noisy:
                    Gz = Gz + nf(sigma_g, dy)
                Z = Z - gamma * Gz
                Fy = fy(X, Y)
                if f_noisy:
                    Fy = Fy + nf(sigma_f, dy)
                Gy = gy(X, Y)
                if g_noisy:
                    Gy = Gy + nf(sigma_g, dy)
                Y = Y - alpha * (Fy + lam * Gy)
            Fx = fx(X, Y)
            if f_noisy:
                Fx = Fx + nf(sigma_f, dx)
            Gxy = gx(X, Y)
            Gxz = gx(X, Z)
            if g_noisy:
                n1 = nf(sigma_g, dx)
                Gxy = Gxy + n1
                Gxz = Gxz + (n1 if share_x_token else nf(sigma_g, dx))
            D = Fx + lam * (Gxy - Gxz)
            X = X - xi * alpha * D
            if due:
                rows["proxy_sq"][-1] = _inner(D, D)
    else:
        Hz = Hfy = Hgy = Hfx = Hgxy = Hgxz = None
        pX = pY = pZ = None
        for k in range(K):
            due = k % cadence == 0
            if due:
                record(k)
            hit = R == k
            if hit.any():
                x_R[hit] = X[hit]
            alpha, gamma, lam, eta = alphas[k], gammas[k], lams[k], etas[k]
            momentum = pX is not None and eta < 1.0
            one_m = 1.0 - eta

            n_z = nf(sigma_g, dy) if g_noisy else 0.0
            f_z = gy(X, Z) + n_z
            # prev-point evals reuse the same draw, so the noise cancels
            Hz = f_z + one_m * (Hz - gy(pX, pZ) - n_z) if momentum else f_z
            Z_new = Z - gamma * Hz

            n_fy = nf(sigma_f, dy) if f_noisy else 0.0
            f_fy = fy(X, Y) + n_fy
            n_gy = nf(sigma_g, dy) if g_noisy else 0.0
            f_gy = gy(X, Y) + n_gy
            if momentum:
                Hfy = f_fy + one_m * (Hfy - fy(pX, pY) - n_fy)
                Hgy = f_gy + one_m * (Hgy - gy(pX, pY) - n_gy)
            else:
                Hfy, Hgy = f_fy, f_gy
            Y_new = Y - alpha * (Hfy + lam * Hgy)

            n_fx = nf(sigma_f, dx) if f_noisy else 0.0
            f_fx = fx(X, Y_new) + n_fx
            n_gx = nf(sigma_g, dx) if g_noisy else 0.0
            f_gxy = gx(X, Y_new) + n_gx
            f_gxz = gx(X, Z_new) + n_gx
            if momentum:
                Hfx = f_fx + one_m * (Hfx - fx(pX, Y) - n_fx)
                Hgxy = f_gxy + one_m * (Hgxy - gx(pX, Y) - n_gx)
                Hgxz = f_gxz + one_m * (Hgxz - gx(pX, Z) - n_gx)
            else:
                Hfx, Hgxy, Hgxz = f_fx, f_gxy, f_gxz
            D = Hfx + lam * (Hgxy - Hgxz)
            X_new = X - xi * alpha * D
            if due:
                rows["proxy_sq"][-1] = _inner(D, D)
                E = Hz - gy(X, Z)
                rows["mom_err_z_sq"][-1] = _inner(E, E)
            pX, pY, pZ = X, Y, Z
            X, Y, Z = X_new, Y_new, Z_new
    if K > 0 and K % cadence == 0:
        record(K)

    series = {name: np.array(vals) if vals else np.empty((0, S))
              for name, vals in rows.items()}
    ck = np.array(ck_ks, dtype=int)
    schedule_series = {name: sched[name][ck] if name in sched
                       else np.full(len(ck), math.nan)
                       for name in ("lambda", "alpha", "gamma", "beta", "eta")}
    return BatchResult(
        algorithm="F2SA" if f2sa else "F3SA", problem_name=quad.name,
        master_seed=master_seed, n_runs=S, K=K, R=R, x_R=x_R,
        x_final=X, y_final=Y, z_final=Z, lambda_final=lams[K],
        checkpoints=ck, series=series,
        schedule_series=schedule_series,
        wall_time_s=time.perf_counter() - t_start)


def f2sa_run_batch(quad: QuadraticBilevel, params: ScheduleParams, K: int,
                   n_runs: int, master_seed: int, sigma_f: float = 0.0,
                   sigma_g: float = 0.0, x0=None, y0=None, z0=None,
                   batch_size: int = 1, checkpoint_every: int | None = None,
                   share_x_token: bool = False) -> BatchResult:
    """Replicate sweep of the double-loop solver on one quadratic instance."""
    if params.algorithm is not Algorithm.F2SA:
        raise InvalidArgumentError("params are not for the double-loop solver")
    return _run_batch(quad, params, K, n_runs, master_seed, sigma_f, sigma_g,
                      x0, y0, z0, batch_size, checkpoint_every, share_x_token)


def f3sa_run_batch(quad: QuadraticBilevel, params: ScheduleParams, K: int,
                   n_runs: int, master_seed: int, sigma_f: float = 0.0,
                   sigma_g: float = 0.0, x0=None, y0=None, z0=None,
                   batch_size: int = 1,
                   checkpoint_every: int | None = None) -> BatchResult:
    """Replicate sweep of the momentum solver on one quadratic instance."""
    if params.algorithm is not Algorithm.F3SA:
        raise InvalidArgumentError("params are not for the momentum solver")
    return _run_batch(quad, params, K, n_runs, master_seed, sigma_f, sigma_g,
                      x0, y0, z0, batch_size, checkpoint_every, False)
