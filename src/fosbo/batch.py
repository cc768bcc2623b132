"""Vectorized multi-replicate runs on quadratic problems.

Seed sweeps of the solvers on synthetic additive-noise quadratics are wide
but tiny: many independent replicates of a low-dimensional iteration.  The
engines here run all replicates simultaneously as rows of (n_runs, dim)
arrays, drawing one noise array per oracle use, which turns a 20-seed sweep
into roughly the cost of a single run.  Update formulas, schedules and the
same-sample momentum corrections match the per-seed solvers exactly; only
the noise bookkeeping differs (per-replicate rows of one master stream
instead of per-run token streams).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericFailure
from .problems.quadratic import QuadraticBilevel
from .runs import DIVERGENCE_LIMIT, checkpoint_cadence
from .schedule import Algorithm, ScheduleParams, run_schedule

# per-replicate diagnostic series recorded at checkpoints
_BATCH_FIELDS = ("grad_F_sq", "proxy_sq", "dist_y_sq", "dist_z_sq",
                 "potential", "mom_err_z_sq")


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


class _QuadBatchOps:
    """Precomputed matrices and vectorized oracle parts for one instance."""

    def __init__(self, quad: QuadraticBilevel, sigma_f: float, sigma_g: float,
                 batch_size: int):
        self.quad = quad
        self.PT = quad.P.T.copy()
        self.Af = quad.A_f
        self.Bf = quad.B_f
        self.Cf = quad.C_f
        self.CfT = quad.C_f.T.copy()
        self.Ag = quad.A_g
        self.AgP = quad.A_g @ quad.P
        self.af = quad.a_f
        self.bf = quad.b_f
        self.p = quad.p
        H, cvec, const = quad.hyper_matrices()
        self.HF = H
        self.cF = cvec
        self.F_const = const
        self.F_star = quad.F_star()
        self.dx = quad.dim_x
        self.dy = quad.dim_y
        self.scale_f = sigma_f / math.sqrt(self.dy * batch_size)
        self.scale_fx = sigma_f / math.sqrt(self.dx * batch_size)
        self.scale_g = sigma_g / math.sqrt(self.dy * batch_size)
        self.scale_gx = sigma_g / math.sqrt(self.dx * batch_size)

    # products use ``.dot``: the BLAS call ``@`` makes, same bits, half the
    # overhead.  The lower-level residual is shared by all g gradients.
    def resid(self, X, Y):
        return Y - X.dot(self.PT) - self.p

    def gy(self, X, Y):
        return self.resid(X, Y).dot(self.Ag)

    def gx(self, X, Y):
        return -(self.resid(X, Y).dot(self.AgP))

    def fy(self, X, Y):
        return Y.dot(self.Af) + X.dot(self.Cf) + self.bf

    def fx(self, X, Y):
        return X.dot(self.Bf) + Y.dot(self.CfT) + self.af

    def grad_F_sq(self, X):
        G = X.dot(self.HF) + self.cF
        return np.einsum("ij,ij->i", G, G)

    def F_value(self, X):
        return (0.5 * np.einsum("ij,ij->i", X.dot(self.HF), X)
                + X.dot(self.cF) + self.F_const)

    def y_star(self, X):
        return X.dot(self.PT) + self.p

    def y_star_lambda(self, X, lam):
        H = self.Af + lam * self.Ag
        rhs = lam * self.y_star(X).dot(self.Ag) - X.dot(self.Cf) - self.bf
        return np.linalg.solve(H, rhs.T).T


def _tile(v, n, dim, name):
    if v is None:
        return np.zeros((n, dim))
    arr = np.asarray(v, dtype=float)
    if arr.ndim <= 1:
        arr = np.broadcast_to(arr.reshape(-1), (n, dim)).copy() \
            if arr.size in (1, dim) else None
        if arr is None:
            raise InvalidArgumentError(f"{name} has incompatible shape")
        return arr
    if arr.shape != (n, dim):
        raise InvalidArgumentError(f"{name} must have shape ({n}, {dim})")
    return arr.copy()


def _sq(V):
    return np.einsum("ij,ij->i", V, V)


def _guard(k, *arrays):
    for a in arrays:
        m = float(np.max(np.abs(a)))
        if not math.isfinite(m) or m > DIVERGENCE_LIMIT:
            raise NumericFailure(
                f"replicate sweep diverged at k={k} (max abs {m})", k=k)


def _run_batch(quad: QuadraticBilevel, params: ScheduleParams, K: int,
               n_runs: int, master_seed: int, sigma_f: float, sigma_g: float,
               x0, y0, z0, batch_size: int, checkpoint_every: int | None,
               share_x_token: bool) -> BatchResult:
    if K < 0 or n_runs < 1:
        raise InvalidArgumentError("need K >= 0 and at least one replicate")
    t_start = time.perf_counter()
    ops = _QuadBatchOps(quad, sigma_f, sigma_g, batch_size)
    S, dx, dy = n_runs, ops.dx, ops.dy
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

    cadence = checkpoint_cadence(K, checkpoint_every)
    ck_ks: list[int] = []
    rows: dict[str, list] = {name: [] for name in _BATCH_FIELDS}
    sch_rows: dict[str, list] = {name: [] for name in ("lambda", "alpha", "gamma", "beta", "eta")}
    lg1 = float(np.linalg.norm(np.block(
        [[quad.P.T @ quad.A_g @ quad.P, -quad.P.T @ quad.A_g],
         [-quad.A_g @ quad.P, quad.A_g]]), 2))

    def nf(scale, d):
        return rng.standard_normal((S, d)) * scale

    def record(k):
        _guard(k, X, Y, Z)
        lam = lams[k]
        ck_ks.append(k)
        ys = ops.y_star(X)
        yl = ops.y_star_lambda(X, lam)
        dist_y = _sq(Y - yl)
        dist_z = _sq(Z - ys)
        rows["grad_F_sq"].append(ops.grad_F_sq(X))
        rows["dist_y_sq"].append(dist_y)
        rows["dist_z_sq"].append(dist_z)
        rows["potential"].append(ops.F_value(X) - ops.F_star
                                 + lg1 * lam * dist_y + 0.5 * lam * lg1 * dist_z)
        rows["proxy_sq"].append(np.full(S, math.nan))
        rows["mom_err_z_sq"].append(np.full(S, math.nan))
        sch_rows["lambda"].append(lam)
        sch_rows["alpha"].append(alphas[k])
        sch_rows["gamma"].append(gammas[k])
        sch_rows["beta"].append(alphas[k] * lam)
        sch_rows["eta"].append(etas[k] if etas is not None else math.nan)

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
                Gz = ops.gy(X, Z)
                if g_noisy:
                    Gz = Gz + nf(ops.scale_g, dy)
                Z = Z - gamma * Gz
                Fy = ops.fy(X, Y)
                if f_noisy:
                    Fy = Fy + nf(ops.scale_f, dy)
                Gy = ops.gy(X, Y)
                if g_noisy:
                    Gy = Gy + nf(ops.scale_g, dy)
                Y = Y - alpha * (Fy + lam * Gy)
            Fx = ops.fx(X, Y)
            if f_noisy:
                Fx = Fx + nf(ops.scale_fx, dx)
            Gxy = ops.gx(X, Y)
            Gxz = ops.gx(X, Z)
            if g_noisy:
                n1 = nf(ops.scale_gx, dx)
                Gxy = Gxy + n1
                Gxz = Gxz + (n1 if share_x_token else nf(ops.scale_gx, dx))
            D = Fx + lam * (Gxy - Gxz)
            X = X - xi * alpha * D
            if due:
                rows["proxy_sq"][-1] = _sq(D)
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

            n_z = nf(ops.scale_g, dy) if g_noisy else 0.0
            f_z = ops.gy(X, Z) + n_z
            # prev-point evals reuse the same draw, so the noise cancels
            Hz = f_z + one_m * (Hz - ops.gy(pX, pZ) - n_z) if momentum else f_z
            Z_new = Z - gamma * Hz

            n_fy = nf(ops.scale_f, dy) if f_noisy else 0.0
            f_fy = ops.fy(X, Y) + n_fy
            n_gy = nf(ops.scale_g, dy) if g_noisy else 0.0
            f_gy = ops.gy(X, Y) + n_gy
            if momentum:
                Hfy = f_fy + one_m * (Hfy - ops.fy(pX, pY) - n_fy)
                Hgy = f_gy + one_m * (Hgy - ops.gy(pX, pY) - n_gy)
            else:
                Hfy, Hgy = f_fy, f_gy
            Y_new = Y - alpha * (Hfy + lam * Hgy)

            n_fx = nf(ops.scale_fx, dx) if f_noisy else 0.0
            f_fx = ops.fx(X, Y_new) + n_fx
            n_gx = nf(ops.scale_gx, dx) if g_noisy else 0.0
            f_gxy = ops.gx(X, Y_new) + n_gx
            f_gxz = ops.gx(X, Z_new) + n_gx
            if momentum:
                Hfx = f_fx + one_m * (Hfx - ops.fx(pX, Y) - n_fx)
                Hgxy = f_gxy + one_m * (Hgxy - ops.gx(pX, Y) - n_gx)
                Hgxz = f_gxz + one_m * (Hgxz - ops.gx(pX, Z) - n_gx)
            else:
                Hfx, Hgxy, Hgxz = f_fx, f_gxy, f_gxz
            D = Hfx + lam * (Hgxy - Hgxz)
            X_new = X - xi * alpha * D
            if due:
                rows["proxy_sq"][-1] = _sq(D)
                rows["mom_err_z_sq"][-1] = _sq(Hz - ops.gy(X, Z))
            pX, pY, pZ = X, Y, Z
            X, Y, Z = X_new, Y_new, Z_new
    if K > 0 and K % cadence == 0:
        record(K)

    series = {name: np.array(vals) if vals else np.empty((0, S))
              for name, vals in rows.items()}
    schedule_series = {name: np.array(vals, dtype=float)
                       for name, vals in sch_rows.items()}
    return BatchResult(
        algorithm="F2SA" if f2sa else "F3SA", problem_name=quad.name,
        master_seed=master_seed, n_runs=S, K=K, R=R, x_R=x_R,
        x_final=X, y_final=Y, z_final=Z, lambda_final=lams[K],
        checkpoints=np.array(ck_ks, dtype=int), series=series,
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
