"""Quadratic bilevel test problems with closed-form ground truth.

Upper level   f(x, y) = 1/2 y'A_f y + 1/2 x'B_f x + x'C_f y + a_f'x + b_f'y
Lower level   g(x, y) = 1/2 (y - Px - p)' A_g (y - Px - p)

so y*(x) = Px + p, the hyperobjective F is an explicit quadratic in x, and
the penalized lower-level solution has a closed form.  These problems anchor
the oracle tests, the bias-bound checks and the convergence-rate runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import InvalidArgumentError, NumericFailure
from ..oracles import (BilevelProblem, NoiseRegime, RegularityConstants,
                       SecondOrderOracle, Vector, _inner, gaussian_noise)


@dataclass(frozen=True)
class ProblemAnalytics:
    """Closed-form quantities attached to analytic problems."""

    y_star: Callable[[Vector], Vector]
    y_star_lambda: Callable[[Vector, float], Vector]
    grad_F: Callable[[Vector], Vector]
    F_value: Callable[[Vector], float]
    F_star: float
    x_star: Vector


@dataclass(frozen=True)
class QuadraticBilevel:
    """One quadratic bilevel instance (matrices plus a reference box).

    The box bounds the region on which the local gradient-norm constants are
    computed; rate experiments are set up to stay inside it.
    """

    A_f: np.ndarray
    B_f: np.ndarray
    C_f: np.ndarray
    a_f: np.ndarray
    b_f: np.ndarray
    A_g: np.ndarray
    P: np.ndarray
    p: np.ndarray
    box_x: tuple[np.ndarray, np.ndarray]
    box_y: tuple[np.ndarray, np.ndarray]
    name: str = "quadratic"

    def __post_init__(self):
        # the transposes the products below use, stored once as views
        for name in ("A_f", "B_f", "C_f", "A_g", "P"):
            object.__setattr__(self, name + "_T", getattr(self, name).T)

    @property
    def dim_x(self) -> int:
        return self.B_f.shape[0]

    @property
    def dim_y(self) -> int:
        return self.A_g.shape[0]

    # ---- objective values and exact gradients ----
    # Each takes a vector (d,) or replicate rows (S, d).  The gradients take
    # and ignore a token, so noise-free channels serve them as oracles.
    # Products are written ``v.dot(M.T)``: on a vector that is bitwise
    # ``M @ v`` at half the per-call cost; a contiguous copy of the transpose
    # would change bits.

    def f_value(self, x: Vector, y: Vector) -> float:
        return (0.5 * _inner(y.dot(self.A_f), y)
                + 0.5 * _inner(x.dot(self.B_f), x) + _inner(x.dot(self.C_f), y)
                + x.dot(self.a_f) + y.dot(self.b_f))

    def g_value(self, x: Vector, y: Vector) -> float:
        r = y - x.dot(self.P_T) - self.p
        return 0.5 * _inner(r.dot(self.A_g), r)

    def grad_f_x_exact(self, x: Vector, y: Vector, token=None) -> Vector:
        return x.dot(self.B_f_T) + y.dot(self.C_f_T) + self.a_f

    def grad_f_y_exact(self, x: Vector, y: Vector, token=None) -> Vector:
        return y.dot(self.A_f_T) + x.dot(self.C_f) + self.b_f

    def grad_g_x_exact(self, x: Vector, y: Vector, token=None) -> Vector:
        return -(self.grad_g_y_exact(x, y).dot(self.P))

    def grad_g_y_exact(self, x: Vector, y: Vector, token=None) -> Vector:
        return (y - x.dot(self.P_T) - self.p).dot(self.A_g_T)

    # ---- closed forms ----

    def y_star(self, x: Vector) -> Vector:
        return x.dot(self.P_T) + self.p

    def y_star_lambda(self, x: Vector, lam: float) -> Vector:
        """Minimizer of f + lam * g in y; needs lam above the strong-convexity
        threshold so the system matrix is positive definite."""
        H = self.A_f + lam * self.A_g
        rhs = lam * self.y_star(x).dot(self.A_g_T) - x.dot(self.C_f) - self.b_f
        try:
            cho = np.linalg.cholesky(H)
        except np.linalg.LinAlgError as exc:
            raise NumericFailure(
                f"penalized lower-level Hessian not positive definite at lam={lam}",
                lam=lam) from exc
        if x.ndim == 2:
            # rows: one LU solve for all of them.  Each form keeps its engine's
            # bits; they differ at round-off, which ||y - y*_lam||^2 amplifies
            return np.linalg.solve(H, rhs.T).T
        return np.linalg.solve(cho.T, np.linalg.solve(cho, rhs))

    def hyper_matrices(self) -> tuple[np.ndarray, np.ndarray, float]:
        """H_F, c_F, const of F(x) = 1/2 x'H_F x + c_F'x + const."""
        P, p = self.P, self.p
        H = (self.B_f + P.T @ self.A_f @ P + self.C_f @ P + P.T @ self.C_f.T)
        cvec = self.C_f @ p + self.a_f + P.T @ (self.A_f @ p + self.b_f)
        const = float(0.5 * p @ self.A_f @ p + self.b_f @ p)
        return H, cvec, const

    def grad_F(self, x: Vector) -> Vector:
        H, cvec, _ = self.hyper_matrices()
        return x.dot(H.T) + cvec

    def F_value(self, x: Vector) -> float:
        return self.f_value(x, self.y_star(x))

    def x_star(self) -> Vector:
        H, cvec, _ = self.hyper_matrices()
        return np.linalg.solve(H, -cvec)

    def F_star(self) -> float:
        return self.F_value(self.x_star())

    # ---- regularity constants on the declared box ----

    def local_constants(self, sigma_f: float = 0.0, sigma_g: float = 0.0) -> RegularityConstants:
        joint_f = np.block([[self.B_f, self.C_f], [self.C_f.T, self.A_f]])
        joint_g = np.block([[self.P.T @ self.A_g @ self.P, -self.P.T @ self.A_g],
                            [-self.A_g @ self.P, self.A_g]])
        l_f1 = float(np.linalg.norm(joint_f, 2))
        l_g1 = float(np.linalg.norm(joint_g, 2))
        mu_g = float(np.linalg.eigvalsh(self.A_g)[0])

        # each partial gradient is affine in (x, y): its matrix is a block
        # row of the joint Hessian
        dx = self.dim_x
        box = (self.box_x, self.box_y)
        l_f0 = max(_box_affine_norm_bound(joint_f[:dx], self.a_f, *box),
                   _box_affine_norm_bound(joint_f[dx:], self.b_f, *box))
        l_g0 = _box_affine_norm_bound(joint_g[:dx],
                                      self.P.T @ self.A_g @ self.p, *box)
        l_lam0 = self._lipschitz_penalized_map(l_f1, mu_g)
        return RegularityConstants(
            l_f0=l_f0, l_f1=l_f1, l_g0=l_g0, l_g1=l_g1, mu_g=mu_g,
            l_g2=0.0, l_f2=0.0, sigma_f=sigma_f, sigma_g=sigma_g,
            l_lambda0=min(l_lam0, 3.0 * l_g1 / mu_g))

    def _lipschitz_penalized_map(self, l_f1: float, mu_g: float) -> float:
        """sup over admissible lam of the x-Lipschitz constant of the
        penalized solution map, ||(A_f + lam A_g)^-1 lam A_g P||."""
        lam_min = max(2.0 * l_f1 / mu_g, 1e-6)
        best = float(np.linalg.norm(self.P, 2))  # lam -> infinity limit
        for lam in np.geomspace(lam_min, lam_min * 1e6, 120):
            J = np.linalg.solve(self.A_f + lam * self.A_g, lam * self.A_g @ self.P)
            best = max(best, float(np.linalg.norm(J, 2)))
        return best * 1.0001

    # ---- packaging as an oracle problem ----

    def to_problem(self, sigma_f: float = 0.0,
                   sigma_g: float = 0.0) -> BilevelProblem:
        """Wrap the instance as a first-order oracle problem.

        Noise is additive Gaussian, a pure function of the token, so replayed
        tokens cancel exactly in same-channel differences.  The sigmas decide
        the noise regime: both noisy when sigma_g > 0, upper-only when only
        sigma_f > 0, else deterministic.
        """
        if sigma_g > 0:
            noise_regime = NoiseRegime.BOTH_NOISY
        elif sigma_f > 0:
            noise_regime = NoiseRegime.UPPER_ONLY
        else:
            noise_regime = NoiseRegime.DETERMINISTIC
        dx, dy = self.dim_x, self.dim_y

        def wrap(exact, channel, dim, sigma):
            if sigma == 0.0:
                return exact

            def oracle(x, y, token=None):
                out = exact(x, y)
                if token is not None:
                    out = out + gaussian_noise(token, channel, dim, sigma)
                return out
            return oracle

        analytics = ProblemAnalytics(
            y_star=self.y_star, y_star_lambda=self.y_star_lambda,
            grad_F=self.grad_F, F_value=self.F_value,
            F_star=self.F_star(), x_star=self.x_star())
        second = SecondOrderOracle(
            hess_g_yy=lambda x, y: self.A_g,
            jac_g_xy=lambda x, y: -(self.P.T @ self.A_g))
        return BilevelProblem(
            dim_x=dx, dim_y=dy,
            grad_f_x=wrap(self.grad_f_x_exact, "fx", dx, sigma_f),
            grad_f_y=wrap(self.grad_f_y_exact, "fy", dy, sigma_f),
            grad_g_x=wrap(self.grad_g_x_exact, "gx", dx, sigma_g),
            grad_g_y=wrap(self.grad_g_y_exact, "gy", dy, sigma_g),
            noise_regime=noise_regime,
            constants=self.local_constants(sigma_f, sigma_g),
            value_f=self.f_value, value_g=self.g_value,
            analytics=analytics, second_order=second, name=self.name)


def _box_affine_norm_bound(M: np.ndarray, b: Vector, box_x, box_y) -> float:
    """Upper bound on ||M u + b|| over the box of u = (x, y).

    With box center c and half-widths r, ||M c + b|| + sum_i r_i ||M e_i||
    bounds the norm everywhere on the box; it is the exact maximum when the
    output is one-dimensional.
    """
    lo = np.concatenate([box_x[0], box_y[0]])
    hi = np.concatenate([box_x[1], box_y[1]])
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return float(np.linalg.norm(M @ c + b) + np.linalg.norm(M, axis=0) @ r)


def make_quadratic(dims: tuple[int, int], seed: int,
                   conditioning: float = 10.0) -> QuadraticBilevel:
    """Random instance with a prescribed lower-level conditioning ratio.

    ``dims`` is (dim_x, dim_y).  The eigenvalues of A_g span exactly
    [1, conditioning].  Upper-level blocks are generic (coupling term
    included), so these instances exercise the full hypergradient formula.
    """
    if conditioning < 1.0:
        raise InvalidArgumentError("conditioning must be >= 1")
    dx, dy = dims
    rng = np.random.default_rng(seed)

    def rot(d):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        return q

    if dy == 1:
        eigs_g = np.array([1.0])
    else:
        eigs_g = np.geomspace(1.0, conditioning, dy)
    U = rot(dy)
    A_g = U @ np.diag(eigs_g) @ U.T
    A_g = 0.5 * (A_g + A_g.T)

    V = rot(dy)
    A_f = V @ np.diag(rng.uniform(0.5, 2.0, dy)) @ V.T
    A_f = 0.5 * (A_f + A_f.T)
    W = rot(dx)
    B_f = W @ np.diag(rng.uniform(0.5, 2.0, dx)) @ W.T
    B_f = 0.5 * (B_f + B_f.T)
    P = rng.standard_normal((dy, dx)) / math.sqrt(dy)

    C_scale = 0.3
    for _ in range(20):
        C_f = C_scale * rng.standard_normal((dx, dy)) / math.sqrt(dy)
        H = B_f + P.T @ A_f @ P + C_f @ P + P.T @ C_f.T
        if np.linalg.eigvalsh(0.5 * (H + H.T))[0] > 0.1:
            break
        C_scale *= 0.5
    a_f = rng.uniform(-0.5, 0.5, dx)
    b_f = rng.uniform(-0.5, 0.5, dy)
    p = rng.uniform(-0.5, 0.5, dy)

    box_x = (np.full(dx, -3.0), np.full(dx, 3.0))
    span = 3.0 * np.sum(np.abs(P), axis=1) + np.abs(p)
    box_y = (-(span + 3.0), span + 3.0)
    return QuadraticBilevel(A_f=A_f, B_f=B_f, C_f=C_f, a_f=a_f, b_f=b_f,
                            A_g=A_g, P=P, p=p, box_x=box_x, box_y=box_y,
                            name=f"random-{dx}x{dy}-s{seed}")


def _zoo_instance_scalar(b: float, name: str, half_width: float) -> QuadraticBilevel:
    one = np.array([[1.0]])
    return QuadraticBilevel(
        A_f=one, B_f=one, C_f=np.zeros((1, 1)), a_f=np.zeros(1),
        b_f=np.array([b]), A_g=one, P=one, p=np.zeros(1),
        box_x=(np.array([-half_width]), np.array([half_width])),
        box_y=(np.array([-half_width]), np.array([half_width])),
        name=name)


def builtin_zoo() -> dict[str, QuadraticBilevel]:
    """Named analytic instances used throughout the test batteries.

    Multi-dimensional members keep A_f isotropic, drop the cross term and
    align the column space of P with leading eigenvectors of A_g; under that
    structure the penalty-proxy bias norm is provably decreasing in the
    multiplier, which the bias battery asserts at machine precision.
    """
    zoo = {
        "scalar-canonical": _zoo_instance_scalar(0.0, "scalar-canonical", 2.0),
        "scalar-offset": _zoo_instance_scalar(1.0, "scalar-offset", 3.0),
    }

    # coupled 2x2: rotated anisotropic lower level, orthogonal scaled P
    th = 0.4
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    A_g = R @ np.diag([1.0, 3.0]) @ R.T
    P = 0.8 * R  # columns of P span A_g eigenvector space
    zoo["coupled-2d"] = QuadraticBilevel(
        A_f=np.eye(2), B_f=np.eye(2), C_f=np.zeros((2, 2)),
        a_f=np.array([0.1, -0.3]), b_f=np.array([0.5, 0.2]),
        A_g=0.5 * (A_g + A_g.T), P=P, p=np.array([0.3, -0.2]),
        box_x=(np.full(2, -3.0), np.full(2, 3.0)),
        box_y=(np.full(2, -6.0), np.full(2, 6.0)),
        name="coupled-2d")

    # ill-conditioned 3-dim lower level over a 2-dim upper level
    rng = np.random.default_rng(7)
    U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    A_g = U @ np.diag([1.0, math.sqrt(10.0), 10.0]) @ U.T
    P = 0.7 * U[:, :2]  # column space = leading eigenvectors, P'P = 0.49 I
    zoo["conditioned-3d"] = QuadraticBilevel(
        A_f=0.5 * np.eye(3), B_f=np.eye(2), C_f=np.zeros((2, 3)),
        a_f=np.array([0.2, -0.1]), b_f=np.array([0.3, -0.4, 0.1]),
        A_g=0.5 * (A_g + A_g.T), P=P, p=np.array([0.1, 0.2, -0.3]),
        box_x=(np.full(2, -3.0), np.full(2, 3.0)),
        box_y=(np.full(3, -6.0), np.full(3, 6.0)),
        name="conditioned-3d")
    return zoo
