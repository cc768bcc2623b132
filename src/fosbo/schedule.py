"""Step-size, penalty-multiplier and momentum schedules.

Both solvers run on polynomially decaying step sizes

    alpha_k = c_alpha / (k + k0)^a        (y and x steps)
    gamma_k = c_gamma / (k + k0)^c        (z steps)

with a slowly increasing penalty multiplier lambda_k.  The multiplier is
updated incrementally, lambda_{k+1} = lambda_k + delta_k, where delta_k is
chosen so that with default constants lambda_k equals gamma_k / (2 alpha_k)
for the double-loop solver and gamma_k / alpha_k for the momentum solver,
exactly, for every k.  The momentum solver additionally carries an averaging
weight eta_k = (k+1)^(-2c), forced to 1 on the first two steps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, PreconditionViolation
from .oracles import NoiseRegime, RegularityConstants

_REL_TOL = 1e-9  # slack for float-edge comparisons in the condition checker


class Algorithm(enum.Enum):
    F2SA = "F2SA"
    F3SA = "F3SA"


# Default decay exponents (a, c) per algorithm and noise regime.
_DEFAULT_EXPONENTS = {
    Algorithm.F2SA: {
        NoiseRegime.BOTH_NOISY: (5.0 / 7.0, 4.0 / 7.0),
        NoiseRegime.UPPER_ONLY: (3.0 / 5.0, 2.0 / 5.0),
        NoiseRegime.DETERMINISTIC: (1.0 / 3.0, 0.0),
    },
    Algorithm.F3SA: {
        NoiseRegime.BOTH_NOISY: (3.0 / 5.0, 2.0 / 5.0),
        NoiseRegime.UPPER_ONLY: (1.0 / 2.0, 1.0 / 4.0),
        NoiseRegime.DETERMINISTIC: (1.0 / 3.0, 0.0),
    },
}


@dataclass(frozen=True)
class ScheduleParams:
    """Complete schedule configuration for one run.

    All fields are concrete numbers; use :func:`default_params` to fill them
    from problem constants.  ``T`` is the inner-loop length (always 1 for the
    momentum solver).  ``c_xi`` and ``c_eta`` are the absolute constants in
    the step-size conditions; their defaults (1.0) are a design choice and
    may be overridden.  ``eta_override`` forces a constant momentum weight,
    which with 1.0 disables momentum entirely.
    """

    algorithm: Algorithm
    noise_regime: NoiseRegime
    a: float
    c: float
    k0: int
    lambda0: float
    xi: float
    T: int
    c_alpha: float
    c_gamma: float
    mu_g: float
    c_eta: float = 1.0
    c_xi: float = 1.0
    eta_override: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.c <= self.a <= 1.0):
            raise InvalidArgumentError(
                f"exponents must satisfy 0 <= c <= a <= 1, got a={self.a}, c={self.c}")
        if self.k0 < 1 or int(self.k0) != self.k0:
            raise InvalidArgumentError(f"k0 must be a positive integer, got {self.k0}")
        for name in ("lambda0", "xi", "c_alpha", "c_gamma", "mu_g", "c_eta", "c_xi"):
            if getattr(self, name) <= 0:
                raise InvalidArgumentError(f"{name} must be positive")
        if self.T < 1 or int(self.T) != self.T:
            raise InvalidArgumentError(f"T must be a positive integer, got {self.T}")
        if self.eta_override is not None and not (0.0 < self.eta_override <= 1.0):
            raise InvalidArgumentError(
                f"eta_override must lie in (0, 1], got {self.eta_override}")

    # The laws are plain-float only, so advance and run_schedule agree bitwise.

    def _scalar_step(self, k: int) -> tuple[float, float, float]:
        """(alpha_k, gamma_k, target_k) computed with Python-float pow."""
        base = float(k + self.k0)
        alpha = self.c_alpha / base ** self.a
        gamma = self.c_gamma / base ** self.c
        ratio = gamma / alpha
        if self.algorithm is Algorithm.F2SA:
            ratio /= 2.0
        return alpha, gamma, ratio

    def _scalar_eta(self, k: int) -> float:
        if self.eta_override is not None:
            return float(self.eta_override)
        return 1.0 if k <= 1 else (k + 1.0) ** (-2.0 * self.c)

    def _capped_delta(self, alpha_k: float, lambda_k: float,
                      target_next: float) -> float:
        """Catch-up from lambda_k to the step-(k+1) ratio ``target_next``,
        capped for F2SA at (T mu_g / 16) alpha_k lambda_k^2, floored at 0."""
        catch_up = target_next - lambda_k
        if self.algorithm is Algorithm.F2SA:
            cap = (self.T * self.mu_g / 16.0) * alpha_k * lambda_k**2
            return max(0.0, min(cap, catch_up))
        return max(0.0, catch_up)

    def to_dict(self) -> dict:
        d = {
            "algorithm": self.algorithm.value,
            "noise_regime": self.noise_regime.value,
            "a": self.a, "c": self.c, "k0": self.k0, "lambda0": self.lambda0,
            "xi": self.xi, "T": self.T, "c_alpha": self.c_alpha,
            "c_gamma": self.c_gamma, "mu_g": self.mu_g,
            "c_eta": self.c_eta, "c_xi": self.c_xi,
        }
        if self.eta_override is not None:
            d["eta_override"] = self.eta_override
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScheduleParams":
        d = dict(d)
        d["algorithm"] = Algorithm(d["algorithm"])
        d["noise_regime"] = NoiseRegime(d["noise_regime"])
        return cls(**d)


@dataclass(frozen=True)
class ScheduleState:
    """Schedule values at one outer step.

    ``delta_k`` is the multiplier increment that will be applied when
    advancing to k+1; ``eta_k`` is None for the double-loop solver.
    """

    k: int
    lambda_k: float
    alpha_k: float
    gamma_k: float
    beta_k: float
    delta_k: float
    eta_k: float | None


def default_params(algorithm: Algorithm, constants: RegularityConstants,
                   noise_regime: NoiseRegime | None = None, **overrides) -> ScheduleParams:
    """Fill a full schedule from problem constants.

    Keyword overrides replace individual fields; derived quantities are
    recomputed around them (for example overriding ``k0`` changes the default
    ``c_alpha`` and ``c_gamma``).
    """
    if noise_regime is None:
        noise_regime = NoiseRegime.DETERMINISTIC
    mu = constants.mu_g
    a, c = overrides.pop("a", None), overrides.pop("c", None)
    a_def, c_def = _DEFAULT_EXPONENTS[algorithm][noise_regime]
    if a is None:
        a = a_def
    if c is None:
        c = c_def
    c_xi = overrides.pop("c_xi", 1.0)
    c_eta = overrides.pop("c_eta", 1.0)

    if algorithm is Algorithm.F2SA:
        xi = overrides.pop("xi", 1.0)
        T_needed = max(constants.l_g1 * constants.l_star0**2,
                       math.sqrt(constants.M) * constants.l_star1) / (c_xi * mu)
        T = overrides.pop("T", max(32, math.ceil(T_needed)))
        k0_needed = (4.0 / mu) * max(xi * constants.l_F1 / 2.0,
                                     T * constants.l_g1, constants.l_f1)
        k0 = overrides.pop("k0", max(1, math.ceil(k0_needed)))
        lambda0 = overrides.pop("lambda0", max(constants.lambda_min, 1.0))
        c_gamma = overrides.pop("c_gamma", 1.0 / (mu * k0 ** (1.0 - c)))
        c_alpha = overrides.pop("c_alpha", 1.0 / (2.0 * lambda0 * mu * k0 ** (1.0 - a)))
    else:
        xi = overrides.pop("xi", min(1.0, c_xi * mu / (constants.l_g1 * constants.l_star0**2)))
        T = overrides.pop("T", 1)
        k0_needed = (128.0 / mu) * max(xi * constants.l_F1,
                                       constants.l_g1 * math.sqrt(c_eta * constants.l_g1 / mu))
        k0 = overrides.pop("k0", max(1, math.ceil(k0_needed)))
        lambda0 = overrides.pop("lambda0", max(constants.lambda_min, 1.0))
        c_gamma = overrides.pop("c_gamma", 8.0 / (mu * k0 ** (1.0 - c)))
        c_alpha = overrides.pop("c_alpha", 8.0 / (mu * lambda0 * k0 ** (1.0 - a)))

    eta_override = overrides.pop("eta_override", None)
    if overrides:
        raise InvalidArgumentError(f"unknown schedule overrides: {sorted(overrides)}")
    return ScheduleParams(
        algorithm=algorithm, noise_regime=noise_regime, a=a, c=c, k0=k0,
        lambda0=lambda0, xi=xi, T=T, c_alpha=c_alpha, c_gamma=c_gamma,
        mu_g=mu, c_eta=c_eta, c_xi=c_xi, eta_override=eta_override)


def make_schedule(params: ScheduleParams,
                  constants: RegularityConstants | None = None) -> ScheduleState:
    """Initial schedule state at k = 0.

    With constants supplied, rejects multipliers below the strong-convexity
    threshold 2 l_f1 / mu_g.  Always rejects beta_0 > gamma_0.
    """
    if constants is not None and params.lambda0 < constants.lambda_min * (1 - 1e-12):
        raise PreconditionViolation(
            f"lambda0 = {params.lambda0} is below 2 l_f1 / mu_g = {constants.lambda_min}")
    state = _state_at(params, 0, params.lambda0)
    if state.beta_k > state.gamma_k * (1 + 1e-12):
        raise PreconditionViolation(
            f"beta_0 = {state.beta_k} exceeds gamma_0 = {state.gamma_k}; "
            "the effective y step must not outrun the z step")
    return state


def advance(state: ScheduleState, params: ScheduleParams) -> ScheduleState:
    """Move the schedule from step k to step k+1 (total on valid states)."""
    return _state_at(params, state.k + 1, state.lambda_k + state.delta_k)


def _state_at(params: ScheduleParams, k: int, lambda_k: float) -> ScheduleState:
    """The schedule values at step k, given the multiplier lambda_k."""
    alpha, gamma, _ = params._scalar_step(k)
    delta = params._capped_delta(alpha, lambda_k, params._scalar_step(k + 1)[2])
    return ScheduleState(k=k, lambda_k=lambda_k, alpha_k=alpha, gamma_k=gamma,
                         beta_k=alpha * lambda_k, delta_k=delta,
                         eta_k=params._scalar_eta(k) if params.algorithm is Algorithm.F3SA else None)


def run_schedule(params: ScheduleParams, K: int) -> dict[str, np.ndarray]:
    """Iterate the schedule K steps and return all values as arrays.

    Uses the real incremental multiplier update, and the same float
    arithmetic as :func:`advance`, so the arrays match a step-by-step run
    bitwise.
    """
    ks = np.arange(K)
    alpha = np.empty(K)
    gamma = np.empty(K)
    lam = np.empty(K)
    delta = np.empty(K)
    lam_k = params.lambda0
    step, capped_delta = params._scalar_step, params._capped_delta
    a_k, g_k, _ = step(0) if K else (0.0, 0.0, 0.0)
    for k in range(K):
        alpha[k] = a_k
        gamma[k] = g_k
        lam[k] = lam_k
        a_next, g_next, target_next = step(k + 1)
        delta[k] = d = capped_delta(a_k, lam_k, target_next)
        lam_k += d
        a_k, g_k = a_next, g_next
    out = {"k": ks, "lambda": lam, "delta": delta, "alpha": alpha,
           "gamma": gamma, "beta": alpha * lam}
    if params.algorithm is Algorithm.F3SA:
        out["eta"] = np.fromiter(map(params._scalar_eta, range(K)), float, K)
    return out


def check_sweep(params: ScheduleParams, constants: RegularityConstants,
                K: int) -> dict[str, int]:
    """Run the schedule K steps and report each step-size condition that
    fails, with the first k at which it does.

    An empty dict means every inequality the convergence analysis requires
    holds at every step k < K; ``K = 1`` checks step 0 alone.  Callers treat
    violations as warnings so ablation runs remain possible.
    """
    cons = constants
    tol = 1.0 + _REL_TOL
    arrays = run_schedule(params, K)
    alpha, gamma = arrays["alpha"], arrays["gamma"]
    beta, lam, delta = arrays["beta"], arrays["lambda"], arrays["delta"]
    found: dict[str, int] = {}

    def record(name: str, mask) -> None:
        idx = np.nonzero(mask)[0]
        if idx.size:
            found[name] = int(idx[0])

    if params.lambda0 < cons.lambda_min * (1 - _REL_TOL):
        found["lambda0_below_threshold"] = 0
    record("beta_exceeds_gamma", beta > gamma * tol)
    if params.algorithm is Algorithm.F2SA:
        record("gamma_exceeds_quarter_inv_lg1", gamma > tol / (4 * cons.l_g1))
        record("gamma_exceeds_quarter_inv_Tmu", gamma > tol / (4 * params.T * params.mu_g))
        if cons.l_f1 > 0:
            record("alpha_exceeds_eighth_inv_lf1", alpha > tol / (8 * cons.l_f1))
        if cons.l_F1 > 0:
            record("alpha_exceeds_half_inv_xi_lF1", alpha > tol / (2 * params.xi * cons.l_F1))
        cap = params.c_xi * params.mu_g / max(cons.l_g1 * cons.l_star0**2,
                                              cons.l_star1 * math.sqrt(cons.M))
        if params.xi / params.T >= cap * tol:
            found["xi_over_T_too_large"] = 0
        record("delta_exceeds_T_mu_beta_lambda_over_16",
               delta > (params.T * params.mu_g / 16.0) * beta * lam * tol)
    else:
        record("gamma_exceeds_sixteenth_inv_lg1", gamma > tol / (16 * cons.l_g1))
        if cons.l_F1 > 0:
            record("xi_alpha_exceeds_inv_lF1", params.xi * alpha > tol / cons.l_F1)
        if params.xi > tol * params.c_xi * params.mu_g / (cons.l_g1 * cons.l_star0**2):
            found["xi_exceeds_momentum_bound"] = 0
        record("delta_exceeds_mu_beta_lambda_over_8",
               delta > (params.mu_g / 8.0) * beta * lam * tol)
        if params._scalar_eta(0) != 1.0 or params._scalar_eta(1) != 1.0:
            found["eta_first_two_steps_not_one"] = 0
        ks = np.arange(1, K)
        # eta_{k+1} for k = 1..K-1: the tabulated eta shifted by one
        eta_next = np.append(arrays["eta"][2:], params._scalar_eta(K))[:K - 1]
        lower = np.maximum(2.0 * (gamma[ks - 1] - gamma[ks]) / gamma[ks - 1],
                           params.c_eta * cons.l_g1**3 / params.mu_g * gamma[ks]**2)
        bad = np.nonzero(eta_next * tol < lower)[0]
        if bad.size:
            found["eta_below_window"] = int(ks[bad[0]])
    return found
