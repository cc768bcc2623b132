"""First-order stochastic oracle layer for bilevel problems.

A bilevel problem  min_x F(x) = f(x, y*(x)),  y*(x) = argmin_y g(x, y)
is exposed to the solvers purely through four stochastic gradient channels
(fx, fy, gx, gy).  Randomness is reified as replayable sample tokens: the
same token evaluated at two different points reuses the same underlying
sample (same additive noise vector, same mini-batch), which is exactly what
the momentum-corrected estimators need.

A token's sample is drawn from a counter-based Philox stream keyed by
(token key, channel id) at counter 0 (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC 2011).  Each thread holds one Philox
generator and re-keys it for every draw, so no generator is built per
oracle call and no seeding pass runs.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError

Vector = np.ndarray


def _inner(u: np.ndarray, v: np.ndarray):
    """u'v: the BLAS dot on vectors, one value per row on (S, d) rows."""
    return u.dot(v) if u.ndim == 1 else np.einsum("ij,ij->i", u, v)


# Channel ids form the second word of the Philox key, so distinct channels fed
# the same token draw from independent streams, while the two g-channel
# evaluations that share a token (momentum pairs) see identical noise.
_CHANNEL_ID = {"fx": 0x1F_A1, "fy": 0x2F_B3, "gx": 0x3F_C5, "gy": 0x4F_D7}


class NoiseRegime(enum.Enum):
    """Which oracle channels are stochastic."""

    BOTH_NOISY = "BothNoisy"
    UPPER_ONLY = "UpperOnly"
    DETERMINISTIC = "Deterministic"

    def __init__(self, value: str):
        # plain attributes, not properties: solvers read them per oracle call
        self.f_noisy = value != "Deterministic"
        self.g_noisy = value == "BothNoisy"


@dataclass(frozen=True)
class SampleToken:
    """Handle for one random draw.

    ``key`` (an unsigned 64-bit integer) is the first word of the Philox key
    the draw comes from, the channel id being the second; ``batch_size`` is
    the nominal number of samples averaged in it (mini-batch size for
    dataset oracles, averaging count for synthetic additive noise).  Tokens
    are immutable and replayable: the same token always reproduces the same
    sample, bit for bit.
    """

    key: int
    batch_size: int = 1


def draw_token(stream: np.random.Generator, batch_size: int = 1) -> SampleToken:
    """Draw a fresh token from ``stream``.

    Consumes exactly one 64-bit word from the stream, so token sequences are
    reproducible from the stream's seed.
    """
    if batch_size <= 0:
        raise InvalidArgumentError(f"batch_size must be positive, got {batch_size}")
    key = int(stream.bit_generator.random_raw())
    return SampleToken(key=key, batch_size=batch_size)


class _KeyedPhilox(threading.local):
    """One Philox generator per thread plus the state dict that re-keys it."""

    def __init__(self):
        self.bit_generator = np.random.Philox(0)
        self.generator = np.random.Generator(self.bit_generator)
        self.key = [0, 0]
        # counter 0 and an empty output buffer: the stream starts afresh
        self.state = {"bit_generator": "Philox",
                      "state": {"counter": [0, 0, 0, 0], "key": self.key},
                      "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                      "has_uint32": 0, "uinteger": 0}


_keyed = _KeyedPhilox()


def token_rng(token: SampleToken, channel: str) -> np.random.Generator:
    """Deterministic generator for (token, channel).

    Returns this thread's Philox generator re-keyed to (token key, channel
    id) at counter 0.  Same token and channel give the same draws regardless
    of the point at which the oracle is evaluated or of what was drawn
    before; this is what makes momentum pairs share their sample.  The
    generator is re-keyed by the next call on the same thread, so callers
    draw from it at once and do not keep it.
    """
    keyed = _keyed
    keyed.key[0] = token.key
    keyed.key[1] = _CHANNEL_ID[channel]
    keyed.bit_generator.state = keyed.state
    return keyed.generator


def gaussian_noise(token: SampleToken, channel: str, dim: int, sigma: float) -> Vector:
    """Additive noise used by the synthetic problems.

    Depends only on (token, channel), not on the evaluation point, so that a
    replayed token cancels exactly in finite differences of the same channel.
    Scaled so that E ||noise||^2 = sigma^2 / batch_size.
    """
    if sigma == 0.0:
        return np.zeros(dim)
    scale = sigma / math.sqrt(dim * token.batch_size)
    return token_rng(token, channel).standard_normal(dim) * scale


@dataclass(frozen=True)
class RegularityConstants:
    """Problem regularity data and the derived constants the schedules need.

    ``l_f0`` bounds the norms of both partial gradients of f on the region of
    interest, ``l_f1``/``l_g1`` are joint gradient Lipschitz constants,
    ``mu_g`` is the strong-convexity modulus of g in y, ``l_g2``/``l_f2`` are
    Hessian Lipschitz constants and ``sigma_f``/``sigma_g`` bound the oracle
    noise.  ``l_lambda0`` (Lipschitz constant of the penalized lower-level
    solution in x) may be declared exactly; otherwise the generic bound
    3 l_g1 / mu_g is used.
    """

    l_f0: float
    l_f1: float
    l_g0: float
    l_g1: float
    mu_g: float
    l_g2: float = 0.0
    l_f2: float = 0.0
    sigma_f: float = 0.0
    sigma_g: float = 0.0
    l_lambda0: float = field(default=-1.0)

    def __post_init__(self):
        if self.mu_g <= 0:
            raise InvalidArgumentError(f"mu_g must be positive, got {self.mu_g}")
        if self.l_g1 < self.mu_g:
            raise InvalidArgumentError(
                f"l_g1 ({self.l_g1}) must dominate mu_g ({self.mu_g})")
        for name in ("l_f0", "l_f1", "l_g0", "l_g2", "l_f2", "sigma_f", "sigma_g"):
            if getattr(self, name) < 0:
                raise InvalidArgumentError(f"{name} must be nonnegative")
        if self.l_lambda0 < 0:
            object.__setattr__(self, "l_lambda0", 3.0 * self.l_g1 / self.mu_g)
        elif self.l_lambda0 > 3.0 * self.l_g1 / self.mu_g + 1e-12:
            raise InvalidArgumentError(
                "declared l_lambda0 exceeds the generic bound 3 l_g1 / mu_g")

    # ---- derived constants ----

    @property
    def lambda_min(self) -> float:
        """Smallest penalty multiplier for which the penalized problem is
        strongly convex in y with modulus >= mu_g / 2."""
        return 2.0 * self.l_f1 / self.mu_g

    @property
    def l_star0(self) -> float:
        return 1.0 + self.l_lambda0

    @property
    def l_F1(self) -> float:
        """Smoothness bound for the hyperobjective F."""
        return self.l_star0 * (
            self.l_f1
            + self.l_g1**2 / self.mu_g
            + 2.0 * self.l_f0 * self.l_g1 * self.l_g2 / self.mu_g**2
        )

    @property
    def l_star1(self) -> float:
        """Smoothness bound for the penalized solution map, worst multiplier."""
        if self.l_f2 == 0.0:
            extra = 0.0
        else:
            lam = max(self.lambda_min, 1e-12)
            extra = self.l_f2 / lam
        return 32.0 * (self.l_g2 + extra) * self.l_g1**2 / self.mu_g**3

    @property
    def C_lambda(self) -> float:
        """Bias constant: the penalty-proxy gradient is within C_lambda / lambda
        of the true hypergradient."""
        return (4.0 * self.l_f0 * self.l_g1 / self.mu_g**2) * (
            self.l_f1 + 2.0 * self.l_f0 * self.l_g2 / self.mu_g
        )

    @property
    def M(self) -> float:
        """Second-moment bound over both oracle families."""
        return max(self.l_f0**2 + self.sigma_f**2, self.l_g0**2 + self.sigma_g**2)


GradOracle = Callable[[Vector, Vector, SampleToken | None], Vector]


@dataclass(frozen=True)
class SecondOrderOracle:
    """Exact second-order information for reference computations only.

    ``hess_g_yy(x, y)`` is the lower-level Hessian in y and ``jac_g_xy(x, y)``
    the mixed block with shape (dim_x, dim_y).  Solvers never touch this; it
    exists so reference code can compute exact hypergradients to compare
    against, and for the second-order baseline in benchmark runs.
    """

    hess_g_yy: Callable[[Vector, Vector], np.ndarray]
    jac_g_xy: Callable[[Vector, Vector], np.ndarray]


@dataclass(frozen=True)
class BilevelProblem:
    """A bilevel problem seen through first-order oracles.

    The four gradient callables take (x, y, token) and return one partial
    gradient; ``token=None`` means the exact (noise-free, full-batch)
    gradient.  Oracles must be pure: no internal state, safe to call from
    multiple threads, same inputs always give the same output.

    ``value_f`` / ``value_g`` are optional exact objective evaluators used for
    diagnostics, and ``analytics``/``second_order`` expose closed forms where
    a problem has them (see the problems and reference modules).
    """

    dim_x: int
    dim_y: int
    grad_f_x: GradOracle
    grad_f_y: GradOracle
    grad_g_x: GradOracle
    grad_g_y: GradOracle
    noise_regime: NoiseRegime
    constants: RegularityConstants
    value_f: Callable[[Vector, Vector], float] | None = None
    value_g: Callable[[Vector, Vector], float] | None = None
    analytics: object | None = None
    second_order: object | None = None
    name: str = "problem"
