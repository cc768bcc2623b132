import dataclasses
from collections import Counter

import numpy as np
import pytest

from fosbo.problems import builtin_zoo


@pytest.fixture(scope="session")
def zoo():
    return builtin_zoo()


@pytest.fixture()
def canonical(zoo):
    """The 1-d all-ones instance: f = (x^2+y^2)/2, g = (y-x)^2/2."""
    return zoo["scalar-canonical"]


@pytest.fixture()
def canonical_problem(canonical):
    return canonical.to_problem()


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def counted_oracles():
    """Wraps a problem's four gradient oracles with counters.

    Returns (problem, calls, keys): ``calls`` counts calls per (channel,
    "token" | "exact"), ``keys`` holds each channel's distinct token keys.
    """
    def wrap(problem):
        calls = Counter()
        keys = {ch: set() for ch in ("fx", "fy", "gx", "gy")}

        def counted(channel, oracle):
            def call(x, y, token=None):
                calls[channel, "exact" if token is None else "token"] += 1
                if token is not None:
                    keys[channel].add(token.key)
                return oracle(x, y, token)
            return call

        return dataclasses.replace(
            problem, grad_f_x=counted("fx", problem.grad_f_x),
            grad_f_y=counted("fy", problem.grad_f_y),
            grad_g_x=counted("gx", problem.grad_g_x),
            grad_g_y=counted("gy", problem.grad_g_y)), calls, keys
    return wrap
