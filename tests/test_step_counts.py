"""Per-step call counts of the solver runs: K schedule advances and K steps
per per-seed run, six momentum updates on each momentum step, and none of
these inside a replicate sweep, which runs on whole-run schedule arrays."""

import sys
from collections import Counter

import numpy as np
import pytest

from fosbo.batch import f2sa_run_batch, f3sa_run_batch
from fosbo.f2sa import f2sa_run, f2sa_step
from fosbo.f3sa import f3sa_run, f3sa_step, momentum_update
from fosbo.oracles import NoiseRegime
from fosbo.schedule import Algorithm, advance, default_params, run_schedule

COUNTED = {"advance": advance, "f2sa_step": f2sa_step,
           "f3sa_step": f3sa_step, "momentum_update": momentum_update}
K = 30


@pytest.fixture()
def calls(monkeypatch):
    """Counts calls of each COUNTED function through every fosbo module
    that binds it."""
    counts = Counter()

    def counter(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for modname, mod in list(sys.modules.items()):
        if modname != "fosbo" and not modname.startswith("fosbo."):
            continue
        for attr, obj in list(vars(mod).items()):
            for name, fn in COUNTED.items():
                if obj is fn:
                    monkeypatch.setattr(mod, attr, counter(name, fn))
    return counts


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_f2sa_run(calls, canonical, sigma):
    p = default_params(Algorithm.F2SA, canonical.local_constants())
    f2sa_run(canonical.to_problem(sigma_f=sigma, sigma_g=sigma), p, K, 0,
             x0=np.array([1.0]))
    assert calls == Counter(advance=K, f2sa_step=K)


@pytest.mark.parametrize("regime, sigma", [(NoiseRegime.DETERMINISTIC, 0.0),
                                           (NoiseRegime.BOTH_NOISY, 0.2)])
def test_f3sa_run(calls, canonical, regime, sigma):
    p = default_params(Algorithm.F3SA, canonical.local_constants(), regime)
    f3sa_run(canonical.to_problem(sigma_f=sigma, sigma_g=sigma), p, K, 0,
             x0=np.array([1.0]))
    # momentum runs on the steps k >= 1 with eta_k < 1
    m = int(np.count_nonzero(run_schedule(p, K)["eta"][1:] < 1.0))
    assert m == (0 if p.c == 0 else K - 2)
    assert calls == Counter(advance=K, f3sa_step=K, momentum_update=6 * m)


@pytest.mark.parametrize("run_batch, algorithm", [
    (f2sa_run_batch, Algorithm.F2SA), (f3sa_run_batch, Algorithm.F3SA)])
def test_replicate_sweep(calls, canonical, run_batch, algorithm):
    p = default_params(algorithm, canonical.local_constants(),
                       NoiseRegime.BOTH_NOISY)
    run_batch(canonical, p, K, n_runs=3, master_seed=0, sigma_f=0.2,
              sigma_g=0.2, x0=np.array([1.0]))
    assert calls == Counter()
