"""The benchmark's three workloads.

Each workload derives its inputs from the benchmark seed, runs one round of
user work through fosbo (the caller times the round), and then checks the
round's outputs against computations made apart from fosbo.  The workloads
call fosbo through module attributes, so the traced run sees its wrappers.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fosbo.batch as batch
import fosbo.f2sa as f2sa
import fosbo.f3sa as f3sa
import fosbo.harness.config as config
import fosbo.harness.runner as runner
import fosbo.problems.hypercleaning as hypercleaning
import fosbo.problems.quadratic as quadratic
import fosbo.schedule as schedule
from fosbo.oracles import NoiseRegime
from fosbo.schedule import Algorithm

import checks

# scalar-offset: f = (x^2 + y^2)/2 + y, g = (y - x)^2/2, so y*(x) = x and
# F(x) = x^2 + x, minimized at x* = -1/2 with grad F(x) = 2x + 1
X0 = 1.0
X_STAR = -0.5
SIGMA = 0.1


@dataclass
class Call:
    """One solver or baseline entry-point call."""

    label: str
    args: tuple
    kwargs: dict
    seconds: float = 0.0
    result: object = None
    failed: bool = True
    span_lo: int = 0
    span_hi: int = 0
    counts: Counter = field(default_factory=Counter)


class Probe:
    """Times the solver and baseline entry points, a handful of calls per
    round, with no per-step instrumentation.  With a tracer it also notes
    each call's span range and oracle counts for the count cross-check."""

    ENTRY_POINTS = (("f2sa_run", "F2SA"), ("f3sa_run", "F3SA"),
                    ("sobo_baseline_run", "SOBO"),
                    ("nobo_baseline_run", "NoBO"))

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.calls: list[Call] = []
        self.first_call: float | None = None
        self._patches: list[tuple[str, object]] = []

    def wrap(self, label: str, fn):
        def timed(*args, **kwargs):
            call = Call(label, args, kwargs)
            self.calls.append(call)
            tracer = self.tracer
            if tracer is not None:
                tracer.start_run()
                call.span_lo = tracer.span_count()
                before = Counter(tracer.counts)
            t0 = time.perf_counter()
            if self.first_call is None:
                self.first_call = t0
            try:
                call.result = fn(*args, **kwargs)
                call.failed = False
            finally:
                call.seconds = time.perf_counter() - t0
                if tracer is not None:
                    call.span_hi = tracer.span_count()
                    call.counts = tracer.counts - before
            return call.result
        return timed

    def install(self) -> None:
        """Time the entry points that ``fosbo run`` dispatches to."""
        for attr, label in self.ENTRY_POINTS:
            old = getattr(runner, attr)
            self._patches.append((attr, old))
            setattr(runner, attr, self.wrap(label, old))

    def uninstall(self) -> None:
        while self._patches:
            attr, old = self._patches.pop()
            setattr(runner, attr, old)


def fosbo_run(out_dir: Path, label: str, cfg: dict) -> dict:
    """Write a config file and run it as ``fosbo run`` does; the summary."""
    run_dir = out_dir / label
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "config.json"
    path.write_text(json.dumps(dict(cfg, out_dir=str(run_dir)), indent=2))
    return runner.run_experiment(config.load_config(path))


def det_schedule(alg: str, consts):
    """Acceptance test_04's deterministic schedules (a = 1/3, c = 0)."""
    if alg == "F2SA":
        return schedule.default_params(
            Algorithm.F2SA, consts, T=8, xi=0.9, k0=64, c_alpha=1.0 / 32,
            c_gamma=1.0 / 32, lambda0=2.0, a=1.0 / 3, c=0.0)
    return schedule.default_params(
        Algorithm.F3SA, consts, c_xi=2.0, k0=96, c_gamma=1.0 / 32,
        c_alpha=(1.0 / 32) * 96.0 ** (1.0 / 3) / 2.0, lambda0=2.0,
        a=1.0 / 3, c=0.0)


def rate_schedule(alg: str, regime: NoiseRegime, consts):
    """Acceptance test_05's schedules: the regime's decay exponents, with
    the step constants pinned so that lambda starts on its target."""
    algorithm = Algorithm(alg)
    if algorithm is Algorithm.F2SA:
        fixed, k0 = dict(T=8, xi=0.9, k0=64, lambda0=2.0), 64.0
        split = 4.0
    else:
        fixed, k0 = dict(c_xi=2.0, k0=96, lambda0=2.0), 96.0
        split = 2.0
    first = schedule.default_params(algorithm, consts, regime, **fixed)
    cg = (1.0 / 32) * k0 ** first.c
    ca = cg * k0 ** (first.a - first.c) / split
    return schedule.default_params(algorithm, consts, regime, c_alpha=ca,
                                   c_gamma=cg, **fixed)


def _first_last(path: Path, column: str) -> tuple[float, float]:
    """First and last finite value of a trace column."""
    vals = checks.read_csv_columns(path)[column]
    vals = vals[np.isfinite(vals)]
    return float(vals[0]), float(vals[-1])


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.rng = np.random.default_rng(seed)

    def _seeds(self, n: int) -> list[int]:
        return [int(s) for s in self.rng.integers(0, 2**31 - 1, size=n)]

    def round(self, probe: Probe) -> None:
        raise NotImplementedError

    def check(self, calls: list[Call], first: bool) -> list[str]:
        raise NotImplementedError


class QuadSeeds(Workload):
    """Per-seed runs of both solvers on scalar-offset through ``fosbo run``:
    a deterministic config on test_04's schedules and a both-noisy config
    (sigma_f = sigma_g = 0.1) on test_05's schedules over three seeds."""

    name = "quad-seeds"
    DET_K, DET_EVERY = 4000, 40
    NOISY_K, NOISY_EVERY, NOISY_SEEDS = 1000, 10, 3
    X_TOL = 0.05         # deterministic |x_K - x*|
    NOISY_FACTOR = 5.0   # noisy |x_K - x*| <= |x0 - x*| / factor

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.det_seed = self._seeds(1)[0]
        self.noisy_seeds = self._seeds(self.NOISY_SEEDS)
        self.summaries: dict[str, dict] = {}
        self.schedules: dict[str, dict] = {}

    def round(self, probe):
        quad = quadratic.builtin_zoo()["scalar-offset"]
        det = quad.local_constants()
        noisy = quad.local_constants(SIGMA, SIGMA)
        for alg in ("F2SA", "F3SA"):
            self.schedules[alg] = det_schedule(alg, det).to_dict()
            self.summaries[f"det-{alg}"] = fosbo_run(self.out_dir, f"det-{alg}", {
                "problem": {"kind": "quadratic-zoo", "name": "scalar-offset"},
                "algorithm": alg, "schedule": self.schedules[alg],
                "K": self.DET_K, "seeds": [self.det_seed],
                "checkpoint_every": self.DET_EVERY, "x0": [X0]})
        for alg in ("F2SA", "F3SA"):
            params = rate_schedule(alg, NoiseRegime.BOTH_NOISY, noisy)
            self.summaries[f"noisy-{alg}"] = fosbo_run(self.out_dir, f"noisy-{alg}", {
                "problem": {"kind": "quadratic-zoo", "name": "scalar-offset",
                            "sigma_f": SIGMA, "sigma_g": SIGMA},
                "algorithm": alg, "schedule": params.to_dict(),
                "K": self.NOISY_K, "seeds": self.noisy_seeds,
                "checkpoint_every": self.NOISY_EVERY, "x0": [X0]})

    def check(self, calls, first):
        bad = [f"{label}: {s['n_failed']} seeds failed"
               for label, s in self.summaries.items() if s["n_failed"]]
        for alg in ("F2SA", "F3SA"):
            runs = [c for c in calls if c.label == alg and not c.failed]
            det = [c for c in runs if c.args[2] == self.DET_K]
            noisy = [c for c in runs if c.args[2] == self.NOISY_K]
            if len(det) != 1 or len(noisy) != self.NOISY_SEEDS:
                bad.append(f"{alg}: {len(det)} deterministic and {len(noisy)} "
                           "noisy runs finished")
                continue
            bad += self._check_det(alg, det[0].result)
            gap0 = abs(X0 - X_STAR)
            for c in noisy:
                gap = abs(float(c.result.x_final[0]) - X_STAR)
                if not gap <= gap0 / self.NOISY_FACTOR:
                    bad.append(f"noisy {alg} seed {c.args[3]}: |x - x*| = "
                               f"{gap:.4f} > {gap0 / self.NOISY_FACTOR:.4f}")
            if first:
                again = {"F2SA": f2sa.f2sa_run, "F3SA": f3sa.f3sa_run}[alg](
                    *noisy[0].args, **noisy[0].kwargs)
                if (again.x_final.tobytes()
                        != noisy[0].result.x_final.tobytes()):
                    bad.append(f"noisy {alg} seed {noisy[0].args[3]}: "
                               "a repeat changed x_final")
        return bad

    def _check_det(self, alg, res) -> list[str]:
        bad = []
        K = self.DET_K
        x = float(res.x_final[0])
        if not abs(x - X_STAR) <= self.X_TOL:
            bad.append(f"det {alg}: x_K = {x:.6f}, not within {self.X_TOL} "
                       f"of {X_STAR}")
        trace = checks.read_csv_columns(
            self.out_dir / f"det-{alg}" / f"trace_{alg}_seed{self.det_seed}.csv")
        k, g = trace["k"], trace["grad_F_norm_sq"]
        if k[-1] != K or checks.rel_err(g[-1], (2.0 * x + 1.0) ** 2) > 1e-9:
            bad.append(f"det {alg}: final trace row is not grad F(x_K)^2")
        slope = checks.loglog_slope(k, g, K / 10, K)
        if not slope <= -0.5:
            bad.append(f"det {alg}: log-log slope {slope:.3f} > -0.5")
        if not g[-1] <= 1e-3 * g[0]:
            bad.append(f"det {alg}: final/initial {g[-1] / g[0]:.2e} > 1e-3")
        p = self.schedules[alg]
        base = K + p["k0"]
        ratio = (p["c_gamma"] / base ** p["c"]) / (p["c_alpha"] / base ** p["a"])
        target = ratio / 2.0 if alg == "F2SA" else ratio
        lam = self.summaries[f"det-{alg}"]["seeds"][0]["lambda_final"]
        if not checks.rel_err(lam, target) <= 1e-12:
            bad.append(f"det {alg}: lambda_K {lam!r} != {target!r}")
        return bad


class QuadSweep(Workload):
    """test_05's four regimes as 20-replicate sweeps of the batch engine."""

    name = "quad-sweep"
    K, EVERY, REPLICATES = 5000, 50, 20
    CASES = (("F2SA", NoiseRegime.BOTH_NOISY, SIGMA, SIGMA, -2.0 / 7.0),
             ("F3SA", NoiseRegime.BOTH_NOISY, SIGMA, SIGMA, -2.0 / 5.0),
             ("F2SA", NoiseRegime.UPPER_ONLY, SIGMA, 0.0, -2.0 / 5.0),
             ("F3SA", NoiseRegime.UPPER_ONLY, SIGMA, 0.0, -1.0 / 2.0))
    AGREE_K, AGREE_EVERY = 300, 30

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.master_seed = self._seeds(1)[0]
        self.results: dict = {}

    @staticmethod
    def _engine(alg):
        return batch.f2sa_run_batch if alg == "F2SA" else batch.f3sa_run_batch

    def round(self, probe):
        quad = quadratic.builtin_zoo()["scalar-offset"]
        for alg, regime, sf, sg, _ in self.CASES:
            params = rate_schedule(alg, regime, quad.local_constants(sf, sg))
            self.results[alg, regime] = probe.wrap(alg, self._engine(alg))(
                quad, params, self.K, n_runs=self.REPLICATES,
                master_seed=self.master_seed, sigma_f=sf, sigma_g=sg,
                x0=np.array([X0]), checkpoint_every=self.EVERY)

    def check(self, calls, first):
        bad = []
        finals = {}
        for alg, regime, _, _, exponent in self.CASES:
            res = self.results[alg, regime]
            label = f"{alg} {regime.value}"
            mean = res.series["grad_F_sq"].mean(axis=1)
            finals[alg, regime] = mean[-1]
            by_hand = np.mean((2.0 * res.x_final[:, 0] + 1.0) ** 2)
            if (res.checkpoints[-1] != self.K
                    or checks.rel_err(mean[-1], by_hand) > 1e-9):
                bad.append(f"{label}: final mean is not the mean grad F(x_K)^2")
            slope = checks.loglog_slope(res.checkpoints, mean, self.K / 10, self.K)
            if not slope <= exponent:
                bad.append(f"{label}: seed-mean slope {slope:.3f} > {exponent:.3f}")
        both = NoiseRegime.BOTH_NOISY
        if not finals["F3SA", both] <= finals["F2SA", both]:
            bad.append("both-noisy F3SA final mean above F2SA's")
        if first:
            bad += self._check_agreement()
        return bad

    def _check_agreement(self) -> list[str]:
        """A deterministic one-replicate sweep against the per-seed solver."""
        bad = []
        quad = quadratic.builtin_zoo()["scalar-offset"]
        problem = quad.to_problem()
        for alg, solo in (("F2SA", f2sa.f2sa_run), ("F3SA", f3sa.f3sa_run)):
            params = det_schedule(alg, quad.local_constants())
            one = self._engine(alg)(quad, params, self.AGREE_K, n_runs=1,
                                    master_seed=self.master_seed,
                                    x0=np.array([X0]),
                                    checkpoint_every=self.AGREE_EVERY)
            ref = solo(problem, params, self.AGREE_K, seed=self.master_seed,
                       x0=np.array([X0]), checkpoint_every=self.AGREE_EVERY)
            gap = max(float(np.max(np.abs(one.x_final[0] - ref.x_final))),
                      float(np.max(np.abs(one.y_final[0] - ref.y_final))),
                      float(np.max(np.abs(one.z_final[0] - ref.z_final))),
                      float(np.max(np.abs(one.series["grad_F_sq"][:, 0]
                                          - ref.series["grad_F_sq"]))))
            if not gap <= 1e-12:
                bad.append(f"{alg}: one-replicate sweep differs from the "
                           f"per-seed run by {gap:.2e}")
        return bad


class Cleaning(Workload):
    """Synthetic hypercleaning through ``fosbo run`` with batch_size 50, as
    test_07 runs it: F2SA, F3SA, the NoBO baseline and a short SOBO run."""

    name = "cleaning"
    DATA = {"kind": "hypercleaning", "n_train": 2000, "n_val": 200,
            "num_classes": 4, "dim": 16, "corruption": 0.3, "reg": 0.01}
    BATCH = 50
    K = {"F2SA": 1000, "F3SA": 500, "NoBO": 1000, "SOBO": 10}
    LOSS_RATIO = 0.95   # first-order final val loss <= ratio * NoBO's
    AUC_FLOOR = 0.99

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.data_seed, self.run_seed = self._seeds(2)
        self.summaries: dict[str, dict] = {}

    def _schedule(self, alg: str) -> dict:
        """test_07's constant steps; F3SA decays both steps at the same
        rate (a = c = 1/4) so that its momentum weight falls below one."""
        p = {"algorithm": alg, "noise_regime": "BothNoisy", "a": 0.0,
             "c": 0.0, "k0": 1, "lambda0": 2.0, "xi": 1.0, "T": 1,
             "c_alpha": 0.01, "c_gamma": 0.02, "mu_g": 2.0 * self.DATA["reg"]}
        if alg == "F3SA":
            p.update(a=0.25, c=0.25)
        return p

    def round(self, probe):
        problem = dict(self.DATA, data_seed=self.data_seed)
        for alg, K in self.K.items():
            cfg = {"problem": problem, "algorithm": alg, "K": K,
                   "seeds": [self.run_seed], "batch_size": self.BATCH}
            if alg in ("F2SA", "F3SA"):
                cfg.update(schedule=self._schedule(alg), check_constants=False)
            self.summaries[alg] = fosbo_run(self.out_dir, alg, cfg)

    def check(self, calls, first):
        bad = [f"{label}: {s['n_failed']} seeds failed"
               for label, s in self.summaries.items() if s["n_failed"]]
        initial, losses = {}, {}
        for alg in self.K:
            initial[alg], losses[alg] = _first_last(
                self.out_dir / alg / f"trace_{alg}_seed{self.run_seed}.csv",
                "val_loss")
            if not abs(initial[alg] - math.log(4.0)) <= 1e-12:
                bad.append(f"{alg}: initial val loss {initial[alg]!r} != ln 4")
        for alg in ("F2SA", "F3SA"):
            if not losses[alg] <= self.LOSS_RATIO * losses["NoBO"]:
                bad.append(f"{alg}: final val loss {losses[alg]:.4f} above "
                           f"{self.LOSS_RATIO} x NoBO's {losses['NoBO']:.4f}")
        if not losses["SOBO"] < initial["SOBO"]:
            bad.append("SOBO: validation loss did not fall")
        spec = {k: v for k, v in self.DATA.items() if k != "kind"}
        data = hypercleaning.make_synthetic_hypercleaning(
            **spec, seed=self.data_seed)
        for c in calls:
            if c.label in ("F2SA", "F3SA") and not c.failed:
                score = checks.auc(c.result.x_final, data.corrupt_mask)
                if not score >= self.AUC_FLOOR:
                    bad.append(f"{c.label}: score AUC {score:.4f} below "
                               f"{self.AUC_FLOOR}")
        return bad


WORKLOADS = {w.name: w for w in (QuadSeeds, QuadSweep, Cleaning)}
