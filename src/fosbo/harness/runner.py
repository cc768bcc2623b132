"""Experiment orchestration: build the problem, run every seed, persist
traces and an aggregate summary."""

from __future__ import annotations

import inspect
import json
import math
import time
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import ConfigError, DataError, NumericFailure
from ..f2sa import f2sa_run
from ..f3sa import f3sa_run
from ..oracles import BilevelProblem
from ..problems.datasets import load_dataset
from ..problems.hypercleaning import (HypercleaningProblem, corrupt_labels,
                                      hypercleaning_oracles,
                                      make_synthetic_hypercleaning,
                                      nobo_baseline_run)
from ..problems.quadratic import builtin_zoo, make_quadratic
from ..reference import Diagnostics, sobo_baseline_run
from ..runs import RunResult
from ..schedule import check_sweep
from .analysis import as_trace_arrays
from .config import ExperimentConfig
from .trace import write_trace_csv

_AGG_FIELDS = ("grad_F_norm_sq", "proxy_norm", "dist_y_to_ystar_lambda",
               "dist_z_to_ystar", "train_loss", "val_loss", "potential",
               "lambda")


def build_problem(cfg: ExperimentConfig
                  ) -> tuple[BilevelProblem, HypercleaningProblem | None]:
    """Instantiate the problem named by the config.

    Returns the oracle bundle plus, for cleaning problems, the underlying
    dataset object (which the no-bilevel baseline trains on directly).
    """
    spec = cfg.problem
    kind = spec["kind"]
    if kind == "quadratic-zoo":
        zoo = builtin_zoo()
        name = spec["name"]
        if name not in zoo:
            raise ConfigError(f"unknown built-in problem {name!r}; "
                              f"available: {sorted(zoo)}", path="problem.name")
        quad = zoo[name]
        return quad.to_problem(sigma_f=spec.get("sigma_f", 0.0),
                               sigma_g=spec.get("sigma_g", 0.0)), None
    if kind == "quadratic-random":
        quad = make_quadratic((spec["dim_x"], spec["dim_y"]), spec["seed"],
                              conditioning=spec.get("conditioning", 10.0))
        return quad.to_problem(sigma_f=spec.get("sigma_f", 0.0),
                               sigma_g=spec.get("sigma_g", 0.0)), None
    data = _build_cleaning_data(spec)
    return hypercleaning_oracles(data, batch_size=cfg.batch_size), data


def _build_cleaning_data(spec: dict) -> HypercleaningProblem:
    file_keys = ("train_images", "train_labels", "val_images", "val_labels")
    present = [k for k in file_keys if k in spec]
    if not present:
        return make_synthetic_hypercleaning(
            n_train=spec.get("n_train", 2000), n_val=spec.get("n_val", 200),
            num_classes=spec.get("num_classes", 4), dim=spec.get("dim", 16),
            corruption=spec.get("corruption", 0.3), reg=spec.get("reg", 0.01),
            seed=spec.get("data_seed", 0),
            cluster_spread=spec.get("cluster_spread", 1.5))
    if len(present) != 4:
        raise ConfigError("dataset-backed cleaning needs all four of "
                          f"{file_keys}", path="problem")
    Xt, _ = load_dataset(spec["train_images"], "idx")
    _, yt = load_dataset(spec["train_labels"], "idx")
    Xv, _ = load_dataset(spec["val_images"], "idx")
    _, yv = load_dataset(spec["val_labels"], "idx")
    for arr, key in ((Xt, "train_images"), (yt, "train_labels"),
                     (Xv, "val_images"), (yv, "val_labels")):
        if arr is None:
            raise DataError(f"{spec[key]}: wrong IDX content for {key}")
    n = spec.get("n_train", Xt.shape[0])
    m = spec.get("n_val", Xv.shape[0])
    if n > Xt.shape[0] or m > Xv.shape[0]:
        raise DataError("requested more examples than the files provide")
    Xt, yt, Xv, yv = Xt[:n], yt[:n], Xv[:m], yv[:m]
    num_classes = spec.get("num_classes", int(max(yt.max(), yv.max())) + 1)
    if yt.max() >= num_classes or yv.max() >= num_classes:
        raise DataError("label outside [0, num_classes)")
    corrupted, mask = corrupt_labels(yt, spec.get("corruption", 0.3),
                                     num_classes, seed=spec.get("data_seed", 0))
    return HypercleaningProblem(
        X_train=Xt, y_train=corrupted, y_clean=yt, corrupt_mask=mask,
        X_val=Xv, y_val=yv, num_classes=num_classes,
        reg=spec.get("reg", 0.01))


def _seed_call(cfg: ExperimentConfig, problem: BilevelProblem,
               data: HypercleaningProblem | None) -> tuple[Callable, tuple, dict]:
    """The per-seed call of the configured entry point: the function, the
    arguments before the seed, and the keyword arguments, solver options
    included.  Rejects an ``x0`` or an option the entry point cannot take,
    so a bad config fails before any seed runs."""
    x0 = None if cfg.x0 is None else np.array(cfg.x0, dtype=float)
    if x0 is not None and x0.shape != (problem.dim_x,):
        raise ConfigError(f"has {x0.size} entries, the problem has dim_x = "
                          f"{problem.dim_x}", path="x0")
    kw = dict(batch_size=cfg.batch_size, checkpoint_every=cfg.checkpoint_every)
    if cfg.algorithm == "NoBO":
        if data is None:
            raise ConfigError("the NoBO baseline only applies to cleaning "
                              "problems", path="algorithm")
        entry, head = nobo_baseline_run, (data, cfg.K)
    elif cfg.algorithm == "SOBO":
        entry, head = sobo_baseline_run, (problem, cfg.K)
        kw.update(x0=x0, grad_mode=cfg.grad_mode)
    else:
        entry = f2sa_run if cfg.algorithm == "F2SA" else f3sa_run
        head = (problem, cfg.schedule, cfg.K)
        kw.update(x0=x0, grad_mode=cfg.grad_mode,
                  check_constants=cfg.check_constants)
    params = inspect.signature(entry).parameters
    # an entry point that takes **kwargs (a wrapper) accepts any option
    if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
        free = [name for name in list(params)[len(head) + 1:] if name not in kw]
        for key in cfg.solver_options:
            if key not in free:
                raise ConfigError(f"{cfg.algorithm} takes no option {key!r}; "
                                  f"options: {free}", path=f"solver_options.{key}")
    return entry, head, {**kw, **cfg.solver_options}


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run all seeds, write one trace file per successful seed plus
    summary.json, and return the summary dict.

    For F2SA and F3SA the summary's "condition_violations" maps each
    step-size condition the schedule breaks within K steps to the first k
    at which it does (``schedule.check_sweep``); {} means none.

    A seed that diverges is recorded as failed and does not abort the rest.
    The rows it recorded before the failure go to
    ``partial_<algorithm>_seed<seed>.csv``, named in its summary entry.
    The summary's "n_failed" equals len(seeds) when everything failed; the
    CLI turns that into a numeric-failure exit code.
    """
    t_start = time.perf_counter()
    problem, data = build_problem(cfg)
    run_entry, head, kwargs = _seed_call(cfg, problem, data)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    runs: list[RunResult] = []
    per_seed = []
    for seed in cfg.seeds:
        entry: dict = {"seed": seed}
        try:
            res = run_entry(*head, seed, **kwargs)
        except NumericFailure as exc:
            entry.update(status="numeric-failure", error=str(exc),
                         error_context={k: v for k, v in exc.context.items()
                                        if isinstance(v, (int, float, str))})
            if "partial_checkpoints" in exc.context:
                ppath = out_dir / f"partial_{cfg.algorithm}_seed{seed}.csv"
                _write_partial_trace(ppath, cfg, problem, seed, exc.context)
                entry["partial_trace"] = str(ppath)
            per_seed.append(entry)
            continue
        tpath = out_dir / f"trace_{res.algorithm}_seed{seed}.csv"
        write_trace_csv(tpath, res)
        finals = {name: _last_finite(res.series.get(name))
                  for name in ("grad_F_sq", "val_loss", "train_loss")}
        entry.update(status="ok", R=res.R, trace=str(tpath),
                     wall_time_s=res.wall_time_s,
                     lambda_final=_none_if_nan(res.lambda_final),
                     finals={k: v for k, v in finals.items() if v is not None})
        per_seed.append(entry)
        runs.append(res)

    summary = {
        "algorithm": cfg.algorithm,
        "problem": cfg.problem,
        "K": cfg.K,
        "n_seeds": len(cfg.seeds),
        "n_failed": sum(1 for e in per_seed if e["status"] != "ok"),
        "seeds": per_seed,
        "aggregate": _aggregate(runs),
    }
    if cfg.schedule is not None:
        # the solvers warn about step 0 only; this names every condition
        # that fails anywhere in the K-step schedule, with its first k
        summary["condition_violations"] = check_sweep(
            cfg.schedule, problem.constants, cfg.K)
    summary["wall_time_s"] = time.perf_counter() - t_start
    with open(out_dir / "summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return summary


def _write_partial_trace(path: Path, cfg: ExperimentConfig,
                         problem: BilevelProblem, seed: int,
                         context: dict) -> None:
    """Persist the rows a failed seed recorded; values that had already
    blown up are written as blanks, since a trace holds finite values only."""
    series = {name: np.where(np.isfinite(v), v, math.nan)
              for name, v in context["partial_series"].items()}
    grad_kind = ("none" if cfg.algorithm == "NoBO"
                 else Diagnostics(problem, cfg.grad_mode).kind)
    empty = np.empty(0)
    write_trace_csv(path, RunResult(
        algorithm=cfg.algorithm, problem_name=problem.name, seed=seed,
        K=cfg.K, R=0, x_R=None, x_final=empty, y_final=empty, z_final=None,
        lambda_final=math.nan, checkpoints=context["partial_checkpoints"],
        series=series, grad_estimator=grad_kind))


def _last_finite(arr) -> float | None:
    if arr is None:
        return None
    vals = np.asarray(arr, dtype=float)
    good = np.isfinite(vals)
    if not good.any():
        return None
    return float(vals[good][-1])


def _none_if_nan(v: float):
    return None if v is None or math.isnan(v) else float(v)


def _aggregate(runs: list[RunResult]) -> dict:
    """Seed mean and stderr of each diagnostic on the shared checkpoint grid."""
    if not runs:
        return {}
    traces = [as_trace_arrays(r) for r in runs]
    grid = traces[0]["k"]
    for t in traces[1:]:
        if not np.array_equal(t["k"], grid):
            raise DataError("seeds produced different checkpoint grids")
    out: dict = {"k": [int(k) for k in grid]}
    n = len(traces)
    for name in _AGG_FIELDS:
        stack = np.stack([t[name] for t in traces])
        if not np.any(np.isfinite(stack)):
            continue
        mean = stack.mean(axis=0)
        stderr = (stack.std(axis=0, ddof=1) / math.sqrt(n) if n > 1
                  else np.zeros(len(grid)))
        out[name] = {"mean": _jsonify(mean), "stderr": _jsonify(stderr)}
    return out


def _jsonify(arr) -> list:
    return [None if not math.isfinite(v) else float(v) for v in arr]
