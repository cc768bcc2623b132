"""Convergence-rate fitting and plot-data export."""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np

from ..errors import DataError
from ..runs import RunResult
from .trace import records_from_run


def as_trace_arrays(t) -> dict:
    """Accept a RunResult or an already-loaded trace dict."""
    if isinstance(t, RunResult):
        return records_from_run(t)
    if not isinstance(t, dict) or "k" not in t:
        raise DataError("trace must be a RunResult or a dict with a 'k' array")
    return t


def _common_grid(traces: list[dict]) -> np.ndarray:
    grid = np.asarray(traces[0]["k"])
    for i, t in enumerate(traces[1:], start=1):
        if not np.array_equal(np.asarray(t["k"]), grid):
            raise DataError(f"trace {i} has a different checkpoint grid")
    return grid


def _seed_mean_stderr(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and standard error over the rows (seeds) of ``stack``
    that hold a finite value: NaN where none does, stderr 0 where one does."""
    cnt = np.sum(np.isfinite(stack), axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.where(cnt > 0, np.nanmean(stack, axis=0), math.nan)
        sd = np.where(cnt > 1, np.nanstd(stack, axis=0, ddof=1), 0.0)
    return mean, np.where(cnt > 0, sd / np.sqrt(np.maximum(cnt, 1)), math.nan)


def fit_rate(traces, k_min: float, k_max: float,
             field: str) -> tuple[float, float, float]:
    """Log-log least-squares slope of a diagnostic over a checkpoint window.

    Multiple traces are seed-averaged on their (shared) checkpoint grid
    before fitting.  Returns (slope, intercept, r_squared), with the
    intercept in log space.  Needs at least 10 usable checkpoints; any
    nonpositive or missing averaged value inside the window is an error
    naming the offending row.
    """
    if isinstance(traces, (dict, RunResult)):
        traces = [traces]
    traces = [as_trace_arrays(t) for t in traces]
    if not traces:
        raise DataError("no traces given")
    grid = _common_grid(traces)
    for t in traces:
        if field not in t:
            raise DataError(f"trace has no field {field!r}")
    vals = np.mean([np.asarray(t[field], dtype=float) for t in traces], axis=0)
    # k=0 can never enter a log-log fit
    mask = (grid >= max(k_min, 1)) & (grid <= k_max)
    ks = grid[mask]
    vs = vals[mask]
    bad = ~(vs > 0) | ~np.isfinite(vs)
    if np.any(bad):
        row = int(ks[np.argmax(bad)])
        raise DataError(f"nonpositive or missing {field} at row k={row}")
    if ks.size < 10:
        raise DataError(f"only {ks.size} checkpoints in [{k_min}, {k_max}], "
                        "need at least 10")
    lx, ly = np.log(ks.astype(float)), np.log(vs)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def emit_plot_data(traces, fields, out_path) -> None:
    """Write a wide CSV: k plus seed-mean and stderr per (algorithm, field).

    Traces must share one checkpoint grid; they are grouped by algorithm in
    first-seen order.  Rows where no trace provides a value leave the cell
    empty.
    """
    if isinstance(fields, str):
        fields = [fields]
    traces = [as_trace_arrays(t) for t in traces]
    if not traces:
        raise DataError("no traces given")
    if not fields:
        raise DataError("no fields given")
    grid = _common_grid(traces)
    algs: list[str] = []
    for t in traces:
        a = t.get("algorithm", "run")
        if a not in algs:
            algs.append(a)

    header = ["k"]
    columns = []
    for a in algs:
        group = [t for t in traces if t.get("algorithm", "run") == a]
        for fname in fields:
            for t in group:
                if fname not in t:
                    raise DataError(f"a {a} trace has no field {fname!r}")
            header += [f"{a}.{fname}.mean", f"{a}.{fname}.stderr"]
            columns += _seed_mean_stderr(np.stack(
                [np.asarray(t[fname], dtype=float) for t in group]))

    with open(out_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for i, k in enumerate(grid):
            row = [int(k)]
            for col in columns:
                v = col[i]
                row.append("" if not math.isfinite(v) else repr(float(v)))
            w.writerow(row)
