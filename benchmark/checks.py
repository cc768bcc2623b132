"""Computations made apart from fosbo, against which the workloads' outputs
are checked: trace reading, log-log slopes, the AUC of learned cleaning
scores, and the oracle counts that the algorithm statements give for a run.
"""

from __future__ import annotations

import csv
import math
from collections import Counter

import numpy as np


def read_csv_columns(path) -> dict[str, np.ndarray]:
    """Numeric columns of a trace CSV; blank fields read as NaN."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise ValueError(f"{path}: no rows")
    out = {}
    for col in rows[0]:
        try:
            out[col] = np.array([float(r[col]) if r[col] != "" else math.nan
                                 for r in rows])
        except ValueError:
            continue  # a text column such as "algorithm"
    return out


def loglog_slope(k, values, k_min: float, k_max: float) -> float:
    """Least-squares slope of log(values) on log(k) for k in [k_min, k_max]."""
    k = np.asarray(k, dtype=float)
    values = np.asarray(values, dtype=float)
    window = (k >= max(k_min, 1.0)) & (k <= k_max)
    if np.count_nonzero(window) < 10 or not np.all(values[window] > 0):
        raise ValueError("need at least 10 positive values in the window")
    lx = np.log(k[window])
    ly = np.log(values[window])
    dx = lx - lx.mean()
    return float(dx @ (ly - ly.mean()) / (dx @ dx))


def auc(scores, corrupt) -> float:
    """Chance that a clean example scores above a corrupt one; ties count
    one half."""
    scores = np.asarray(scores, dtype=float)
    corrupt = np.asarray(corrupt, dtype=bool)
    clean, bad = scores[~corrupt], scores[corrupt]
    if not clean.size or not bad.size:
        raise ValueError("need clean and corrupt examples")
    above = np.count_nonzero(clean[:, None] > bad[None, :])
    tied = np.count_nonzero(clean[:, None] == bad[None, :])
    return (above + 0.5 * tied) / (clean.size * bad.size)


def rel_err(value: float, target: float) -> float:
    return abs(value - target) / abs(target)


# ---- algorithm-derived oracle counts ----

def checkpoint_rows(K: int, cadence: int) -> int:
    """Rows a run records: every cadence-th step, plus the post-run row when
    the cadence divides K."""
    return len(range(0, K, cadence)) + (1 if K > 0 and K % cadence == 0 else 0)


def _cadence(K: int, every: int | None) -> int:
    return every if every is not None else max(1, math.ceil(K / 200))


def _momentum_steps(params, K: int) -> int:
    """Steps k >= 1 whose weight eta_k = (k+1)^(-2c), forced to 1 for k <= 1,
    is below 1: only those evaluate the six previous-point gradients."""
    def eta(k):
        if params.eta_override is not None:
            return params.eta_override
        return 1.0 if k <= 1 else (k + 1.0) ** (-2.0 * params.c)
    return sum(1 for k in range(1, K) if eta(k) < 1.0)


def expected_counts(call) -> Counter:
    """Counts one solver or baseline run must produce.

    Keys are ("calls" | "tokens" | "samples", layer, channel) for the
    gradient oracles and span names for the per-step layers.  Samples are
    tokens times the token batch size.  Replicate sweeps use no oracle.
    """
    out: Counter = Counter()
    if hasattr(call.result, "n_runs"):
        return out
    kw = call.kwargs
    if call.label == "NoBO":
        K = call.args[1]
        out["runs.TraceBuilder.add"] = checkpoint_rows(
            K, _cadence(K, kw.get("checkpoint_every")))
        return out
    problem = call.args[0]
    layer = "hypercleaning" if problem.name == "hypercleaning" else "quadratic"
    regime = problem.noise_regime.value
    noisy = {"f": regime != "Deterministic", "g": regime == "BothNoisy"}
    batch = kw.get("batch_size", 1)

    def add(channel, calls, tokens):
        out["calls", layer, channel] += calls
        if noisy[channel[0]]:
            out["tokens", layer, channel] += tokens
            out["samples", layer, channel] += tokens * batch

    if call.label == "SOBO":
        K = call.args[1]
        inner = kw.get("inner_steps", 10)
        add("gy", inner * K, inner * K)
        add("fy", K, K)
        add("fx", K, K)
        out[f"{layer}.second_order.hess_g_yy"] = K
        out[f"{layer}.second_order.jac_g_xy"] = K
    else:
        params, K = call.args[1], call.args[2]
        out["schedule.advance"] = K
        if call.label == "F2SA":
            # per outer step: T (z, y) inner pairs, then one x step
            T = params.T
            add("gy", 2 * T * K, 2 * T * K)
            add("fy", T * K, T * K)
            add("fx", K, K)
            add("gx", 2 * K, K if kw.get("share_x_token", False) else 2 * K)
            out["f2sa.f2sa_step"] = K
        else:
            # six fresh evaluations on five tokens per step, six more at the
            # previous point on momentum steps, and one exact z-channel call
            # per checkpoint row inside the loop
            m = _momentum_steps(params, K)
            cadence = _cadence(K, kw.get("checkpoint_every"))
            add("gy", 2 * K + 2 * m, 2 * K)
            out["calls", layer, "gy"] += len(range(0, K, cadence))
            add("fy", K + m, K)
            add("fx", K + m, K)
            add("gx", 2 * K + 2 * m, K)
            out["f3sa.f3sa_step"] = K
            out["f3sa.momentum_update"] = 6 * m
    out["oracles.draw_token"] = sum(
        v for key, v in out.items() if isinstance(key, tuple) and key[0] == "tokens")
    rows = checkpoint_rows(K, _cadence(K, kw.get("checkpoint_every")))
    out["runs.TraceBuilder.add"] = rows
    out["reference.Diagnostics.state_row"] = rows
    return out


COUNTED_SPANS = ("oracles.draw_token", "schedule.advance", "f2sa.f2sa_step",
                 "f3sa.f3sa_step", "f3sa.momentum_update",
                 "runs.TraceBuilder.add", "reference.Diagnostics.state_row",
                 "quadratic.second_order.hess_g_yy",
                 "quadratic.second_order.jac_g_xy",
                 "hypercleaning.second_order.hess_g_yy",
                 "hypercleaning.second_order.jac_g_xy")


def count_mismatches(call, span_counts: Counter) -> list[str]:
    """Differences between a traced run's counts and the derived ones."""
    counted = Counter({k: v for k, v in call.counts.items()
                       if k[0] in ("calls", "tokens", "samples")})
    counted.update({name: span_counts[name] for name in COUNTED_SPANS
                    if span_counts[name]})
    expected = expected_counts(call)
    return [f"{call.label} run: {key} counted {counted[key]}, "
            f"derived {expected[key]}"
            for key in sorted(set(counted) | set(expected), key=str)
            if counted[key] != expected[key]]
