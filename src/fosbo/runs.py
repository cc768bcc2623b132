"""Shared run plumbing for the solvers and baselines.

Every run produces a RunResult: final iterates plus checkpointed diagnostic
series on a common grid, so the harness can persist, aggregate and compare
traces from different algorithms without caring which one produced them.

``drive`` is the one outer loop behind every per-seed run.  Its contract:

- a row recorded at index k describes the state entering step k; the
  trailing row at K (present when the cadence divides K) is the post-run
  state;
- fields a step measures while it runs (the x direction's squared norm,
  an estimator error) complete the row recorded just before that step,
  before any callback sees the row;
- a NumericFailure raised anywhere in the loop, by the checkpoint guard, a
  diagnostic or a step between checkpoints, carries the rows recorded so
  far as its partial trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericFailure

DIVERGENCE_LIMIT = 1e12

# Diagnostic series every run reports (missing entries are NaN).
SERIES_FIELDS = (
    "lambda", "alpha", "gamma", "beta", "eta",
    "grad_F_sq", "proxy_sq", "dist_y_sq", "dist_z_sq",
    "potential", "train_loss", "val_loss", "mom_err_z_sq",
)


def checkpoint_cadence(K: int, checkpoint_every: int | None = None) -> int:
    """Steps between recorded rows; default caps a run at about 200 rows."""
    if checkpoint_every is not None:
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        return checkpoint_every
    return max(1, math.ceil(K / 200))


@dataclass
class RunResult:
    """Outcome of one seeded run.

    ``checkpoints`` holds the recorded iteration indices (state before the
    step at that index; the trailing index K, when present, is the post-run
    state).  ``series`` maps each SERIES_FIELDS name to an equal-length float
    array.  ``R`` is the uniformly drawn evaluation index and ``x_R`` the
    iterate snapshotted there.
    """

    algorithm: str
    problem_name: str
    seed: int
    K: int
    R: int
    x_R: np.ndarray | None
    x_final: np.ndarray
    y_final: np.ndarray
    z_final: np.ndarray | None
    lambda_final: float
    checkpoints: np.ndarray
    series: dict[str, np.ndarray]
    grad_estimator: str = "none"
    wall_time_s: float = 0.0


class TraceBuilder:
    """Accumulates checkpoint rows and finalizes them into arrays."""

    def __init__(self):
        self.ks: list[int] = []
        self.rows: list[dict] = []

    def add(self, k: int, **values) -> dict:
        row = dict(values)
        self.ks.append(k)
        self.rows.append(row)
        return row

    def finalize(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        ks = np.array(self.ks, dtype=int)
        series = {}
        for name in SERIES_FIELDS:
            series[name] = np.array(
                [row.get(name, math.nan) for row in self.rows], dtype=float)
        return ks, series


def guard_state(k: int, **vectors) -> None:
    """Abort the run if any iterate went non-finite or unbounded.

    Called at checkpoint cadence only; blow-ups between checkpoints that no
    step reports surface as NaN/Inf here.
    """
    for name, v in vectors.items():
        if v is None:
            continue
        norm = float(np.max(np.abs(v))) if np.ndim(v) else abs(float(v))
        if not math.isfinite(norm) or norm > DIVERGENCE_LIMIT:
            raise NumericFailure(
                f"iterate {name} diverged at k={k} (max abs {norm})",
                k=k, variable=name, magnitude=norm)


def drive(K: int, checkpoint_every: int | None,
          iterates: Callable[[], dict], row: Callable[[], dict],
          step: Callable[[bool], dict | None], *, R: int | None = None,
          callbacks=()) -> tuple[np.ndarray, dict[str, np.ndarray],
                                 np.ndarray | None]:
    """Run steps 0..K-1, recording a row every cadence-th step and at K.

    ``iterates()`` names the current iterates for the guard; its "x" is
    snapshotted entering step R.  ``row()`` gives the diagnostics of the
    current state.  ``step(due)`` advances the state by one step; when
    ``due`` (a row was recorded entering the step) it may return fields it
    measured, which complete that row.  Callbacks receive (k, row) once the
    row is complete and must not mutate run state.  Returns (checkpoints,
    series, x_R).
    """
    cadence = checkpoint_cadence(K, checkpoint_every)
    builder = TraceBuilder()
    x_R = None

    def record(k: int) -> dict:
        guard_state(k, **iterates())
        return builder.add(k, **row())

    try:
        for k in range(K):
            due = record(k) if k % cadence == 0 else None
            if k == R:
                x_R = iterates()["x"].copy()
            measured = step(due is not None)
            if due is not None:
                if measured:
                    due.update(measured)
                for cb in callbacks:
                    cb(k, due)
        if K > 0 and K % cadence == 0:
            last = record(K)
            for cb in callbacks:
                cb(K, last)
    except NumericFailure as exc:
        ks, series = builder.finalize()
        exc.context.update(partial_checkpoints=ks, partial_series=series)
        raise
    checkpoints, series = builder.finalize()
    return checkpoints, series, x_R
