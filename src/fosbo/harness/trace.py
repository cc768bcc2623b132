"""Trace columns and CSV persistence for solver runs.

One trace file per (algorithm, seed) run: a header row then one row per
checkpoint.  Missing diagnostics (no analytics, no eta for the double-loop
solver) are written as empty fields and read back as NaN.  Distances
and the proxy norm are stored unsquared; the gradient diagnostic is the
squared norm, with a column flagging whether it was exact or estimated.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from ..errors import DataError
from ..runs import RunResult

# column order of the trace file; "algorithm" and "seed" repeat per row so a
# trace file is self-describing for downstream grouping
TRACE_COLUMNS = (
    "algorithm", "seed", "k", "lambda", "alpha", "gamma", "eta",
    "grad_F_norm_sq", "grad_kind", "proxy_norm",
    "dist_y_to_ystar_lambda", "dist_z_to_ystar",
    "train_loss", "val_loss", "potential",
)

# each numeric column -> (the run series it comes from, stored unsquared)
NUMERIC_COLUMNS = {
    "lambda": ("lambda", False),
    "alpha": ("alpha", False),
    "gamma": ("gamma", False),
    "eta": ("eta", False),
    "grad_F_norm_sq": ("grad_F_sq", False),
    "proxy_norm": ("proxy_sq", True),
    "dist_y_to_ystar_lambda": ("dist_y_sq", True),
    "dist_z_to_ystar": ("dist_z_sq", True),
    "train_loss": ("train_loss", False),
    "val_loss": ("val_loss", False),
    "potential": ("potential", False),
}


def records_from_run(result: RunResult) -> dict:
    """A run's trace as the columns read_trace returns: "algorithm", "seed"
    and "grad_kind" scalars, the "k" array, and one float array per numeric
    column with NaN where the run provides no value.

    Enforces the trace invariants: strictly increasing k and finite values
    everywhere a value is present.
    """
    ks = np.asarray(result.checkpoints, dtype=int)
    bad = np.flatnonzero(np.diff(ks, prepend=-1) <= 0)
    if bad.size:
        raise DataError(f"checkpoint indices not increasing at row {bad[0]}")
    out: dict = {"algorithm": result.algorithm, "seed": result.seed,
                 "grad_kind": result.grad_estimator, "k": ks}
    for column, (name, unsquared) in NUMERIC_COLUMNS.items():
        v = np.asarray(result.series.get(name, np.full(ks.size, math.nan)),
                       dtype=float)
        inf = np.flatnonzero(np.isinf(v))
        if inf.size:
            raise DataError(f"non-finite {column} at k={ks[inf[0]]}")
        out[column] = np.sqrt(v) if unsquared else v
    return out


def write_trace_csv(path, result: RunResult) -> None:
    cols = records_from_run(result)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(TRACE_COLUMNS)
        for i, k in enumerate(cols["k"]):
            w.writerow([_fmt(cols[c][i]) if c in NUMERIC_COLUMNS
                        else int(k) if c == "k" else cols[c]
                        for c in TRACE_COLUMNS])


def _fmt(v: float) -> str:
    return "" if math.isnan(v) else repr(float(v))


def read_trace(path) -> dict:
    """Read a trace CSV into a dict of arrays (numeric fields become float
    arrays with NaN for blanks) plus "algorithm", "seed" and "grad_kind"
    scalars."""
    try:
        f = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read trace file: {exc}") from None
    with f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty trace file") from None
        if tuple(header) != TRACE_COLUMNS:
            raise DataError(f"{path}: unexpected trace header {header}")
        rows = [r for r in reader if r]
    if not rows:
        raise DataError(f"{path}: trace has no checkpoint rows")
    if any(len(r) != len(TRACE_COLUMNS) for r in rows):
        raise DataError(f"{path}: a row does not have "
                        f"{len(TRACE_COLUMNS)} fields")
    cols = dict(zip(TRACE_COLUMNS, zip(*rows)))
    out: dict = {"algorithm": cols["algorithm"][0],
                 "seed": int(cols["seed"][0]),
                 "grad_kind": cols["grad_kind"][0],
                 "k": np.array([int(v) for v in cols["k"]])}
    for column in NUMERIC_COLUMNS:
        out[column] = np.array([float(v) if v != "" else math.nan
                                for v in cols[column]])
    return out
