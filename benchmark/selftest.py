"""Self-test of the benchmark's own arithmetic, with answers worked by hand.

    python3 benchmark/selftest.py

Covers span self times, the AUC helper and the log-log slope, and that
BENCHMARK.json names exactly the per-layer metrics the tracer reports.
Needs numpy only; run.py also runs it at the end of every run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import checks
import tracing

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _spans() -> tracing.SpanSet:
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 9];
    # a second root a [11, 12] follows
    return tracing.SpanSet(
        names=["a", "b", "c"],
        name_id=np.array([0, 1, 2, 1, 0]),
        start=np.array([0.0, 1.0, 2.0, 5.0, 11.0]),
        end=np.array([10.0, 4.0, 3.0, 9.0, 12.0]),
        parent=np.array([-1, 0, 1, 0, -1]))


def run() -> list[str]:
    bad = []
    spans = _spans()
    # self times: a = 10 - (3 + 4), b = 3 - 1, c = 1, b = 4, a = 1
    if not np.array_equal(spans.self_times(), [3.0, 2.0, 1.0, 4.0, 1.0]):
        bad.append(f"span self times {spans.self_times()}")
    if spans.by_name() != {"a": (2, 11.0, 4.0), "b": (2, 7.0, 6.0),
                           "c": (1, 1.0, 1.0)}:
        bad.append(f"spans by name {spans.by_name()}")
    if spans.count_under("c", "b") != 1 or spans.count_under("b", "c") != 0:
        bad.append("spans counted under a parent")
    if spans.counts_between(1, 3) != {"b": 1, "c": 1}:
        bad.append("span counts in an index range")
    # clean {0.9, 0.8} against corrupt {0.8, 0.1}: 1 + 1 + 1/2 + 1 of 4 pairs
    corrupt = [False, True, False, True]
    if checks.auc([0.9, 0.8, 0.8, 0.1], corrupt) != 0.875:
        bad.append("AUC with a tie")
    if checks.auc([0.1, 0.8, 0.2, 0.9], corrupt) != 0.0:
        bad.append("AUC of a reversed ranking")
    k = np.arange(1, 101)
    if abs(checks.loglog_slope(k, 3.0 * k ** -2.0, 1, 100) + 2.0) > 1e-12:
        bad.append("log-log slope of 3 k^-2")
    if BENCHMARK_JSON.is_file():
        listed = [m["name"] for m in
                  json.loads(BENCHMARK_JSON.read_text())["per_layer"]]
        if listed != [name for name, _, _ in tracing.PER_LAYER]:
            bad.append("BENCHMARK.json per_layer differs from the tracer's")
    return [f"self-test: {line}" for line in bad]


if __name__ == "__main__":
    failures = run()
    for line in failures:
        print(line, file=sys.stderr)
    print("self-test", "FAILED" if failures else "passed")
    sys.exit(1 if failures else 0)
