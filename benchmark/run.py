"""fosbo benchmark: one workload, run in whole rounds for a set time.

    python3 benchmark/run.py --workload quad-seeds --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; fosbo is imported from its ``src``
directory.  With ``--trace 0`` the entry points alone are timed and the
end-to-end metrics are reported; with ``--trace 1`` every public fosbo
function is wrapped in a span and the per-layer metrics are reported,
together with a cross-check of the counted oracle calls against those the
algorithm statements give.  Each round's outputs are checked; the last line
of standard output is one JSON object, and the exit code is 1 when a check
failed.  Workloads, metrics and reference figures are in README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # the cold set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREADS = "1"
END_TO_END = (("setup_s", "s"), ("f2sa_s", "s"), ("f3sa_s", "s"),
              ("total_s", "s"), ("peak_rss_mb", "MB"))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("quad-seeds", "quad-sweep", "cleaning"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_fosbo():
    """fosbo from this checkout's sources, never an installed copy."""
    if not (SRC / "fosbo" / "__init__.py").is_file():
        raise SystemExit(f"fosbo sources not found under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import fosbo
    if Path(fosbo.__file__).resolve().parent != SRC / "fosbo":
        raise SystemExit(f"imported fosbo from {fosbo.__file__}, not {SRC}")


def _steps(calls) -> dict[str, int]:
    """Outer steps of the baselines and replicate steps of sweeps."""
    out = {"SOBO": 0, "NoBO": 0, "batch": 0}
    for c in calls:
        if c.failed:
            continue
        if hasattr(c.result, "n_runs"):
            out["batch"] += c.result.K * c.result.n_runs
        elif c.label in ("SOBO", "NoBO"):
            out[c.label] += c.result.K
    return out


def _work_key(call):
    """Calls with equal keys do the same work (seeds aside)."""
    if call.label in ("F2SA", "F3SA"):
        return call.label, call.args[1], call.args[2]
    return call.label, call.args[1]


def _call_medians(rounds) -> dict:
    """Per kind of call: (calls per round, median seconds of one call)."""
    times: dict = {}
    for timed in rounds:
        for key, seconds in timed:
            times.setdefault(key, []).append(seconds)
    n_rounds = len(rounds)
    return {k: (len(v) // n_rounds, statistics.median(v))
            for k, v in times.items()}


def _trace_bytes(out_dir: Path) -> int:
    files = list(out_dir.rglob("trace_*.csv")) + list(out_dir.rglob("summary.json"))
    return sum(f.stat().st_size for f in files)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_fosbo()
    import checks
    import selftest
    import tracing
    import workloads

    out_dir = HERE / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    probe = workloads.Probe(tracer)
    work = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    rounds: list[dict] = []
    failures: list[str] = []
    attempted = failed = 0
    spans = None
    if tracer is not None:
        tracer.install()
    probe.install()
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            # the cleaning schedules ignore the coarse curvature constants
            # on purpose, so fosbo's step-size advisory fires every run
            warnings.simplefilter("ignore", RuntimeWarning)
            while True:
                probe.calls = []
                if tracer is not None:
                    tracer.counts.clear()
                    tracer.active = True
                t0 = time.perf_counter()
                work.round(probe)
                total = time.perf_counter() - t0
                row = {"calls": [(_work_key(c), c.seconds) for c in probe.calls],
                       "other_s": total - sum(c.seconds for c in probe.calls)}
                if tracer is not None:
                    tracer.active = False
                    spans = tracer.collect()
                    for call in probe.calls:
                        failures += checks.count_mismatches(
                            call, spans.counts_between(call.span_lo, call.span_hi))
                    row.update(tracing.layer_metrics(
                        spans, tracer.counts, _steps(probe.calls),
                        _trace_bytes(out_dir)))
                if not rounds:
                    row["setup_s"] = probe.first_call - _T0
                rounds.append(row)
                attempted += len(probe.calls)
                failed += sum(c.failed for c in probe.calls)
                failures += work.check(probe.calls, first=len(rounds) == 1)
                # stop when one more round would more likely end past the
                # deadline than before it
                if (time.perf_counter() - start + total / 2
                        >= args.seconds):
                    break
    finally:
        probe.uninstall()
        if tracer is not None:
            tracer.uninstall()
    failures += selftest.run()

    def median(name):
        return statistics.median(r[name] for r in rounds)

    # a round's time in a call is the sum over its calls of each call's
    # median over rounds; the rest of the round adds its own median
    med = _call_medians([r["calls"] for r in rounds])

    def in_calls(label=None):
        return sum(n * t for key, (n, t) in med.items()
                   if label in (None, key[0]))

    e2e = {"setup_s": rounds[0]["setup_s"], "f2sa_s": in_calls("F2SA"),
           "f3sa_s": in_calls("F3SA"),
           "total_s": in_calls() + median("other_s"),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        spans.save(out_dir / "spans.npz")
        metrics = {name: {"value": median(name), "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
        print(f"{'traced total_s':40s} {e2e['total_s']:.6g} s")
    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} rounds, "
          f"BLAS threads {BLAS_THREADS}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for line in failures:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
