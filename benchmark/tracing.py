"""Span tracer for the benchmark's traced run.

The tracer wraps fosbo's public functions from outside the package.  Every
wrapped call records one span (name, start, end, parent) in flat arrays; the
problems' gradient oracles also count, per layer and channel, calls, calls
given a token, distinct sample tokens and samples (tokens times the token's
batch size, the paper's complexity unit).  A span's self time is its
duration minus the durations of its child spans; a layer's self time sums
that over the layer's spans.

Spans of one benchmark round stay in memory and are collected into a
``SpanSet`` when the round ends, so memory is bounded by one round.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

CHANNELS = ("fx", "fy", "gx", "gy")
_GRAD_ATTRS = {"fx": "grad_f_x", "fy": "grad_f_y",
               "gx": "grad_g_x", "gy": "grad_g_y"}

# fosbo module -> layer; every public function defined in the module is wrapped
LAYERS = {
    "fosbo.oracles": "oracles",
    "fosbo.schedule": "schedule",
    "fosbo.f2sa": "f2sa",
    "fosbo.f3sa": "f3sa",
    "fosbo.runs": "runs",
    "fosbo.reference": "reference",
    "fosbo.batch": "batch",
    "fosbo.problems.quadratic": "quadratic",
    "fosbo.problems.hypercleaning": "hypercleaning",
    "fosbo.harness.runner": "harness",
    "fosbo.harness.trace": "harness",
    "fosbo.harness.config": "harness",
    "fosbo.harness.analysis": "harness",
}

# public methods wrapped in addition to the module-level functions
METHODS = (
    ("fosbo.runs", "TraceBuilder", ("add", "finalize")),
    ("fosbo.reference", "Diagnostics", ("state_row",)),
    ("fosbo.problems.quadratic", "QuadraticBilevel",
     ("to_problem", "local_constants")),
)


@dataclasses.dataclass
class SpanSet:
    """Spans of one round: ``parent`` indexes into the same arrays, -1 for a
    root span."""

    names: list[str]
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray

    def self_times(self) -> np.ndarray:
        dur = self.end - self.start
        has = self.parent >= 0
        child = np.bincount(self.parent[has], weights=dur[has],
                            minlength=len(dur))
        return dur - child

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        n = len(self.names)
        calls = np.bincount(self.name_id, minlength=n)
        total = np.bincount(self.name_id, weights=self.end - self.start,
                            minlength=n)
        own = np.bincount(self.name_id, weights=self.self_times(), minlength=n)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names) if calls[i]}

    def count_under(self, child_prefix: str, parent_prefix: str) -> int:
        """Spans named ``child_prefix*`` whose parent is ``parent_prefix*``."""
        child = np.array([nm.startswith(child_prefix) for nm in self.names],
                         dtype=bool)
        par = np.array([nm.startswith(parent_prefix) for nm in self.names],
                       dtype=bool)
        if not len(self.name_id):
            return 0
        has = self.parent >= 0
        mask = child[self.name_id] & has
        return int(np.count_nonzero(par[self.name_id[self.parent[mask]]]))

    def counts_between(self, lo: int, hi: int) -> Counter:
        """Calls per span name among spans lo..hi-1 (one solver run)."""
        ids = np.bincount(self.name_id[lo:hi], minlength=len(self.names))
        return Counter({self.names[i]: int(c) for i, c in enumerate(ids) if c})

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 start=self.start, end=self.end, parent=self.parent)


class Tracer:
    """Records spans while ``active``; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name_id = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("i")
        self._stack = [-1]
        self.active = True
        self.counts: Counter = Counter()
        self._seen = {c: set() for c in CHANNELS}
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording ----

    def span_count(self) -> int:
        return len(self._start)

    def start_run(self) -> None:
        """Forget the tokens seen so far, so a replayed seed counts again."""
        for seen in self._seen.values():
            seen.clear()

    def wrap(self, name: str, fn, post=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        sid = self._ids[name]
        ids, starts, ends, parents = (self._name_id, self._start, self._end,
                                      self._parent)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(starts)
            ids.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            return out if post is None else post(out)
        return traced

    def wrap_oracle(self, layer: str, channel: str, fn):
        traced = self.wrap(f"{layer}.grad.{channel}", fn)
        seen = self._seen[channel]
        counts = self.counts

        def oracle(x, y, token=None):
            if self.active:
                counts["calls", layer, channel] += 1
                if token is not None:
                    counts["tokened", layer, channel] += 1
                    if token.key not in seen:
                        seen.add(token.key)
                        counts["tokens", layer, channel] += 1
                        counts["samples", layer, channel] += token.batch_size
            return traced(x, y, token)
        return oracle

    def wrap_problem(self, layer: str, problem):
        """The same problem with traced, counted gradient oracles and traced
        second-order blocks."""
        oracles = {attr: self.wrap_oracle(layer, ch, getattr(problem, attr))
                   for ch, attr in _GRAD_ATTRS.items()}
        so = problem.second_order
        if so is not None:
            so = dataclasses.replace(so, **{
                f.name: self.wrap(f"{layer}.second_order.{f.name}",
                                  getattr(so, f.name))
                for f in dataclasses.fields(so)})
        return dataclasses.replace(problem, second_order=so, **oracles)

    def collect(self) -> SpanSet:
        """The spans recorded since the last collect; the tracer forgets them."""
        spans = SpanSet(
            names=list(self.names),
            name_id=np.array(self._name_id, dtype=np.int64),
            start=np.array(self._start), end=np.array(self._end),
            parent=np.array(self._parent, dtype=np.int64))
        for arr in (self._name_id, self._start, self._end, self._parent):
            del arr[:]
        return spans

    # ---- installing into fosbo ----

    def install(self) -> None:
        """Replace fosbo's public functions and chosen methods by traced
        wrappers, wherever a fosbo module binds them."""
        replaced: dict[int, tuple[object, object]] = {}  # id -> (old, new)
        for modname, layer in LAYERS.items():
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not attr.startswith("_")):
                    post = None
                    if attr == "hypercleaning_oracles":
                        post = functools.partial(self.wrap_problem, layer)
                    replaced[id(obj)] = (obj, self.wrap(f"{layer}.{attr}",
                                                        obj, post))
        for modname, clsname, methods in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            layer = LAYERS[modname]
            for meth in methods:
                post = None
                if (clsname, meth) == ("QuadraticBilevel", "to_problem"):
                    post = functools.partial(self.wrap_problem, layer)
                self._patch(cls, meth, self.wrap(
                    f"{layer}.{clsname}.{meth}", getattr(cls, meth), post))
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "fosbo" and not name.startswith("fosbo."):
                continue
            for attr, obj in list(vars(mod).items()):
                old, new = replaced.get(id(obj), (None, None))
                if old is obj:
                    self._patch(mod, attr, new)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


# Per-layer metrics of the traced run: (name, unit, better).  The README
# lists which end-to-end metric each should move, and on which workload.
PER_LAYER = (
    ("oracles.token_draws", "count", "lower"),
    ("oracles.samples_f", "count", "lower"),
    ("oracles.samples_g", "count", "lower"),
    ("oracles.token_rng_calls", "count", "lower"),
    ("oracles.rng_builds_per_token", "ratio", "lower"),
    ("oracles.token_self_s", "s", "lower"),
    ("oracles.noise_self_s", "s", "lower"),
    ("quadratic.grad_calls", "count", "lower"),
    ("quadratic.grad_self_s", "s", "lower"),
    ("quadratic.grad_us", "us", "lower"),
    ("quadratic.build_s", "s", "lower"),
    ("schedule.advance_calls", "count", "lower"),
    ("schedule.advance_self_s", "s", "lower"),
    ("schedule.run_schedule_s", "s", "lower"),
    ("f2sa.step_calls", "count", "lower"),
    ("f2sa.inner_self_s", "s", "lower"),
    ("f2sa.outer_self_s", "s", "lower"),
    ("f2sa.run_self_s", "s", "lower"),
    ("f3sa.step_calls", "count", "lower"),
    ("f3sa.step_self_s", "s", "lower"),
    ("f3sa.momentum_update_calls", "count", "lower"),
    ("f3sa.momentum_update_self_s", "s", "lower"),
    ("f3sa.run_self_s", "s", "lower"),
    ("runs.checkpoint_rows", "count", "lower"),
    ("runs.guard_state_self_s", "s", "lower"),
    ("runs.finalize_self_s", "s", "lower"),
    ("reference.diagnostics_calls", "count", "lower"),
    ("reference.diagnostics_self_s", "s", "lower"),
    ("reference.sobo_step_ms", "ms", "lower"),
    ("hypercleaning.second_order_calls", "count", "lower"),
    ("hypercleaning.second_order_self_s", "s", "lower"),
    ("batch.replicate_steps", "count", "lower"),
    ("batch.replicate_step_us", "us", "lower"),
    ("batch.run_self_s", "s", "lower"),
    ("hypercleaning.grad_calls", "count", "lower"),
    ("hypercleaning.grad_self_s", "s", "lower"),
    ("hypercleaning.minibatch_share", "ratio", "higher"),
    ("hypercleaning.build_s", "s", "lower"),
    ("hypercleaning.nobo_step_us", "us", "lower"),
    ("harness.build_problem_s", "s", "lower"),
    ("harness.write_trace_s", "s", "lower"),
    ("harness.trace_bytes", "bytes", "lower"),
    ("harness.run_experiment_self_s", "s", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: SpanSet, counts: Counter, steps: dict[str, int],
                  trace_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one round.

    ``steps`` holds the round's outer steps per entry point ("SOBO", "NoBO")
    and replicate steps of the batch engine ("batch"); ``trace_bytes`` is
    the size of the trace CSVs and summaries the round wrote.
    """
    by = spans.by_name()

    def pick(names, field):
        out = 0.0
        for name, row in by.items():
            if any(name == n or (n.endswith(".") and name.startswith(n))
                   for n in names):
                out += row[field]
        return out

    def calls(*names):
        return int(pick(names, 0))

    def total(*names):
        return pick(names, 1)

    def own(*names):
        return pick(names, 2)

    def channel_sum(kind, layers, channels):
        return sum(counts[kind, lay, ch] for lay in layers for ch in channels)

    problems = ("quadratic", "hypercleaning")
    draws = calls("oracles.draw_token")
    rng_calls = calls("oracles.token_rng")
    quad_calls = calls("quadratic.grad.")
    inner = own("f2sa.inner_z_step", "f2sa.inner_y_step")
    outer = own("f2sa.outer_x_step")
    f3_step = own("f3sa.f3sa_step")
    f3_mom = own("f3sa.momentum_update")
    batch_runs = ("batch.f2sa_run_batch", "batch.f3sa_run_batch")
    return {
        "oracles.token_draws": draws,
        "oracles.samples_f": channel_sum("samples", problems, ("fx", "fy")),
        "oracles.samples_g": channel_sum("samples", problems, ("gx", "gy")),
        "oracles.token_rng_calls": rng_calls,
        "oracles.rng_builds_per_token": _ratio(rng_calls, draws),
        "oracles.token_self_s": own("oracles.draw_token", "oracles.token_rng"),
        "oracles.noise_self_s": own("oracles.gaussian_noise"),
        "quadratic.grad_calls": quad_calls,
        "quadratic.grad_self_s": own("quadratic.grad."),
        "quadratic.grad_us": 1e6 * _ratio(total("quadratic.grad."), quad_calls),
        "quadratic.build_s": own("quadratic.builtin_zoo",
                                 "quadratic.make_quadratic",
                                 "quadratic.QuadraticBilevel."),
        "schedule.advance_calls": calls("schedule.advance"),
        "schedule.advance_self_s": own("schedule.advance"),
        "schedule.run_schedule_s": total("schedule.run_schedule"),
        "f2sa.step_calls": calls("f2sa.f2sa_step"),
        "f2sa.inner_self_s": inner,
        "f2sa.outer_self_s": outer,
        "f2sa.run_self_s": own("f2sa.") - inner - outer,
        "f3sa.step_calls": calls("f3sa.f3sa_step"),
        "f3sa.step_self_s": f3_step,
        "f3sa.momentum_update_calls": calls("f3sa.momentum_update"),
        "f3sa.momentum_update_self_s": f3_mom,
        "f3sa.run_self_s": own("f3sa.") - f3_step - f3_mom,
        "runs.checkpoint_rows": calls("runs.TraceBuilder.add"),
        "runs.guard_state_self_s": own("runs.guard_state"),
        "runs.finalize_self_s": own("runs.TraceBuilder.finalize"),
        "reference.diagnostics_calls": calls("reference.Diagnostics.state_row"),
        "reference.diagnostics_self_s": own("reference.Diagnostics.state_row"),
        "reference.sobo_step_ms": 1e3 * _ratio(
            total("reference.sobo_baseline_run"), steps.get("SOBO", 0)),
        "hypercleaning.second_order_calls":
            calls("hypercleaning.second_order."),
        "hypercleaning.second_order_self_s":
            own("hypercleaning.second_order."),
        "batch.replicate_steps": steps.get("batch", 0),
        "batch.replicate_step_us": 1e6 * _ratio(total(*batch_runs),
                                                steps.get("batch", 0)),
        "batch.run_self_s": own(*batch_runs),
        "hypercleaning.grad_calls": calls("hypercleaning.grad."),
        "hypercleaning.grad_self_s": own("hypercleaning.grad."),
        "hypercleaning.minibatch_share": _ratio(
            spans.count_under("oracles.token_rng", "hypercleaning.grad."),
            channel_sum("tokened", ("hypercleaning",), CHANNELS)),
        "hypercleaning.build_s": own("hypercleaning.make_synthetic_hypercleaning",
                                     "hypercleaning.corrupt_labels",
                                     "hypercleaning.hypercleaning_oracles"),
        "hypercleaning.nobo_step_us": 1e6 * _ratio(
            total("hypercleaning.nobo_baseline_run"), steps.get("NoBO", 0)),
        "harness.build_problem_s": total("harness.build_problem"),
        "harness.write_trace_s": total("harness.write_trace_csv"),
        "harness.trace_bytes": trace_bytes,
        "harness.run_experiment_self_s": own("harness.run_experiment"),
    }
