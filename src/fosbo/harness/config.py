"""Experiment configuration: a JSON file with a fixed schema.

The grammar is plain JSON (objects, arrays, numbers, strings, booleans,
null).  Top-level keys:

    problem    object, problem spec; "kind" selects the family:
                 "quadratic-zoo":    name, sigma_f, sigma_g
                 "quadratic-random": dim_x, dim_y, seed, conditioning,
                                     sigma_f, sigma_g
                 "hypercleaning":    n_train, n_val, num_classes, dim,
                                     corruption, reg, data_seed; or dataset
                                     paths train_images/train_labels/
                                     val_images/val_labels (IDX format)
    algorithm  one of "F2SA", "F3SA", "SOBO", "NoBO"
    schedule   ScheduleParams object (required for F2SA/F3SA, else omitted);
               null entries are rejected
    K          nonnegative integer iteration budget
    seeds      nonempty array of integers
    checkpoint_every   positive integer or null (null = K/200 cadence)
    out_dir    output directory for traces and the summary
    batch_size positive integer (default 1)
    x0         array of numbers or null (zeros)
    grad_mode  "auto" | "analytic" | "second-order" | "fd" | "none"
    check_constants  boolean (default true): enforce the multiplier floor
    solver_options   object of extra keyword arguments for SOBO/NoBO

Serialization is canonical (sorted keys, two-space indent, trailing
newline), so parse -> dump round-trips byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..schedule import ScheduleParams

ALGORITHMS = ("F2SA", "F3SA", "SOBO", "NoBO")
GRAD_MODES = ("auto", "analytic", "second-order", "fd", "none")
PROBLEM_KINDS = ("quadratic-zoo", "quadratic-random", "hypercleaning")
# integer problem fields and their least admitted value (None: any integer)
_INT_FLOORS = {"dim_x": 1, "dim_y": 1, "seed": None, "n_train": 1, "n_val": 1,
               "dim": 1, "num_classes": 2, "data_seed": None}


@dataclass(frozen=True)
class ExperimentConfig:
    problem: dict
    algorithm: str
    K: int
    seeds: tuple
    out_dir: str
    schedule: ScheduleParams | None = None
    checkpoint_every: int | None = None
    batch_size: int = 1
    x0: tuple | None = None
    grad_mode: str = "auto"
    check_constants: bool = True
    solver_options: dict = field(default_factory=dict)


def _require(cond: bool, message: str, path: str):
    if not cond:
        raise ConfigError(message, path=path)


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _validate_problem(spec, path: str) -> dict:
    _require(isinstance(spec, dict), "must be an object", path)
    kind = spec.get("kind")
    _require(kind in PROBLEM_KINDS,
             f"kind must be one of {PROBLEM_KINDS}, got {kind!r}",
             f"{path}.kind")
    known = {
        "quadratic-zoo": {"kind", "name", "sigma_f", "sigma_g"},
        "quadratic-random": {"kind", "dim_x", "dim_y", "seed", "conditioning",
                             "sigma_f", "sigma_g"},
        "hypercleaning": {"kind", "n_train", "n_val", "num_classes", "dim",
                          "corruption", "reg", "data_seed", "cluster_spread",
                          "train_images", "train_labels", "val_images",
                          "val_labels"},
    }[kind]
    for key in spec:
        _require(key in known, f"unknown key {key!r} for kind {kind!r}",
                 f"{path}.{key}")
    if kind == "quadratic-zoo":
        _require(isinstance(spec.get("name"), str), "name must be a string",
                 f"{path}.name")
    if kind == "quadratic-random":
        for key in ("dim_x", "dim_y", "seed"):
            _require(key in spec, f"{key} is required", f"{path}.{key}")
    for key, floor in _INT_FLOORS.items():
        if key in spec:
            _require(_is_int(spec[key]) and (floor is None or spec[key] >= floor),
                     f"{key} must be an integer"
                     + ("" if floor is None else f" >= {floor}"), f"{path}.{key}")
    for key in ("sigma_f", "sigma_g", "corruption", "reg", "conditioning",
                "cluster_spread"):
        if key in spec:
            _require(_is_num(spec[key]) and spec[key] >= 0,
                     f"{key} must be a nonnegative number", f"{path}.{key}")
    return dict(spec)


def config_from_dict(d: dict) -> ExperimentConfig:
    """Validate a parsed config object; errors carry a dotted path."""
    _require(isinstance(d, dict), "config must be an object", "")
    known = {"problem", "algorithm", "schedule", "K", "seeds",
             "checkpoint_every", "out_dir", "batch_size", "x0", "grad_mode",
             "check_constants", "solver_options"}
    for key in d:
        _require(key in known, f"unknown key {key!r}", key)
    for key in ("problem", "algorithm", "K", "seeds", "out_dir"):
        _require(key in d, f"missing required key {key!r}", key)

    problem = _validate_problem(d["problem"], "problem")
    algorithm = d["algorithm"]
    _require(algorithm in ALGORITHMS,
             f"must be one of {ALGORITHMS}, got {algorithm!r}", "algorithm")
    _require(_is_int(d["K"]) and d["K"] >= 0,
             "must be a nonnegative integer", "K")
    seeds = d["seeds"]
    _require(isinstance(seeds, list) and len(seeds) > 0
             and all(_is_int(s) for s in seeds),
             "must be a nonempty array of integers", "seeds")

    schedule = None
    if algorithm in ("F2SA", "F3SA"):
        _require(isinstance(d.get("schedule"), dict),
                 f"required object for algorithm {algorithm}", "schedule")
        try:
            schedule = ScheduleParams.from_dict(d["schedule"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc), path="schedule") from None
        _require(schedule.algorithm.value == algorithm,
                 f"schedule algorithm {schedule.algorithm.value!r} does not "
                 f"match {algorithm!r}", "schedule.algorithm")
    else:
        _require(d.get("schedule") is None,
                 f"must be absent for algorithm {algorithm}", "schedule")

    ck = d.get("checkpoint_every")
    _require(ck is None or (_is_int(ck) and ck > 0),
             "must be a positive integer or null", "checkpoint_every")
    _require(isinstance(d["out_dir"], str) and d["out_dir"],
             "must be a nonempty string", "out_dir")
    bs = d.get("batch_size", 1)
    _require(_is_int(bs) and bs > 0, "must be a positive integer", "batch_size")
    x0 = d.get("x0")
    _require(x0 is None or (isinstance(x0, list) and all(_is_num(v) for v in x0)),
             "must be an array of numbers or null", "x0")
    gm = d.get("grad_mode", "auto")
    _require(gm in GRAD_MODES, f"must be one of {GRAD_MODES}", "grad_mode")
    cc = d.get("check_constants", True)
    _require(isinstance(cc, bool), "must be a boolean", "check_constants")
    so = d.get("solver_options", {})
    _require(isinstance(so, dict), "must be an object", "solver_options")

    return ExperimentConfig(
        problem=problem, algorithm=algorithm, K=d["K"], seeds=tuple(seeds),
        out_dir=d["out_dir"], schedule=schedule, checkpoint_every=ck,
        batch_size=bs, x0=None if x0 is None else tuple(x0), grad_mode=gm,
        check_constants=cc, solver_options=dict(so))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    d = {
        "problem": dict(cfg.problem),
        "algorithm": cfg.algorithm,
        "K": cfg.K,
        "seeds": list(cfg.seeds),
        "out_dir": cfg.out_dir,
        "checkpoint_every": cfg.checkpoint_every,
        "batch_size": cfg.batch_size,
        "x0": None if cfg.x0 is None else list(cfg.x0),
        "grad_mode": cfg.grad_mode,
        "check_constants": cfg.check_constants,
        "solver_options": dict(cfg.solver_options),
    }
    if cfg.schedule is not None:
        d["schedule"] = cfg.schedule.to_dict()
    return d


def dump_config(cfg: ExperimentConfig) -> str:
    """Canonical serialization; stable under parse -> dump round trips."""
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    return config_from_dict(obj)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return parse_config(text)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as f:
        f.write(dump_config(cfg))
