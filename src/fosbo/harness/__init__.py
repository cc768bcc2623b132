"""Experiment harness: configs, traces, orchestration, rate fitting, CLI."""

from .analysis import as_trace_arrays, emit_plot_data, fit_rate
from .config import (ExperimentConfig, config_from_dict, config_to_dict,
                     dump_config, load_config, parse_config, save_config)
from .runner import build_problem, run_experiment
from .trace import (TRACE_COLUMNS, read_trace, records_from_run,
                    write_trace_csv)
from .verify import run_verification

__all__ = [
    "ExperimentConfig",
    "TRACE_COLUMNS",
    "as_trace_arrays",
    "build_problem",
    "config_from_dict",
    "config_to_dict",
    "dump_config",
    "emit_plot_data",
    "fit_rate",
    "load_config",
    "parse_config",
    "read_trace",
    "records_from_run",
    "run_experiment",
    "run_verification",
    "save_config",
    "write_trace_csv",
]
