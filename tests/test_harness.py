"""Experiment configs, trace persistence, rate fitting and the CLI."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from fosbo.errors import ConfigError, DataError
from fosbo.f2sa import f2sa_run
from fosbo.harness.analysis import as_trace_arrays, emit_plot_data, fit_rate
from fosbo.harness.cli import main
from fosbo.harness.config import (config_from_dict, dump_config, load_config,
                                  parse_config, save_config)
from fosbo.harness.runner import run_experiment
from fosbo.harness.trace import (TRACE_COLUMNS, read_trace, records_from_run,
                                 write_trace_csv)
from fosbo.oracles import NoiseRegime
from fosbo.problems.quadratic import builtin_zoo
from fosbo.runs import RunResult
from fosbo.schedule import Algorithm, ScheduleParams, default_params


def tuned_schedule() -> ScheduleParams:
    """Condition-clean deterministic double-loop schedule for the offset
    scalar problem; kept identical to the convergence-test configuration."""
    consts = builtin_zoo()["scalar-offset"].to_problem().constants
    return default_params(Algorithm.F2SA, consts, T=8, xi=0.9, k0=64,
                          c_alpha=1.0 / 32, c_gamma=1.0 / 32, lambda0=2.0,
                          a=1.0 / 3, c=0.0)


def base_config(out_dir, **over) -> dict:
    d = {
        "problem": {"kind": "quadratic-zoo", "name": "scalar-offset"},
        "algorithm": "F2SA",
        "schedule": tuned_schedule().to_dict(),
        "K": 400,
        "seeds": [0, 1],
        "checkpoint_every": 100,
        "out_dir": str(out_dir),
        "x0": [1.0],
    }
    d.update(over)
    return d


@pytest.fixture(scope="module")
def offset_run():
    """One deterministic double-loop run with full analytic diagnostics."""
    prob = builtin_zoo()["scalar-offset"].to_problem()
    return f2sa_run(prob, tuned_schedule(), 2000, seed=3,
                    x0=np.array([1.0]), checkpoint_every=100)


class TestConfig:
    def test_dump_parse_round_trip_is_byte_identical(self, tmp_path):
        text = dump_config(config_from_dict(base_config(tmp_path)))
        assert dump_config(parse_config(text)) == text
        assert text.endswith("\n")
        obj = json.loads(text)
        assert list(obj) == sorted(obj)

    def test_parse_recovers_equal_config(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        assert parse_config(dump_config(cfg)) == cfg
        assert cfg.schedule.algorithm is Algorithm.F2SA
        assert cfg.x0 == (1.0,)

    def test_save_load_round_trip(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path / "out"))
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_defaults_filled(self, tmp_path):
        d = base_config(tmp_path)
        del d["checkpoint_every"], d["x0"]
        cfg = config_from_dict(d)
        assert cfg.checkpoint_every is None
        assert cfg.x0 is None
        assert cfg.batch_size == 1
        assert cfg.grad_mode == "auto"
        assert cfg.check_constants is True
        assert cfg.solver_options == {}

    @pytest.mark.parametrize("mutate,path", [
        pytest.param(lambda d: d.pop("problem"), "problem",
                     id="missing-problem"),
        pytest.param(lambda d: d.update(algorithm="SGD"), "algorithm",
                     id="bad-algorithm"),
        pytest.param(lambda d: d.pop("schedule"), "schedule",
                     id="schedule-required"),
        pytest.param(lambda d: d.update(algorithm="SOBO"), "schedule",
                     id="schedule-forbidden"),
        pytest.param(lambda d: d.update(algorithm="F3SA"),
                     "schedule.algorithm", id="schedule-mismatch"),
        pytest.param(lambda d: d["schedule"].update(lambda0=-1.0), "schedule",
                     id="schedule-bad-value"),
        pytest.param(lambda d: d.update(seeds=[]), "seeds", id="seeds-empty"),
        pytest.param(lambda d: d.update(seeds=[1.5]), "seeds",
                     id="seeds-non-integer"),
        pytest.param(lambda d: d.update(K=-1), "K", id="K-negative"),
        pytest.param(lambda d: d.update(K=2.0), "K", id="K-float"),
        pytest.param(lambda d: d.update(checkpoint_every=0),
                     "checkpoint_every", id="checkpoint-zero"),
        pytest.param(lambda d: d.update(out_dir=""), "out_dir",
                     id="out-dir-empty"),
        pytest.param(lambda d: d.update(batch_size=0), "batch_size",
                     id="batch-zero"),
        pytest.param(lambda d: d.update(x0=["a"]), "x0", id="x0-strings"),
        pytest.param(lambda d: d.update(grad_mode="exact"), "grad_mode",
                     id="bad-grad-mode"),
        pytest.param(lambda d: d.update(check_constants="yes"),
                     "check_constants", id="bad-check-constants"),
        pytest.param(lambda d: d.update(solver_options=5), "solver_options",
                     id="bad-solver-options"),
        pytest.param(lambda d: d.update(nonsense=1), "nonsense",
                     id="unknown-top-key"),
        pytest.param(lambda d: d["problem"].update(kind="mystery"),
                     "problem.kind", id="bad-kind"),
        pytest.param(lambda d: d["problem"].update(bogus=1), "problem.bogus",
                     id="unknown-problem-key"),
        pytest.param(lambda d: d["problem"].update(sigma_f=-0.5),
                     "problem.sigma_f", id="negative-sigma"),
        pytest.param(lambda d: d["problem"].pop("name"), "problem.name",
                     id="zoo-name-missing"),
        pytest.param(lambda d: d.update(problem={"kind": "quadratic-random",
                                                 "dim_y": 1, "seed": 0}),
                     "problem.dim_x", id="random-dims-missing"),
    ])
    def test_schema_errors_carry_dotted_paths(self, tmp_path, mutate, path):
        d = base_config(tmp_path)
        mutate(d)
        with pytest.raises(ConfigError) as ei:
            config_from_dict(d)
        assert ei.value.path == path

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path / "absent.json")


class TestTrace:
    def test_write_read_round_trip(self, tmp_path, offset_run):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, offset_run)
        out = read_trace(path)
        assert out["algorithm"] == "F2SA"
        assert out["seed"] == 3
        assert out["grad_kind"] == "exact"
        assert np.array_equal(out["k"], offset_run.checkpoints)
        s = offset_run.series
        assert np.array_equal(out["lambda"], s["lambda"])
        assert np.array_equal(out["grad_F_norm_sq"], s["grad_F_sq"])
        # distances and the proxy norm travel unsquared; rows without a
        # value (NaN in the series) come back as NaN
        assert np.array_equal(out["proxy_norm"], np.sqrt(s["proxy_sq"]),
                              equal_nan=True)
        assert np.array_equal(out["dist_z_to_ystar"], np.sqrt(s["dist_z_sq"]),
                              equal_nan=True)
        # no momentum weight in the double-loop solver: blank -> NaN
        assert np.isnan(out["eta"]).all()
        assert np.isnan(out["train_loss"]).all()
        # the reader and as_trace_arrays read the writer's column table: the
        # same keys, and every column equal, blanks included
        arrays = as_trace_arrays(offset_run)
        assert set(out) == set(arrays)
        for name, value in arrays.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(out[name], value, equal_nan=True), name
            else:
                assert out[name] == value, name

    def test_header_matches_column_order(self, tmp_path, offset_run):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, offset_run)
        with open(path, newline="") as f:
            header = next(csv.reader(f))
        assert tuple(header) == TRACE_COLUMNS

    def test_read_errors(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DataError, match="empty trace file"):
            read_trace(empty)
        headed = tmp_path / "headed.csv"
        headed.write_text(",".join(TRACE_COLUMNS) + "\n")
        with pytest.raises(DataError, match="no checkpoint rows"):
            read_trace(headed)
        wrong = tmp_path / "wrong.csv"
        wrong.write_text("k,value\n1,2\n")
        with pytest.raises(DataError, match="unexpected trace header"):
            read_trace(wrong)
        with pytest.raises(DataError, match="cannot read trace file"):
            read_trace(tmp_path / "absent.csv")

    @staticmethod
    def _tiny_result(checkpoints, grad):
        series = {"grad_F_sq": np.asarray(grad, dtype=float)}
        return RunResult(algorithm="F2SA", problem_name="tiny", seed=0, K=10,
                         R=0, x_R=None, x_final=np.zeros(1),
                         y_final=np.zeros(1), z_final=None, lambda_final=2.0,
                         checkpoints=np.asarray(checkpoints), series=series,
                         grad_estimator="analytic")

    def test_records_reject_non_increasing_k(self):
        res = self._tiny_result([0, 5, 5], [1.0, 1.0, 1.0])
        with pytest.raises(DataError, match="not increasing at row 2"):
            records_from_run(res)

    def test_records_reject_non_finite_values(self):
        res = self._tiny_result([0, 5], [1.0, math.inf])
        with pytest.raises(DataError, match="non-finite grad_F_norm_sq at k=5"):
            records_from_run(res)

    def test_as_trace_arrays_from_run(self, offset_run):
        t = as_trace_arrays(offset_run)
        assert t["algorithm"] == "F2SA" and t["seed"] == 3
        assert np.array_equal(t["k"], offset_run.checkpoints)
        assert np.array_equal(t["grad_F_norm_sq"],
                              offset_run.series["grad_F_sq"])
        assert np.array_equal(t["proxy_norm"],
                              np.sqrt(offset_run.series["proxy_sq"]),
                              equal_nan=True)
        with pytest.raises(DataError, match="RunResult or a dict"):
            as_trace_arrays(42)


class TestFitRate:
    def test_exact_power_law(self):
        ks = np.arange(10, 2010, 10)
        tr = {"k": ks, "grad_F_norm_sq": 100.0 / ks}
        slope, intercept, r2 = fit_rate(tr, 10, 2000, "grad_F_norm_sq")
        assert abs(slope - (-1.0)) < 1e-9
        assert abs(intercept - math.log(100.0)) < 1e-9
        assert r2 > 1 - 1e-12

    def test_log_factor_flattens_the_slope(self):
        # log(k)/k^(2/3) fits shallower than the bare power over [1e3, 1e5]
        ks = np.unique(np.round(np.geomspace(100, 1e5, 300)).astype(int))
        tr = {"k": ks, "val_loss": np.log(ks) / ks ** (2.0 / 3.0)}
        slope, _, r2 = fit_rate(tr, 1e3, 1e5, "val_loss")
        assert -2.0 / 3.0 < slope < -0.5
        assert abs(slope - (-0.55674)) < 1e-4
        assert r2 > 0.999

    def test_seed_averaging_moves_only_the_intercept(self):
        ks = np.arange(5, 1005, 5)
        v = 3.0 / ks ** 0.7
        t1 = {"k": ks, "g": v}
        t2 = {"k": ks, "g": 3.0 * v}
        s1, i1, _ = fit_rate(t1, 5, 1000, "g")
        s12, i12, _ = fit_rate([t1, t2], 5, 1000, "g")
        assert abs(s12 - s1) < 1e-12
        assert abs(i12 - (i1 + math.log(2.0))) < 1e-12

    def test_k_zero_row_never_enters_the_fit(self):
        ks = np.arange(0, 500, 10)
        vals = 1.0 / np.maximum(ks, 1)
        vals[0] = 0.0
        slope, _, _ = fit_rate({"k": ks, "g": vals}, 0, 500, "g")
        assert abs(slope + 1.0) < 1e-9

    def test_nonpositive_value_names_the_row(self):
        ks = np.arange(10, 210, 10)
        vals = 1.0 / ks
        vals[4] = 0.0
        with pytest.raises(DataError, match="missing g at row k=50"):
            fit_rate({"k": ks, "g": vals}, 10, 200, "g")

    def test_nan_value_names_the_row(self):
        ks = np.arange(10, 210, 10)
        vals = 1.0 / ks
        vals[7] = math.nan
        with pytest.raises(DataError, match="at row k=80"):
            fit_rate({"k": ks, "g": vals}, 10, 200, "g")

    def test_too_few_checkpoints(self):
        ks = np.arange(10, 100, 10)
        with pytest.raises(DataError, match="need at least 10"):
            fit_rate({"k": ks, "g": 1.0 / ks}, 10, 90, "g")

    def test_grid_mismatch(self):
        t1 = {"k": np.arange(10, 210, 10), "g": np.ones(20)}
        t2 = {"k": np.arange(10, 210, 5), "g": np.ones(40)}
        with pytest.raises(DataError, match="different checkpoint grid"):
            fit_rate([t1, t2], 10, 200, "g")

    def test_empty_and_missing_field(self):
        with pytest.raises(DataError, match="no traces"):
            fit_rate([], 1, 10, "g")
        tr = {"k": np.arange(10, 210, 10), "g": np.ones(20)}
        with pytest.raises(DataError, match="no field 'h'"):
            fit_rate(tr, 10, 200, "h")


class TestEmitPlotData:
    def test_grouped_means_and_stderr(self, tmp_path):
        g = np.array([0, 10, 20])
        tA1 = {"algorithm": "F2SA", "k": g,
               "val_loss": np.array([1.0, 2.0, math.nan])}
        tA2 = {"algorithm": "F2SA", "k": g,
               "val_loss": np.array([3.0, 2.0, math.nan])}
        tB = {"algorithm": "F3SA", "k": g,
              "val_loss": np.array([5.0, math.nan, 7.0])}
        out = tmp_path / "plot.csv"
        emit_plot_data([tA1, tA2, tB], "val_loss", out)
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["k", "F2SA.val_loss.mean", "F2SA.val_loss.stderr",
                           "F3SA.val_loss.mean", "F3SA.val_loss.stderr"]
        # k=0: F2SA mean 2, stderr std([1,3],ddof=1)/sqrt(2) = 1; F3SA single
        assert [float(v) for v in rows[1][1:]] == [2.0, 1.0, 5.0, 0.0]
        # k=10: the F3SA trace has no value there
        assert [rows[2][1], rows[2][2]] == ["2.0", "0.0"]
        assert [rows[2][3], rows[2][4]] == ["", ""]
        # k=20: both F2SA traces are blank
        assert rows[3][1:] == ["", "", "7.0", "0.0"]

    def test_multiple_fields_nest_inside_each_algorithm(self, tmp_path):
        g = np.array([0, 10])
        mk = lambda alg: {"algorithm": alg, "k": g,
                          "a_field": np.array([1.0, 2.0]),
                          "b_field": np.array([3.0, 4.0])}
        out = tmp_path / "plot.csv"
        emit_plot_data([mk("F2SA"), mk("F3SA")], ["a_field", "b_field"], out)
        with open(out, newline="") as f:
            header = next(csv.reader(f))
        assert header == [
            "k",
            "F2SA.a_field.mean", "F2SA.a_field.stderr",
            "F2SA.b_field.mean", "F2SA.b_field.stderr",
            "F3SA.a_field.mean", "F3SA.a_field.stderr",
            "F3SA.b_field.mean", "F3SA.b_field.stderr",
        ]

    def test_errors(self, tmp_path):
        out = tmp_path / "plot.csv"
        with pytest.raises(DataError, match="no traces"):
            emit_plot_data([], "g", out)
        tr = {"algorithm": "F2SA", "k": np.array([0, 1]),
              "g": np.array([1.0, 2.0])}
        with pytest.raises(DataError, match="no fields"):
            emit_plot_data([tr], [], out)
        with pytest.raises(DataError, match="no field 'h'"):
            emit_plot_data([tr], "h", out)


class TestRunExperiment:
    def test_writes_traces_and_summary(self, tmp_path):
        out = tmp_path / "exp"
        cfg = config_from_dict(base_config(out))
        summary = run_experiment(cfg)
        assert (out / "summary.json").exists()
        for seed in (0, 1):
            assert (out / f"trace_F2SA_seed{seed}.csv").exists()
        assert summary["n_seeds"] == 2 and summary["n_failed"] == 0
        for entry in summary["seeds"]:
            assert entry["status"] == "ok"
            assert 0 <= entry["R"] < cfg.K
            assert entry["finals"]["grad_F_sq"] >= 0
            assert entry["lambda_final"] > 0
        agg = summary["aggregate"]
        assert agg["k"] == [0, 100, 200, 300, 400]
        gmean = agg["grad_F_norm_sq"]["mean"]
        assert len(gmean) == 5 == len(agg["grad_F_norm_sq"]["stderr"])
        assert gmean[-1] < gmean[0]
        # the file is the canonical dump of the returned summary
        text = (out / "summary.json").read_text()
        assert text == json.dumps(summary, indent=2, sort_keys=True) + "\n"

    def test_written_trace_matches_run(self, tmp_path):
        out = tmp_path / "exp"
        cfg = config_from_dict(base_config(out, seeds=[7]))
        run_experiment(cfg)
        trace = read_trace(out / "trace_F2SA_seed7.csv")
        assert trace["seed"] == 7
        assert list(trace["k"]) == [0, 100, 200, 300, 400]
        assert np.all(np.isfinite(trace["lambda"]))

    def test_all_seeds_failing_is_reported_not_raised(self, tmp_path):
        sched = ScheduleParams(
            algorithm=Algorithm.F2SA, noise_regime=NoiseRegime.DETERMINISTIC,
            a=0.0, c=0.0, k0=1, lambda0=2.0, xi=1.0, T=1,
            c_alpha=1e9, c_gamma=1e10, mu_g=1.0)
        out = tmp_path / "exp"
        cfg = config_from_dict(base_config(
            out, schedule=sched.to_dict(), K=1000, checkpoint_every=10,
            check_constants=False, seeds=[0, 1]))
        with pytest.warns(RuntimeWarning, match="step-size conditions"):
            summary = run_experiment(cfg)
        assert summary["n_failed"] == 2 == summary["n_seeds"]
        for entry in summary["seeds"]:
            assert entry["status"] == "numeric-failure"
            assert "diverged" in entry["error"]
            # arrays are stripped from the persisted context; the rows
            # recorded before the failure go to a partial trace instead
            assert "partial_checkpoints" not in entry["error_context"]
            partial = read_trace(entry["partial_trace"])
            assert partial["seed"] == entry["seed"]
            assert partial["k"][0] == 0
            assert partial["k"][-1] < entry["error_context"]["k"]
        assert summary["aggregate"] == {}
        assert not list(out.glob("trace_*.csv"))
        assert (out / "summary.json").exists()

    @pytest.mark.parametrize("algorithm, failed_at", [("F2SA", 15),
                                                      ("F3SA", 20)])
    def test_failure_between_checkpoints_keeps_partial_trace(
            self, tmp_path, algorithm, failed_at):
        # the iterates turn non-finite inside a step long before the next
        # checkpoint guard; the k = 0 row must still reach the partial trace
        sched = ScheduleParams(
            algorithm=Algorithm[algorithm],
            noise_regime=NoiseRegime.DETERMINISTIC, a=0.0, c=0.0, k0=1,
            lambda0=2.0, xi=1.0, T=1, c_alpha=1e9, c_gamma=1e10, mu_g=1.0)
        out = tmp_path / "exp"
        cfg = config_from_dict(base_config(
            out, algorithm=algorithm, schedule=sched.to_dict(), K=1000,
            checkpoint_every=500, check_constants=False, seeds=[0]))
        # the divergence itself overflows inside the step before the guard
        with pytest.warns(RuntimeWarning, match="step-size conditions"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            summary = run_experiment(cfg)
        entry = summary["seeds"][0]
        assert entry["status"] == "numeric-failure"
        assert "non-finite" in entry["error"]
        assert entry["error_context"]["k"] == failed_at
        path = out / f"partial_{algorithm}_seed0.csv"
        assert entry["partial_trace"] == str(path)
        partial = read_trace(path)
        assert partial["algorithm"] == algorithm
        assert list(partial["k"]) == [0]

    def test_summary_records_later_condition_violations(self, tmp_path):
        consts = builtin_zoo()["scalar-offset"].to_problem().constants
        sched = default_params(Algorithm.F3SA, consts, c_eta=1e3,
                               noise_regime=NoiseRegime.BOTH_NOISY)
        K = 1200
        # eta_{k+1} >= max(2 (gamma_{k-1} - gamma_k) / gamma_{k-1},
        #                  c_eta l_g1^3 / mu_g gamma_k^2) for k >= 1
        gamma = [sched.c_gamma / (k + sched.k0) ** sched.c for k in range(K)]
        first_bad = next(
            k for k in range(1, K)
            if (k + 2) ** (-2 * sched.c) * (1 + 1e-9) < max(
                2 * (gamma[k - 1] - gamma[k]) / gamma[k - 1],
                sched.c_eta * consts.l_g1**3 / sched.mu_g * gamma[k] ** 2))
        assert 1 < first_bad < K - 1
        out = tmp_path / "f3sa"
        cfg = config_from_dict(base_config(
            out, algorithm="F3SA", schedule=sched.to_dict(), K=K, seeds=[0],
            checkpoint_every=400,
            problem={"kind": "quadratic-zoo", "name": "scalar-offset",
                     "sigma_f": 0.1, "sigma_g": 0.1}))
        with warnings.catch_warnings():
            # step 0 satisfies every condition, so the solver stays silent
            warnings.simplefilter("error", RuntimeWarning)
            summary = run_experiment(cfg)
        assert summary["condition_violations"] == {"eta_below_window": first_bad}
        saved = json.loads((out / "summary.json").read_text())
        assert saved["condition_violations"] == {"eta_below_window": first_bad}

        clean = run_experiment(config_from_dict(base_config(tmp_path / "f2sa")))
        assert clean["condition_violations"] == {}
        sobo = run_experiment(config_from_dict(base_config(
            tmp_path / "sobo", algorithm="SOBO", schedule=None, K=10,
            seeds=[0])))
        assert "condition_violations" not in sobo

    def test_nobo_needs_a_cleaning_problem(self, tmp_path):
        cfg = config_from_dict(base_config(
            tmp_path, algorithm="NoBO", schedule=None, seeds=[0]))
        with pytest.raises(ConfigError) as ei:
            run_experiment(cfg)
        assert ei.value.path == "algorithm"

    def test_unknown_zoo_name(self, tmp_path):
        d = base_config(tmp_path)
        d["problem"]["name"] = "does-not-exist"
        with pytest.raises(ConfigError) as ei:
            run_experiment(config_from_dict(d))
        assert ei.value.path == "problem.name"

    def test_solver_options_reach_the_baseline(self, tmp_path):
        out = tmp_path / "exp"
        # an int where a float is taken, null where None is, a y0 of dim_y
        cfg = config_from_dict(base_config(
            out, algorithm="SOBO", schedule=None, K=300, seeds=[0],
            solver_options={"alpha": 0.2, "inner_steps": 10, "gamma": None,
                            "y0": [0]}))
        summary = run_experiment(cfg)
        assert summary["n_failed"] == 0
        entry = summary["seeds"][0]
        # no multiplier in the second-order baseline
        assert entry["lambda_final"] is None
        assert entry["finals"]["grad_F_sq"] < 1e-10


@pytest.fixture(scope="module")
def run_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = root / "exp"
    cfg_path = root / "cfg.json"
    d = base_config(out, K=2000, seeds=[0, 1])
    cfg_path.write_text(json.dumps(d))
    code = main(["run", str(cfg_path)])
    assert code == 0
    traces = sorted(str(p) for p in out.glob("trace_*.csv"))
    assert len(traces) == 2
    return root, traces


class TestCli:
    def test_run_reports_finished_seeds(self, run_artifacts, capsys):
        root, _ = run_artifacts
        # rerun into the same directory; output is overwritten
        assert main(["run", str(root / "cfg.json")]) == 0
        assert "F2SA on quadratic-zoo: 2/2 seeds finished" in capsys.readouterr().out

    def test_fit_command(self, run_artifacts, capsys):
        _, traces = run_artifacts
        code = main(["fit", "--field", "grad_F_norm_sq",
                     "--kmin", "100", "--kmax", "2000", *traces])
        assert code == 0
        out = capsys.readouterr().out
        assert "slope=" in out and "2 trace(s)" in out

    def test_plot_command(self, run_artifacts, tmp_path):
        _, traces = run_artifacts
        out = tmp_path / "plot.csv"
        code = main(["plot", "--out", str(out),
                     "--field", "grad_F_norm_sq", "--field", "lambda",
                     *traces])
        assert code == 0
        with open(out, newline="") as f:
            header = next(csv.reader(f))
        assert header[0] == "k" and len(header) == 5

    def test_verify_command(self, capsys):
        assert main(["verify"]) == 0
        assert "8/8 checks passed" in capsys.readouterr().out

    def test_config_errors_exit_1(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 1
        bad = tmp_path / "bad.json"
        d = base_config(tmp_path / "exp")
        d["schedule"]["lambda0"] = -1.0
        bad.write_text(json.dumps(d))
        assert main(["run", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("over, path", [
        (dict(x0=[1, 2]), "x0"),
        (dict(algorithm="SOBO", schedule=None,
              solver_options={"bogus": 1}), "solver_options.bogus"),
        (dict(solver_options={"batch_size": 2}), "solver_options.batch_size"),
        (dict(algorithm="SOBO", schedule=None,
              solver_options={"inner_steps": 0.5}), "solver_options.inner_steps"),
        (dict(algorithm="SOBO", schedule=None,
              solver_options={"gamma": "a"}), "solver_options.gamma"),
        (dict(algorithm="SOBO", schedule=None,
              solver_options={"alpha": True}), "solver_options.alpha"),
        (dict(solver_options={"y0": [1.0, 2.0]}), "solver_options.y0"),
        (dict(solver_options={"callbacks": []}), "solver_options.callbacks"),
    ])
    def test_run_arguments_are_config_errors(self, tmp_path, capsys, over,
                                             path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(tmp_path / "exp", **over)))
        assert main(["run", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}:")
        assert "Traceback" not in err
        # rejected before any seed ran
        assert not (tmp_path / "exp").exists()

    def test_sobo_nonpositive_step_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            tmp_path / "exp", algorithm="SOBO", schedule=None, K=10,
            solver_options={"alpha": -1})))
        assert main(["run", str(cfg_path)]) == 1
        assert "alpha must be positive" in capsys.readouterr().err

    def test_total_divergence_exits_2(self, tmp_path, capsys):
        sched = ScheduleParams(
            algorithm=Algorithm.F2SA, noise_regime=NoiseRegime.DETERMINISTIC,
            a=0.0, c=0.0, k0=1, lambda0=2.0, xi=1.0, T=1,
            c_alpha=1e9, c_gamma=1e10, mu_g=1.0)
        d = base_config(tmp_path / "exp", schedule=sched.to_dict(), K=500,
                        checkpoint_every=10, check_constants=False, seeds=[0])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        with pytest.warns(RuntimeWarning, match="step-size conditions"):
            assert main(["run", str(cfg_path)]) == 2
        assert "all seeds failed" in capsys.readouterr().err
        # the failed seed keeps its evidence, outside the trace_*.csv glob
        assert (tmp_path / "exp" / "partial_F2SA_seed0.csv").exists()
        assert not list((tmp_path / "exp").glob("trace_*.csv"))

    def test_data_errors_exit_3(self, run_artifacts, tmp_path, capsys):
        _, traces = run_artifacts
        # too narrow a window
        assert main(["fit", "--field", "grad_F_norm_sq",
                     "--kmin", "100", "--kmax", "300", *traces]) == 3
        # unknown plot field
        assert main(["plot", "--out", str(tmp_path / "p.csv"),
                     "--field", "bogus", *traces]) == 3
        # missing trace file
        assert main(["fit", "--field", "grad_F_norm_sq", "--kmin", "1",
                     "--kmax", "10", str(tmp_path / "absent.csv")]) == 3
        assert "data error" in capsys.readouterr().err
