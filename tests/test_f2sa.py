"""Double-loop solver: step formulas, traces, determinism, guard rails."""

import dataclasses

import numpy as np
import pytest

from fosbo.errors import InvalidArgumentError, NumericFailure
from fosbo.f2sa import (f2sa_run, f2sa_step, init_state, inner_y_step,
                        inner_z_step, outer_x_step)
from fosbo.f3sa import f3sa_run
from fosbo.oracles import NoiseRegime
from fosbo.problems.hypercleaning import (make_synthetic_hypercleaning,
                                          nobo_baseline_run)
from fosbo.reference import sobo_baseline_run
from fosbo.schedule import Algorithm, ScheduleParams, default_params


def flat_params(c_alpha=0.1, c_gamma=0.5, lambda0=3.0, T=1, xi=1.0):
    """Constant step sizes, multiplier pinned at lambda0 (target sits below)."""
    return ScheduleParams(
        algorithm=Algorithm.F2SA, noise_regime=NoiseRegime.DETERMINISTIC,
        a=0.0, c=0.0, k0=1, lambda0=lambda0, xi=xi, T=T,
        c_alpha=c_alpha, c_gamma=c_gamma, mu_g=1.0)


def tuned_params(**overrides):
    """Clean configuration (no condition warnings) used for full runs."""
    from fosbo.problems import builtin_zoo
    consts = builtin_zoo()["scalar-canonical"].local_constants()
    kw = dict(T=8, xi=0.9, k0=64, c_alpha=1 / 32, c_gamma=1 / 32,
              lambda0=2.0, a=1 / 3, c=0.0)
    kw.update(overrides)
    return default_params(Algorithm.F2SA, consts, **kw)


class TestStepFormulas:
    def test_inner_z_step_frozen(self, canonical_problem):
        st = init_state(canonical_problem, flat_params(), seed=0,
                        x0=np.array([1.0]))
        inner_z_step(st, canonical_problem)
        assert st.z == pytest.approx(0.5, abs=1e-15)

    def test_inner_y_step_frozen(self, canonical_problem):
        p = flat_params()
        st = init_state(canonical_problem, p, seed=0, x0=np.array([1.0]))
        inner_y_step(st, canonical_problem)
        # y - alpha (f_y + lambda g_y) = 0 - 0.1 (0 + 3 (0 - 1)) = 0.3
        assert st.y == pytest.approx(0.3, abs=1e-15)

    def test_outer_direction_frozen(self, canonical, canonical_problem):
        p = flat_params()
        x = np.array([1.0])
        st = init_state(canonical_problem, p, seed=0, x0=x,
                        y0=canonical.y_star_lambda(x, 3.0), z0=canonical.y_star(x))
        outer_x_step(st, canonical_problem, p)
        assert st.last_direction == pytest.approx(1.75, abs=1e-13)
        assert st.x == pytest.approx(1.0 - 0.1 * 1.75, abs=1e-13)

    def test_multiplier_pinned_when_target_below(self, canonical_problem):
        p = flat_params()
        st = init_state(canonical_problem, p, seed=0)
        for _ in range(5):
            f2sa_step(st, canonical_problem, p)
        assert st.schedule.lambda_k == 3.0
        assert st.k == 5

    def test_upper_only_keeps_g_channels_exact(self, canonical):
        prob = canonical.to_problem(sigma_f=0.4)
        p = flat_params()
        st = init_state(prob, p, seed=9, x0=np.array([1.0]),
                        z0=np.array([0.2]))
        inner_z_step(st, prob)
        # z - gamma (z - x) with no noise on the lower-level channel
        assert st.z == pytest.approx(0.2 - 0.5 * (0.2 - 1.0), abs=1e-15)

    def test_shared_x_token_cancels_noise(self, canonical):
        prob = canonical.to_problem(sigma_g=0.5)
        p = flat_params()
        same = np.array([0.4])
        st = init_state(prob, p, seed=4, x0=np.array([1.0]), y0=same, z0=same)
        outer_x_step(st, prob, p, share_x_token=True)
        # y == z with one shared sample: the g difference vanishes exactly
        assert st.last_direction == pytest.approx(1.0, abs=1e-15)
        st2 = init_state(prob, p, seed=4, x0=np.array([1.0]), y0=same, z0=same)
        outer_x_step(st2, prob, p, share_x_token=False)
        assert abs(float(st2.last_direction[0]) - 1.0) > 1e-6


@pytest.fixture(params=["F2SA", "F3SA", "SOBO", "NoBO"])
def entry_point(request, canonical, canonical_problem):
    """(algorithm, run(K, **kw)) for each per-seed solver and baseline; the
    cleaning-only baseline runs on a tiny cleaning instance."""
    alg = request.param
    if alg == "NoBO":
        data = make_synthetic_hypercleaning(n_train=24, n_val=16,
                                            num_classes=3, dim=4, seed=5)
        return alg, lambda K, **kw: nobo_baseline_run(data, K, 0, **kw)
    if alg == "SOBO":
        return alg, lambda K, **kw: sobo_baseline_run(canonical_problem, K, 0,
                                                      **kw)
    if alg == "F2SA":
        run, params = f2sa_run, tuned_params()
    else:
        run = f3sa_run
        params = default_params(Algorithm.F3SA, canonical.local_constants())
    return alg, lambda K, **kw: run(canonical_problem, params, K, 0, **kw)


class TestRunContract:
    def test_trace_shape_default_cadence(self, entry_point):
        alg, run = entry_point
        res = run(100)
        assert res.checkpoints[0] == 0 and res.checkpoints[-1] == 100
        assert len(res.checkpoints) == 101
        assert res.series["grad_F_sq"].shape == (101,)
        assert res.algorithm == alg

    def test_trace_shape_override_cadence(self, entry_point):
        res = entry_point[1](100, checkpoint_every=30)
        assert list(res.checkpoints) == [0, 30, 60, 90]

    def test_final_row_when_cadence_divides(self, entry_point):
        res = entry_point[1](90, checkpoint_every=30)
        assert list(res.checkpoints) == [0, 30, 60, 90]

    def test_zero_budget(self, entry_point):
        alg, run = entry_point
        # the cleaning-only baseline takes no starting point
        res = run(0) if alg == "NoBO" else run(0, x0=np.array([0.7]))
        assert res.checkpoints.size == 0
        assert res.x_R is None and res.R == 0
        if alg != "NoBO":
            assert res.x_final == pytest.approx(0.7)

    def test_negative_budget_rejected(self, canonical_problem):
        with pytest.raises(InvalidArgumentError):
            f2sa_run(canonical_problem, tuned_params(), K=-1, seed=0)

    def test_wrong_algorithm_rejected(self, canonical_problem):
        from fosbo.problems import builtin_zoo
        consts = builtin_zoo()["scalar-canonical"].local_constants()
        p3 = default_params(Algorithm.F3SA, consts)
        with pytest.raises(InvalidArgumentError):
            f2sa_run(canonical_problem, p3, K=5, seed=0)

    def test_row_proxy_comes_from_its_step(self, canonical):
        # row k records the state entering step k and is completed by the
        # squared x direction step k itself computes; the row at K has none
        prob = canonical.to_problem(sigma_f=0.3, sigma_g=0.3)
        p = tuned_params()
        res = f2sa_run(prob, p, K=20, seed=5, x0=np.array([1.0]),
                       checkpoint_every=5)
        st = init_state(prob, p, seed=5, x0=np.array([1.0]), K=20)
        want = []
        for k in range(20):
            f2sa_step(st, prob, p)
            if k % 5 == 0:
                want.append(float(st.last_direction @ st.last_direction))
        assert list(res.checkpoints) == [0, 5, 10, 15, 20]
        assert np.array_equal(res.series["proxy_sq"][:-1], want)
        assert np.isnan(res.series["proxy_sq"][-1])


class TestOracleCounts:
    def test_calls_and_tokens_per_channel(self, canonical, counted_oracles):
        # per outer step: T z steps (gy) and T y steps (fy, gy) on fresh
        # tokens, then fx and two gx calls on three more: 3T + 3 tokens
        prob, calls, keys = counted_oracles(
            canonical.to_problem(sigma_f=0.2, sigma_g=0.2))
        p = tuned_params()
        T, K = p.T, 6
        f2sa_run(prob, p, K=K, seed=0, x0=np.array([1.0]), checkpoint_every=2)
        assert calls == {("gy", "token"): 2 * T * K, ("fy", "token"): T * K,
                         ("fx", "token"): K, ("gx", "token"): 2 * K}
        assert {ch: len(k) for ch, k in keys.items()} == {
            "gy": 2 * T * K, "fy": T * K, "fx": K, "gx": 2 * K}
        assert len(set().union(*keys.values())) == (3 * T + 3) * K


class TestDeterminism:
    def test_replay_bitwise(self, canonical):
        prob = canonical.to_problem(sigma_f=0.2, sigma_g=0.2)
        kw = dict(K=60, seed=77, x0=np.array([1.0]))
        r1 = f2sa_run(prob, tuned_params(), **kw)
        r2 = f2sa_run(prob, tuned_params(), **kw)
        assert np.array_equal(r1.x_final, r2.x_final)
        assert np.array_equal(r1.series["grad_F_sq"], r2.series["grad_F_sq"])
        assert r1.R == r2.R

    def test_seed_changes_outcome(self, canonical):
        prob = canonical.to_problem(sigma_f=0.2, sigma_g=0.2)
        r1 = f2sa_run(prob, tuned_params(), K=60, seed=1, x0=np.array([1.0]))
        r2 = f2sa_run(prob, tuned_params(), K=60, seed=2, x0=np.array([1.0]))
        assert not np.array_equal(r1.x_final, r2.x_final)

    def test_run_matches_manual_composition(self, canonical):
        prob = canonical.to_problem(sigma_f=0.3, sigma_g=0.3)
        p = tuned_params()
        res = f2sa_run(prob, p, K=7, seed=5, x0=np.array([1.0]))
        st = init_state(prob, p, seed=5, x0=np.array([1.0]), K=7)
        for _ in range(7):
            f2sa_step(st, prob, p)
        assert np.array_equal(res.x_final, st.x)
        assert np.array_equal(res.y_final, st.y)
        assert res.lambda_final == st.schedule.lambda_k

    def test_x_R_snapshot(self, canonical_problem):
        p = tuned_params()
        res = f2sa_run(canonical_problem, p, K=40, seed=3, x0=np.array([1.0]))
        assert 0 <= res.R < 40
        st = init_state(canonical_problem, p, seed=3, x0=np.array([1.0]), K=40)
        for _ in range(res.R):
            f2sa_step(st, canonical_problem, p)
        assert np.array_equal(res.x_R, st.x)


class TestGuardsAndWarnings:
    def test_divergence_carries_partial_trace(self, canonical_problem):
        p = flat_params(c_alpha=1e6, c_gamma=1e7, lambda0=2.0)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(NumericFailure) as exc:
                f2sa_run(canonical_problem, p, K=50, seed=0,
                         x0=np.array([1.0]))
        ctx = exc.value.context
        assert "partial_checkpoints" in ctx
        assert ctx["k"] >= 1

    def test_nonfinite_inner_step_names_its_outer_step(self, canonical):
        # one NaN from the lower-level oracle, on an inner step of outer
        # iteration 3, surfaces at the end of that outer step
        exact = canonical.to_problem()
        calls = {"gy": 0}
        p = flat_params(T=4)
        bad_call = 3 * 2 * p.T + 5  # the z and y steps each call grad_g_y

        def grad_g_y(x, y, token):
            calls["gy"] += 1
            if calls["gy"] == bad_call:
                return np.array([np.nan])
            return exact.grad_g_y(x, y, token)

        prob = dataclasses.replace(exact, grad_g_y=grad_g_y)
        st = init_state(prob, p, seed=0, x0=np.array([1.0]))
        for _ in range(3):
            f2sa_step(st, prob, p)
        with pytest.raises(NumericFailure) as exc:
            f2sa_step(st, prob, p)
        assert exc.value.context["k"] == 3
        assert st.k == 3

    def test_condition_violations_warn(self, canonical_problem):
        with pytest.warns(RuntimeWarning, match="gamma_exceeds"):
            f2sa_run(canonical_problem, flat_params(), K=1, seed=0)

    def test_tuned_config_is_silent(self, canonical_problem, recwarn):
        f2sa_run(canonical_problem, tuned_params(), K=5, seed=0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestConvergenceShape:
    def test_deterministic_descent_and_tracking(self, zoo):
        prob = zoo["scalar-offset"].to_problem()
        res = f2sa_run(prob, tuned_params(), K=2000, seed=0,
                       x0=np.array([1.0]))
        g = res.series["grad_F_sq"]
        assert g[-1] < 1e-3 * g[0]
        assert res.series["potential"][-1] <= res.series["potential"][0]
        assert np.nanmax(res.series["dist_y_sq"]) < 10.0
        assert res.series["dist_z_sq"][-1] < 1e-4
