"""Momentum solver: estimator recursion, bootstrap, reduction, error decay."""

import numpy as np
import pytest

from fosbo.batch import f3sa_run_batch
from fosbo.errors import InvalidArgumentError
from fosbo.f2sa import f2sa_run, init_state
from fosbo.f3sa import MomentumState, f3sa_run, f3sa_step, momentum_update
from fosbo.oracles import NoiseRegime
from fosbo.schedule import (Algorithm, ScheduleParams, default_params,
                            run_schedule)


def frozen_lambda_params(algorithm, c_alpha=0.005, c_gamma=0.02,
                         a=0.4, c=0.4, xi=0.1, eta_override=None):
    """a == c and lambda0 = c_gamma/c_alpha keep every schedule constant and
    identical across the two solvers, which the reduction test relies on."""
    return ScheduleParams(
        algorithm=algorithm, noise_regime=NoiseRegime.BOTH_NOISY,
        a=a, c=c, k0=100, lambda0=c_gamma / c_alpha, xi=xi, T=1,
        c_alpha=c_alpha, c_gamma=c_gamma, mu_g=1.0,
        eta_override=eta_override)


class TestMomentumUpdate:
    def test_frozen_value(self):
        got = momentum_update(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                              np.array([1.0, 1.0]), 0.5)
        assert np.allclose(got, [0.0, 0.5], atol=1e-15)

    def test_eta_one_returns_fresh(self):
        fresh = np.array([2.0, -1.0])
        got = momentum_update(np.array([9.0, 9.0]), fresh,
                              np.array([5.0, 5.0]), 1.0)
        assert np.array_equal(got, fresh)

    def test_eta_range_enforced(self):
        v = np.zeros(2)
        for eta in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidArgumentError):
                momentum_update(v, v, v, eta)


class TestStep:
    def test_bootstrap_equals_plain_gradients(self, canonical, canonical_problem):
        p = frozen_lambda_params(Algorithm.F3SA)
        st = init_state(canonical_problem, p, seed=0, x0=np.array([1.0]))
        mom = MomentumState()
        gamma0, alpha0 = st.schedule.gamma_k, st.schedule.alpha_k
        f3sa_step(st, mom, canonical_problem, p)
        # first step has no buffers: plain gradient updates
        assert st.z == pytest.approx(-gamma0 * (0.0 - 1.0), abs=1e-15)
        assert st.y == pytest.approx(-alpha0 * (0.0 + 4.0 * (0.0 - 1.0)),
                                     abs=1e-15)
        assert mom.initialized

    def test_exact_z_error_diagnostic(self, canonical):
        prob = canonical.to_problem(sigma_f=0.3, sigma_g=0.3)
        p = frozen_lambda_params(Algorithm.F3SA)
        st = init_state(prob, p, seed=1, x0=np.array([1.0]))
        mom = MomentumState()
        err = f3sa_step(st, mom, prob, p, exact_z_error=True)
        assert err is not None and err > 0
        assert f3sa_step(st, mom, prob, p) is None

    def test_eta_series_in_trace(self, canonical):
        prob = canonical.to_problem(sigma_f=0.1)
        consts = canonical.local_constants(sigma_f=0.1)
        p = default_params(Algorithm.F3SA, consts,
                           noise_regime=NoiseRegime.UPPER_ONLY, k0=2000)
        res = f3sa_run(prob, p, K=4, seed=0)
        eta = res.series["eta"]
        assert eta[0] == 1.0 and eta[1] == 1.0
        assert eta[2] == pytest.approx(3.0 ** (-0.5), abs=1e-14)
        assert eta[3] == pytest.approx(4.0 ** (-0.5), abs=1e-14)

    def test_mom_err_recorded_at_checkpoints(self, canonical):
        prob = canonical.to_problem(sigma_f=0.2, sigma_g=0.2)
        p = frozen_lambda_params(Algorithm.F3SA)
        res = f3sa_run(prob, p, K=20, seed=2, checkpoint_every=5)
        m = res.series["mom_err_z_sq"]
        assert np.all(np.isfinite(m[:-1]))
        assert np.isnan(m[-1])  # final row records state only, no step ran

    def test_wrong_algorithm_rejected(self, canonical_problem):
        p = frozen_lambda_params(Algorithm.F2SA)
        with pytest.raises(InvalidArgumentError):
            f3sa_run(canonical_problem, p, K=5, seed=0)


class TestOracleCounts:
    def test_calls_and_tokens_per_channel(self, canonical, counted_oracles):
        # every step: six fresh evaluations on five tokens (the three gx-side
        # g calls share one); steps with eta < 1 add six previous-point calls
        # on the same tokens; each checkpoint row inside the loop adds one
        # exact gy call for the estimator error
        prob, calls, keys = counted_oracles(
            canonical.to_problem(sigma_f=0.2, sigma_g=0.2))
        p = default_params(Algorithm.F3SA, canonical.local_constants(),
                           NoiseRegime.BOTH_NOISY)
        K, every = 20, 6
        f3sa_run(prob, p, K, 0, x0=np.array([1.0]), checkpoint_every=every)
        m = int(np.count_nonzero(run_schedule(p, K)["eta"][1:] < 1.0))
        assert m == K - 2  # eta is forced to 1 on the first two steps
        assert calls == {("gy", "token"): 2 * K + 2 * m,
                         ("gy", "exact"): len(range(0, K, every)),
                         ("fy", "token"): K + m, ("fx", "token"): K + m,
                         ("gx", "token"): 2 * K + 2 * m}
        assert {ch: len(k) for ch, k in keys.items()} == {
            "gy": 2 * K, "fy": K, "fx": K, "gx": K}
        assert len(set().union(*keys.values())) == 5 * K


class TestReduction:
    def test_momentum_off_equals_double_loop_T1(self, canonical):
        """eta pinned at 1 and identical frozen schedules: the two solvers
        must walk the same path bitwise, sample for sample."""
        prob = canonical.to_problem(sigma_f=0.1, sigma_g=0.1)
        kw = dict(K=1000, seed=11, x0=np.array([1.0]))
        r3 = f3sa_run(prob, frozen_lambda_params(Algorithm.F3SA,
                                                 eta_override=1.0), **kw)
        r2 = f2sa_run(prob, frozen_lambda_params(Algorithm.F2SA),
                      share_x_token=True, **kw)
        assert np.array_equal(r3.x_final, r2.x_final)
        assert np.array_equal(r3.y_final, r2.y_final)
        assert np.array_equal(r3.z_final, r2.z_final)
        assert r3.lambda_final == r2.lambda_final

    def test_momentum_on_diverges_from_double_loop(self, canonical):
        prob = canonical.to_problem(sigma_f=0.1, sigma_g=0.1)
        kw = dict(K=50, seed=11, x0=np.array([1.0]))
        # a constant eta below 1 skips the forced bootstrap, which the
        # condition checker rightly flags
        with pytest.warns(RuntimeWarning, match="eta_first_two_steps"):
            r3 = f3sa_run(prob, frozen_lambda_params(Algorithm.F3SA,
                                                     eta_override=0.5), **kw)
        r2 = f2sa_run(prob, frozen_lambda_params(Algorithm.F2SA),
                      share_x_token=True, **kw)
        assert not np.array_equal(r3.x_final, r2.x_final)

    def test_run_matches_manual_composition(self, canonical):
        prob = canonical.to_problem(sigma_f=0.3, sigma_g=0.3)
        p = frozen_lambda_params(Algorithm.F3SA)
        res = f3sa_run(prob, p, K=3, seed=8, x0=np.array([1.0]))
        st = init_state(prob, p, seed=8, x0=np.array([1.0]), K=3)
        mom = MomentumState()
        for k in range(3):
            f3sa_step(st, mom, prob, p, exact_z_error=k % 1 == 0)
        assert np.array_equal(res.x_final, st.x)
        assert np.array_equal(res.y_final, st.y)
        assert np.array_equal(res.z_final, st.z)


class TestEstimatorErrorDecay:
    def test_z_channel_error_shrinks(self, zoo):
        consts = zoo["scalar-offset"].local_constants(sigma_f=0.1, sigma_g=0.1)
        p = default_params(Algorithm.F3SA, consts,
                           noise_regime=NoiseRegime.BOTH_NOISY,
                           c_xi=2.0, k0=96, c_gamma=(1 / 32) * 96 ** (2 / 5),
                           c_alpha=(1 / 32) * 96 ** (2 / 5) * 96 ** (1 / 5) / 2,
                           lambda0=2.0)
        res = f3sa_run_batch(zoo["scalar-offset"], p, K=10_000, n_runs=40,
                             master_seed=99, sigma_f=0.1, sigma_g=0.1,
                             x0=np.array([1.0]), checkpoint_every=100)
        m = res.seed_mean("mom_err_z_sq")
        early = float(np.nanmean(m[1:6]))
        late = float(np.nanmean(m[-6:-1]))
        assert late < 0.2 * early
