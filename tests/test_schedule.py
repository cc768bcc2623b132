"""Step-size/multiplier schedules: closed-form values, invariants, checker."""

import numpy as np
import pytest

from fosbo.errors import InvalidArgumentError, PreconditionViolation
from fosbo.oracles import NoiseRegime, RegularityConstants
from fosbo.schedule import (Algorithm, ScheduleParams, advance, check_sweep,
                            default_params, make_schedule, run_schedule)

CONSTS = RegularityConstants(l_f0=2.0, l_f1=1.0, l_g0=4.0, l_g1=2.0,
                             mu_g=1.0, l_lambda0=1.0)


def spec_example_params(**overrides):
    """k0=100, lambda0=2 double-loop parameter set used for hand arithmetic."""
    kw = dict(k0=100, lambda0=2.0)
    kw.update(overrides)
    return default_params(Algorithm.F2SA, CONSTS, **kw)


class TestDefaults:
    def test_exponent_table(self):
        expect = {
            (Algorithm.F2SA, NoiseRegime.BOTH_NOISY): (5 / 7, 4 / 7),
            (Algorithm.F2SA, NoiseRegime.UPPER_ONLY): (3 / 5, 2 / 5),
            (Algorithm.F2SA, NoiseRegime.DETERMINISTIC): (1 / 3, 0.0),
            (Algorithm.F3SA, NoiseRegime.BOTH_NOISY): (3 / 5, 2 / 5),
            (Algorithm.F3SA, NoiseRegime.UPPER_ONLY): (1 / 2, 1 / 4),
            (Algorithm.F3SA, NoiseRegime.DETERMINISTIC): (1 / 3, 0.0),
        }
        for (alg, reg), (a, c) in expect.items():
            p = default_params(alg, CONSTS, noise_regime=reg)
            assert (p.a, p.c) == pytest.approx((a, c))

    def test_double_loop_coefficients(self):
        p = spec_example_params()
        assert p.c_gamma == pytest.approx(0.01, abs=1e-15)
        assert p.c_alpha == pytest.approx(1 / (4 * 100 ** (2 / 3)), abs=1e-15)
        assert p.T >= 32
        assert p.lambda0 == 2.0

    def test_lambda0_floor(self):
        p = default_params(Algorithm.F2SA, CONSTS)
        assert p.lambda0 >= CONSTS.lambda_min

    def test_momentum_xi_default(self):
        p = default_params(Algorithm.F3SA, CONSTS)
        # xi = min(1, c_xi mu / (l_g1 l_star0^2)) with l_star0 = 2 here
        assert p.xi == pytest.approx(min(1.0, 1.0 / 8.0))

    def test_unknown_override_rejected(self):
        with pytest.raises(InvalidArgumentError):
            default_params(Algorithm.F2SA, CONSTS, bogus=3)


class TestClosedFormValues:
    def test_alpha_gamma_at_zero(self):
        st = make_schedule(spec_example_params(), CONSTS)
        assert st.alpha_k == pytest.approx(0.0025, abs=1e-15)
        assert st.gamma_k == pytest.approx(0.01, abs=1e-15)
        assert st.beta_k == pytest.approx(0.005, abs=1e-15)
        assert st.gamma_k / (2 * st.alpha_k) == pytest.approx(2.0)

    def test_first_multiplier_increment(self):
        p = spec_example_params()
        st = advance(make_schedule(p, CONSTS), p)
        # catch-up to the target 2 (101/100)^{1/3}; the increment cap
        # T mu alpha lambda^2 / 16 = 0.02 does not bind
        assert st.lambda_k == pytest.approx(2 * (101 / 100) ** (1 / 3),
                                            rel=1e-13)

    def test_increment_cap_binds_when_small_T(self):
        p = spec_example_params(T=1, a=0.9, c=0.0)
        st0 = make_schedule(p, CONSTS)
        cap = p.T * p.mu_g / 16 * st0.alpha_k * st0.lambda_k ** 2
        st1 = advance(st0, p)
        grow = st1.lambda_k - st0.lambda_k
        assert grow == pytest.approx(cap, rel=1e-12)
        base1 = 1 + p.k0
        target1 = (p.c_gamma / base1 ** p.c) / (2 * p.c_alpha / base1 ** p.a)
        assert target1 - st0.lambda_k > cap  # the cap really was the binding branch

    def test_eta_forced_to_one_early(self):
        p = default_params(Algorithm.F3SA, CONSTS, a=3 / 5, c=2 / 5,
                           noise_regime=NoiseRegime.BOTH_NOISY)
        sched = run_schedule(p, 4)
        assert sched["eta"][0] == 1.0 and sched["eta"][1] == 1.0
        assert sched["eta"][2] == pytest.approx(3 ** (-4 / 5), abs=1e-15)

    def test_eta_override_constant(self):
        p = default_params(Algorithm.F3SA, CONSTS, eta_override=1.0,
                           a=0.6, c=0.4)
        assert np.all(run_schedule(p, 50)["eta"] == 1.0)


class TestPreconditions:
    def test_lambda0_below_floor_raises(self):
        p = spec_example_params(lambda0=1.0)
        with pytest.raises(PreconditionViolation):
            make_schedule(p, CONSTS)
        # without constants the floor cannot be checked
        make_schedule(p, None)

    def test_beta_above_gamma_raises(self):
        p = spec_example_params(c_alpha=0.5, c_gamma=0.001)
        with pytest.raises(PreconditionViolation):
            make_schedule(p, CONSTS)

    def test_serialization_round_trip(self):
        p = spec_example_params()
        assert ScheduleParams.from_dict(p.to_dict()) == p
        p3 = default_params(Algorithm.F3SA, CONSTS, eta_override=0.5)
        assert ScheduleParams.from_dict(p3.to_dict()) == p3


class TestSequenceInvariants:
    def test_advance_matches_run_schedule_bitwise(self):
        for alg in (Algorithm.F2SA, Algorithm.F3SA):
            p = default_params(alg, CONSTS, k0=30)
            sched = run_schedule(p, 400)
            st = make_schedule(p, CONSTS)
            for k in range(400):
                assert sched["lambda"][k] == st.lambda_k
                assert sched["alpha"][k] == st.alpha_k
                assert sched["gamma"][k] == st.gamma_k
                if alg is Algorithm.F3SA:
                    assert sched["eta"][k] == st.eta_k
                st = advance(st, p)

    def test_multiplier_identity_over_long_horizon(self):
        p = default_params(Algorithm.F2SA, CONSTS)
        sched = run_schedule(p, 100_000)
        rel = np.abs(sched["lambda"] - sched["gamma"] / (2 * sched["alpha"]))
        assert np.max(rel / sched["lambda"]) <= 1e-12

    def test_monotonicity_and_bounds(self, rng):
        for _ in range(10):
            a = float(rng.uniform(0.3, 0.9))
            c = float(rng.uniform(0.0, min(a, 0.6)))
            k0 = int(rng.integers(20, 300))
            p = default_params(Algorithm.F2SA, CONSTS, a=a, c=c, k0=k0)
            sched = run_schedule(p, 2000)
            lam = sched["lambda"]
            assert np.all(np.diff(lam) >= 0)
            assert np.all(sched["alpha"] * lam <= sched["gamma"] * (1 + 1e-12))
            assert lam[0] == p.lambda0

    def test_multiplier_log_slope_matches_exponents(self):
        # catch-up branch active: lambda ~ (k0+k)^(a-c)
        p = default_params(Algorithm.F2SA, CONSTS, T=8, xi=0.9, k0=64,
                           c_alpha=1 / 32, c_gamma=1 / 32, lambda0=2.0,
                           a=1 / 3, c=0.0)
        sched = run_schedule(p, 100_001)
        ks = np.arange(10_000, 100_001, 1000)
        slope = np.polyfit(np.log(ks), np.log(sched["lambda"][ks]), 1)[0]
        assert slope == pytest.approx(1 / 3, abs=0.02)


class TestChecker:
    def test_clean_for_defaults(self):
        p = default_params(Algorithm.F2SA, CONSTS)
        assert list(check_sweep(p, CONSTS, 1)) == []
        assert check_sweep(p, CONSTS, 100_000) == {}

    def test_violations_named(self):
        p = spec_example_params(c_gamma=3.0, c_alpha=1.0, lambda0=2.0)
        names = list(check_sweep(p, CONSTS, 1))
        assert "gamma_exceeds_quarter_inv_lg1" in names
        sweep = check_sweep(p, CONSTS, 10)
        assert sweep["gamma_exceeds_quarter_inv_lg1"] == 0

    def test_low_lambda0_flagged_not_fatal(self):
        p = spec_example_params(lambda0=1.0)
        make_schedule(p, None)
        assert "lambda0_below_threshold" in list(check_sweep(p, CONSTS, 1))

    def test_momentum_conditions(self):
        p = default_params(Algorithm.F3SA, CONSTS)
        assert list(check_sweep(p, CONSTS, 1)) == []
        bad = default_params(Algorithm.F3SA, CONSTS, xi=1.0)
        assert "xi_exceeds_momentum_bound" in list(check_sweep(bad, CONSTS, 1))

    def test_eta_window(self):
        p = default_params(Algorithm.F3SA, CONSTS, c=0.0, a=1 / 3)
        assert "eta_below_window" not in check_sweep(p, CONSTS, 100_000)
        # eta_{k+1} >= max(2 (gamma_{k-1} - gamma_k) / gamma_{k-1},
        #                  c_eta l_g1^3 / mu_g gamma_k^2) for k >= 1
        p2 = default_params(Algorithm.F3SA, CONSTS, c_eta=1e3,
                            noise_regime=NoiseRegime.BOTH_NOISY)
        K = 2000
        gamma = [p2.c_gamma / (k + p2.k0) ** p2.c for k in range(K)]
        first_bad = next(
            k for k in range(1, K)
            if (k + 2) ** (-2 * p2.c) * (1 + 1e-9) < max(
                2 * (gamma[k - 1] - gamma[k]) / gamma[k - 1],
                p2.c_eta * CONSTS.l_g1**3 / p2.mu_g * gamma[k] ** 2))
        assert 1 < first_bad < K - 1
        assert check_sweep(p2, CONSTS, K) == {"eta_below_window": first_bad}
        assert check_sweep(p2, CONSTS, first_bad) == {}
