"""Ground-truth solvers, proxy bias, finite differences, diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

from fosbo.errors import (InvalidArgumentError, NumericFailure,
                          PreconditionViolation)
from fosbo.reference import (Diagnostics, bias_bound_check,
                             exact_hypergradient, finite_difference_grad,
                             hyper_objective, proxy_gradient,
                             sobo_baseline_run, solve_lower_level,
                             solve_penalized)


class TestSolves:
    def test_lower_level_without_analytics(self, canonical_problem):
        stripped = dataclasses.replace(canonical_problem, analytics=None)
        x = np.array([0.8])
        y = solve_lower_level(stripped, x, tol=1e-12)
        assert y == pytest.approx(0.8, abs=1e-10)

    def test_penalized_without_analytics(self, canonical, canonical_problem):
        stripped = dataclasses.replace(canonical_problem, analytics=None)
        x = np.array([1.0])
        y = solve_penalized(stripped, x, 3.0, tol=1e-13)
        assert np.allclose(y, canonical.y_star_lambda(x, 3.0), atol=1e-10)

    def test_hyper_objective_value(self, zoo):
        prob = zoo["scalar-offset"].to_problem()
        assert hyper_objective(prob, np.array([1.0])) == pytest.approx(2.0)


class TestProxy:
    def test_hypergradient_frozen_value(self, canonical_problem):
        x = np.array([1.0])
        ys = canonical_problem.analytics.y_star(x)
        assert exact_hypergradient(canonical_problem, x, ys) == \
            pytest.approx(2.0, abs=1e-12)

    def test_proxy_frozen_value(self, canonical, canonical_problem):
        x = np.array([1.0])
        lam = 3.0
        yl = canonical.y_star_lambda(x, lam)
        ys = canonical.y_star(x)
        assert yl == pytest.approx(0.75, abs=1e-12)
        got = proxy_gradient(canonical_problem, x, lam, yl, ys)
        assert got == pytest.approx(1.75, abs=1e-12)

    def test_bias_frozen_value(self, canonical_problem):
        # |grad F - proxy| = |x| / (1 + lam) for this instance
        measured, bound, ok = bias_bound_check(canonical_problem,
                                               np.array([1.0]), 3.0)
        assert measured == pytest.approx(0.25, abs=1e-10)
        assert bound == pytest.approx(16.0 / 3.0, rel=1e-3)
        assert ok

    def test_proxy_below_threshold_rejected(self, canonical, canonical_problem):
        x = np.array([1.0])
        with pytest.raises(PreconditionViolation):
            proxy_gradient(canonical_problem, x, 1.0,
                           canonical.y_star_lambda(x, 3.0), canonical.y_star(x))

    def test_bias_shrinks_with_multiplier(self, canonical_problem):
        x = np.array([1.0])
        m4 = bias_bound_check(canonical_problem, x, 4.0)[0]
        m64 = bias_bound_check(canonical_problem, x, 64.0)[0]
        assert m64 < m4 / 8


class TestFiniteDifferences:
    def test_quartic_frozen(self):
        got = finite_difference_grad(lambda v: float(v[0] ** 4),
                                     np.array([1.0]), h=1e-3)
        assert got[0] == pytest.approx(4.0, abs=1e-5)

    def test_quadratic_exact(self):
        got = finite_difference_grad(lambda v: float(v @ v),
                                     np.array([1.0, -2.0]), h=1e-4)
        assert np.allclose(got, [2.0, -4.0], atol=1e-8)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(InvalidArgumentError):
            finite_difference_grad(lambda v: 0.0, np.array([1.0]), h=0.0)

    def test_nonfinite_value_reported(self):
        with pytest.raises(NumericFailure) as exc:
            finite_difference_grad(lambda v: math.inf, np.array([1.0, 2.0]))
        assert exc.value.context["coordinate"] == 0


class TestDiagnostics:
    def test_auto_uses_analytics(self, canonical_problem):
        d = Diagnostics(canonical_problem)
        assert d.mode == "analytic" and d.kind == "exact"
        assert d.grad_F_sq(np.array([1.5])) == pytest.approx(9.0)

    def test_auto_without_analytics_disables(self, canonical_problem):
        stripped = dataclasses.replace(canonical_problem, analytics=None)
        d = Diagnostics(stripped)
        assert d.kind == "none"
        assert math.isnan(d.grad_F_sq(np.array([1.0])))

    def test_second_order_and_fd_agree(self, zoo):
        prob = zoo["coupled-2d"].to_problem()
        x = np.array([0.5, -0.5])
        exact = Diagnostics(prob, "second-order").grad_F_sq(x)
        approx = Diagnostics(prob, "fd").grad_F_sq(x)
        assert approx == pytest.approx(exact, rel=1e-6)

    def test_mode_validation(self, canonical_problem):
        with pytest.raises(InvalidArgumentError):
            Diagnostics(canonical_problem, "bogus")
        stripped = dataclasses.replace(canonical_problem, analytics=None)
        with pytest.raises(InvalidArgumentError):
            Diagnostics(stripped, "analytic")
        no_so = dataclasses.replace(canonical_problem, second_order=None)
        with pytest.raises(InvalidArgumentError):
            Diagnostics(no_so, "second-order")

    def test_state_row_distances(self, canonical, canonical_problem):
        d = Diagnostics(canonical_problem)
        x = np.array([1.0])
        yl = canonical.y_star_lambda(x, 3.0)
        row = d.state_row(x, yl + 0.1, np.array([1.2]), 3.0)
        assert row["dist_y_sq"] == pytest.approx(0.01, abs=1e-12)
        assert row["dist_z_sq"] == pytest.approx(0.04, abs=1e-12)
        assert row["potential"] > 0


class TestBaseline:
    def test_deterministic_convergence(self, zoo):
        q = zoo["scalar-offset"]
        res = sobo_baseline_run(q.to_problem(), K=1000, seed=0,
                                alpha=0.2, x0=np.array([1.0]))
        assert res.algorithm == "SOBO"
        assert res.x_final == pytest.approx(-0.5, abs=1e-8)
        assert res.series["grad_F_sq"][-1] <= 1e-10

    def test_requires_second_order(self, canonical_problem):
        no_so = dataclasses.replace(canonical_problem, second_order=None)
        with pytest.raises(PreconditionViolation):
            sobo_baseline_run(no_so, K=10, seed=0)

    def test_negative_budget_rejected(self, canonical_problem):
        with pytest.raises(InvalidArgumentError):
            sobo_baseline_run(canonical_problem, K=-1, seed=0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_nonpositive_step_rejected(self, canonical_problem, alpha):
        with pytest.raises(PreconditionViolation):
            sobo_baseline_run(canonical_problem, K=10, seed=0, alpha=alpha)
