"""Analytic quadratic instances: closed forms, constants, problem wrapping."""

import numpy as np
import pytest

from fosbo.errors import InvalidArgumentError
from fosbo.oracles import NoiseRegime, draw_token
from fosbo.problems import builtin_zoo, make_quadratic
from fosbo.reference import exact_hypergradient, solve_lower_level, solve_penalized


class TestClosedForms:
    def test_canonical_hypergradient_is_2x(self, canonical):
        for x in (-1.5, 0.0, 0.25, 2.0):
            xv = np.array([x])
            assert canonical.grad_F(xv) == pytest.approx(2 * x, abs=1e-14)
            assert canonical.F_value(xv) == pytest.approx(x * x, abs=1e-14)
        assert canonical.x_star() == pytest.approx(0.0)
        assert canonical.F_star() == pytest.approx(0.0)

    def test_offset_minimizer(self, zoo):
        q = zoo["scalar-offset"]
        # F(x) = x^2 + x, so x* = -1/2 and F* = -1/4
        assert q.grad_F(np.array([1.0])) == pytest.approx(3.0, abs=1e-14)
        assert q.x_star() == pytest.approx(-0.5, abs=1e-14)
        assert q.F_star() == pytest.approx(-0.25, abs=1e-14)

    def test_lower_level_solution_map(self, zoo):
        for q in zoo.values():
            x = np.linspace(-1, 1, q.dim_x)
            ys = q.y_star(x)
            assert np.linalg.norm(q.grad_g_y_exact(x, ys)) <= 1e-12

    def test_penalized_solution_stationarity(self, zoo):
        for q in zoo.values():
            lam_min = q.local_constants().lambda_min
            x = np.linspace(-0.8, 0.9, q.dim_x)
            for lam in (lam_min, 7.0 * lam_min):
                yl = q.y_star_lambda(x, lam)
                r = q.grad_f_y_exact(x, yl) + lam * q.grad_g_y_exact(x, yl)
                assert np.linalg.norm(r) <= 1e-12

    def test_penalized_solution_approaches_y_star(self, zoo):
        for q in zoo.values():
            x = np.full(q.dim_x, 0.7)
            ys = q.y_star(x)
            gaps = [np.linalg.norm(q.y_star_lambda(x, lam) - ys)
                    for lam in (4.0, 8.0, 16.0, 32.0, 64.0)]
            for wide, tight in zip(gaps, gaps[1:]):
                assert tight <= wide + 1e-12


class TestConstants:
    def test_canonical_frozen_values(self, canonical):
        c = canonical.local_constants()
        assert c.l_f1 == pytest.approx(1.0, abs=1e-12)
        assert c.l_g1 == pytest.approx(2.0, abs=1e-12)
        assert c.mu_g == pytest.approx(1.0, abs=1e-12)
        assert c.l_f0 == pytest.approx(2.0, abs=1e-12)
        assert c.l_g0 == pytest.approx(4.0, abs=1e-12)
        assert c.lambda_min == pytest.approx(2.0, abs=1e-12)
        # solution-map constant: sup of lam/(1+lam) padded by the safety factor
        assert c.l_lambda0 == pytest.approx(1.0001, abs=1e-8)
        assert c.l_star0 == pytest.approx(2.0001, abs=1e-8)
        assert c.l_F1 == pytest.approx(10.0, rel=1e-3)
        assert c.C_lambda == pytest.approx(16.0, rel=1e-3)

    def test_offset_frozen_values(self, zoo):
        c = zoo["scalar-offset"].local_constants()
        assert c.l_f0 == pytest.approx(4.0, abs=1e-12)
        assert c.l_g0 == pytest.approx(6.0, abs=1e-12)
        assert c.l_f1 == pytest.approx(1.0, abs=1e-12)

    def test_conditioned_spectrum(self, zoo):
        eigs = np.linalg.eigvalsh(zoo["conditioned-3d"].A_g)
        assert eigs[0] == pytest.approx(1.0, rel=1e-10)
        assert eigs[-1] / eigs[0] == pytest.approx(10.0, rel=1e-10)

    def test_gradient_bounds_cover_the_box(self, zoo):
        # l_f0 bounds both partial gradients of f, l_g0 that of g in x, at
        # every point of the declared box: vertices and interior alike
        rng = np.random.default_rng(0)
        for q in [*zoo.values(), make_quadratic((3, 4), seed=5)]:
            c = q.local_constants()
            (lx, hx), (ly, hy) = q.box_x, q.box_y
            for _ in range(200):
                corner = rng.random() < 0.5
                tx = rng.integers(0, 2, lx.size) if corner else rng.random(lx.size)
                ty = rng.integers(0, 2, ly.size) if corner else rng.random(ly.size)
                x, y = lx + tx * (hx - lx), ly + ty * (hy - ly)
                assert np.linalg.norm(q.grad_f_x_exact(x, y)) <= c.l_f0 + 1e-9
                assert np.linalg.norm(q.grad_f_y_exact(x, y)) <= c.l_f0 + 1e-9
                assert np.linalg.norm(q.grad_g_x_exact(x, y)) <= c.l_g0 + 1e-9

    def test_noise_levels_pass_through(self, canonical):
        c = canonical.local_constants(sigma_f=0.3, sigma_g=0.7)
        assert c.sigma_f == 0.3 and c.sigma_g == 0.7
        assert c.M >= c.l_g0**2 + 0.49


class TestRandomInstances:
    def test_deterministic_in_seed(self):
        q1 = make_quadratic((3, 4), seed=11)
        q2 = make_quadratic((3, 4), seed=11)
        for field in ("A_f", "B_f", "C_f", "a_f", "b_f", "A_g", "P", "p"):
            assert np.array_equal(getattr(q1, field), getattr(q2, field))
        q3 = make_quadratic((3, 4), seed=12)
        assert not np.array_equal(q1.A_g, q3.A_g)

    def test_dimensions_and_spectrum(self):
        q = make_quadratic((2, 5), seed=3, conditioning=25.0)
        assert q.dim_x == 2 and q.dim_y == 5
        assert q.P.shape == (5, 2) and q.C_f.shape == (2, 5)
        eigs = np.linalg.eigvalsh(q.A_g)
        assert np.allclose(eigs, np.geomspace(1.0, 25.0, 5), rtol=1e-9)
        H, _, _ = q.hyper_matrices()
        assert np.linalg.eigvalsh(0.5 * (H + H.T))[0] > 0.1

    def test_large_instance_builds(self):
        prob = make_quadratic((32, 32), seed=0).to_problem()
        assert prob.dim_x == prob.dim_y == 32
        c = prob.constants
        assert np.isfinite(c.l_f0) and np.isfinite(c.l_g0)

    def test_conditioning_below_one_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_quadratic((2, 2), seed=0, conditioning=0.5)

    def test_hypergradient_matches_solve_path(self, rng):
        for seed in range(5):
            q = make_quadratic((2, 3), seed=seed)
            prob = q.to_problem()
            for _ in range(4):
                x = rng.uniform(-2, 2, size=2)
                got = exact_hypergradient(prob, x, q.y_star(x))
                assert np.linalg.norm(got - q.grad_F(x)) <= 1e-10


class TestProblemWrapping:
    def test_regime_inference(self, canonical):
        assert canonical.to_problem().noise_regime is NoiseRegime.DETERMINISTIC
        assert (canonical.to_problem(sigma_f=0.1).noise_regime
                is NoiseRegime.UPPER_ONLY)
        assert (canonical.to_problem(sigma_f=0.1, sigma_g=0.1).noise_regime
                is NoiseRegime.BOTH_NOISY)

    def test_token_free_calls_are_exact(self, canonical):
        prob = canonical.to_problem(sigma_f=0.5, sigma_g=0.5)
        x, y = np.array([1.0]), np.array([2.0])
        assert prob.grad_f_y(x, y, None) == pytest.approx(2.0)
        assert prob.grad_g_x(x, y, None) == pytest.approx(-1.0)

    def test_token_replay_and_channel_independence(self, canonical, rng):
        prob = canonical.to_problem(sigma_f=0.5, sigma_g=0.5)
        x, y = np.array([0.3]), np.array([-0.2])
        tok = draw_token(rng, 4)
        a = prob.grad_g_y(x, y, tok)
        b = prob.grad_g_y(x, y, tok)
        assert np.array_equal(a, b)
        # same token on a different channel must not reuse the same noise
        gy_noise = float((a - prob.grad_g_y(x, y, None))[0])
        fy_noise = float((prob.grad_f_y(x, y, tok) - prob.grad_f_y(x, y, None))[0])
        assert fy_noise != pytest.approx(gy_noise, abs=1e-12)

    def test_analytics_and_solvers_agree(self, zoo):
        q = zoo["coupled-2d"]
        prob = q.to_problem()
        x = np.array([0.4, -0.7])
        assert np.allclose(solve_lower_level(prob, x), q.y_star(x), atol=1e-12)
        assert np.allclose(solve_penalized(prob, x, 6.0),
                           q.y_star_lambda(x, 6.0), atol=1e-12)


# The exact oracles written with ``@``: the package writes them with
# ``ndarray.dot`` and must match these bit for bit.
MATMUL_FORMULAS = {
    "grad_f_x": lambda q, x, y: q.B_f @ x + q.C_f @ y + q.a_f,
    "grad_f_y": lambda q, x, y: q.A_f @ y + q.C_f.T @ x + q.b_f,
    "grad_g_x": lambda q, x, y: -(q.P.T @ (q.A_g @ (y - q.P @ x - q.p))),
    "grad_g_y": lambda q, x, y: q.A_g @ (y - q.P @ x - q.p),
}


@pytest.mark.parametrize(
    "quad", list(builtin_zoo().values())
    + [make_quadratic(dims, seed=0) for dims in ((1, 1), (2, 3), (8, 8))],
    ids=lambda q: q.name)
class TestExactOraclesBitwise:
    def test_exact_oracles_equal_matmul_formulas(self, quad):
        rng = np.random.default_rng(21)
        for _ in range(200):
            x = 3.0 * rng.standard_normal(quad.dim_x)
            y = 3.0 * rng.standard_normal(quad.dim_y)
            for attr, formula in MATMUL_FORMULAS.items():
                got = getattr(quad, attr + "_exact")(x, y)
                assert got.tobytes() == formula(quad, x, y).tobytes(), attr

    def test_noise_free_channels_take_a_token(self, quad):
        rng = np.random.default_rng(22)
        tok = draw_token(rng)
        # upper-only noise leaves the g channels noise-free
        for prob, exact in ((quad.to_problem(), MATMUL_FORMULAS),
                            (quad.to_problem(sigma_f=0.3),
                             ("grad_g_x", "grad_g_y"))):
            for _ in range(20):
                x = rng.standard_normal(quad.dim_x)
                y = rng.standard_normal(quad.dim_y)
                for attr in exact:
                    got = getattr(prob, attr)(x, y, tok)
                    want = getattr(quad, attr + "_exact")(x, y)
                    assert got.tobytes() == want.tobytes(), attr


def _max_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# non-symmetric C_f and P (dim_x != dim_y) expose a transposed product
@pytest.mark.parametrize(
    "quad", [make_quadratic((3, 2), seed=4), make_quadratic((2, 5), seed=5),
             builtin_zoo()["coupled-2d"], builtin_zoo()["conditioned-3d"]],
    ids=lambda q: q.name)
class TestReplicateRows:
    def test_rows_equal_per_row_calls(self, quad):
        rng = np.random.default_rng(31)
        X = 2.0 * rng.standard_normal((7, quad.dim_x))
        Y = 2.0 * rng.standard_normal((7, quad.dim_y))
        lam = 3.0 * quad.local_constants().lambda_min
        forms = {
            "grad_f_x": quad.grad_f_x_exact, "grad_f_y": quad.grad_f_y_exact,
            "grad_g_x": quad.grad_g_x_exact, "grad_g_y": quad.grad_g_y_exact,
            "f_value": quad.f_value, "g_value": quad.g_value,
            "y_star": lambda x, y: quad.y_star(x),
            "y_star_lambda": lambda x, y: quad.y_star_lambda(x, lam),
            "grad_F": lambda x, y: quad.grad_F(x),
            "F_value": lambda x, y: quad.F_value(x),
        }
        for name, form in forms.items():
            rows = form(X, Y)
            each = np.array([form(x, y) for x, y in zip(X, Y)])
            assert rows.shape == each.shape, name
            assert _max_rel(rows, each) <= 1e-12, name

    def test_vector_closed_forms_keep_their_bits(self, quad):
        rng = np.random.default_rng(32)
        H, c, _ = quad.hyper_matrices()
        lam = 3.0 * quad.local_constants().lambda_min
        cho = np.linalg.cholesky(quad.A_f + lam * quad.A_g)
        for _ in range(50):
            x = 2.0 * rng.standard_normal(quad.dim_x)
            ys = quad.P @ x + quad.p
            rhs = lam * (quad.A_g @ ys) - quad.C_f.T @ x - quad.b_f
            F = float(0.5 * ys @ quad.A_f @ ys + 0.5 * x @ quad.B_f @ x
                      + x @ quad.C_f @ ys + quad.a_f @ x + quad.b_f @ ys)
            assert quad.y_star(x).tobytes() == ys.tobytes()
            assert quad.grad_F(x).tobytes() == (H @ x + c).tobytes()
            assert quad.y_star_lambda(x, lam).tobytes() == np.linalg.solve(
                cho.T, np.linalg.solve(cho, rhs)).tobytes()
            assert quad.F_value(x) == F
            y = 2.0 * rng.standard_normal(quad.dim_y)
            r = y - quad.P @ x - quad.p
            assert quad.g_value(x, y) == float(0.5 * r @ quad.A_g @ r)
