"""Vectorized replicate sweeps against the per-seed solvers."""

import numpy as np
import pytest

from fosbo.batch import f2sa_run_batch, f3sa_run_batch
from fosbo.errors import InvalidArgumentError, NumericFailure
from fosbo.f2sa import f2sa_run, f2sa_step, init_state
from fosbo.f3sa import f3sa_run
from fosbo.schedule import Algorithm, default_params


@pytest.fixture(scope="module")
def offset():
    from fosbo.problems import builtin_zoo
    return builtin_zoo()["scalar-offset"]


def det_params(algorithm, consts):
    if algorithm is Algorithm.F2SA:
        return default_params(algorithm, consts, T=8, xi=0.9, k0=64,
                              c_alpha=1 / 32, c_gamma=1 / 32, lambda0=2.0,
                              a=1 / 3, c=0.0)
    return default_params(algorithm, consts, c_xi=2.0, k0=96,
                          c_gamma=1 / 32, c_alpha=(1 / 32) * 96 ** (1 / 3) / 2,
                          lambda0=2.0, a=1 / 3, c=0.0)


class TestAgainstScalarSolvers:
    def test_double_loop_matches_bitwise(self, offset):
        p = det_params(Algorithm.F2SA, offset.local_constants())
        scalar = f2sa_run(offset.to_problem(), p, K=300, seed=0,
                          x0=np.array([1.0]))
        batch = f2sa_run_batch(offset, p, K=300, n_runs=3, master_seed=0,
                               x0=np.array([1.0]))
        assert np.array_equal(batch.checkpoints, scalar.checkpoints)
        for col in range(3):
            assert batch.x_final[col] == scalar.x_final
            assert np.array_equal(batch.series["grad_F_sq"][:, col],
                                  scalar.series["grad_F_sq"])
        assert batch.lambda_final == scalar.lambda_final
        assert np.array_equal(batch.schedule_series["lambda"],
                              scalar.series["lambda"])

    def test_momentum_matches_bitwise(self, offset):
        p = det_params(Algorithm.F3SA, offset.local_constants())
        scalar = f3sa_run(offset.to_problem(), p, K=300, seed=0,
                          x0=np.array([1.0]))
        batch = f3sa_run_batch(offset, p, K=300, n_runs=2, master_seed=0,
                               x0=np.array([1.0]))
        assert batch.x_final[0] == scalar.x_final
        assert np.array_equal(batch.series["grad_F_sq"][:, 1],
                              scalar.series["grad_F_sq"])
        # y*_lam is one LU solve over all rows here and a Cholesky solve per
        # seed, so the distance to it agrees only to round-off
        assert np.allclose(batch.series["dist_y_sq"][:, 0],
                           scalar.series["dist_y_sq"], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("name", ["coupled-2d", "random-3x2"])
    def test_one_replicate_matches_multi_d(self, name):
        from fosbo.problems import builtin_zoo, make_quadratic
        quad = (make_quadratic((3, 2), seed=4) if name == "random-3x2"
                else builtin_zoo()[name])
        x0 = np.linspace(-1.0, 1.0, quad.dim_x)
        for alg, sweep, solo in ((Algorithm.F2SA, f2sa_run_batch, f2sa_run),
                                 (Algorithm.F3SA, f3sa_run_batch, f3sa_run)):
            p = default_params(alg, quad.local_constants())
            one = sweep(quad, p, K=200, n_runs=1, master_seed=0, x0=x0,
                        checkpoint_every=20)
            ref = solo(quad.to_problem(), p, K=200, seed=0, x0=x0,
                       checkpoint_every=20)
            for got, want in ((one.x_final[0], ref.x_final),
                              (one.series["grad_F_sq"][:, 0],
                               ref.series["grad_F_sq"])):
                gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert gap <= 1e-12, alg

    def test_x_R_snapshots_per_replicate(self, offset):
        p = det_params(Algorithm.F2SA, offset.local_constants())
        prob = offset.to_problem()
        batch = f2sa_run_batch(offset, p, K=40, n_runs=6, master_seed=5,
                               x0=np.array([1.0]))
        assert batch.R.shape == (6,)
        assert np.all((0 <= batch.R) & (batch.R < 40))
        # deterministic problem: recompute the iterate path once
        st = init_state(prob, p, seed=0, x0=np.array([1.0]))
        xs = [st.x.copy()]
        for _ in range(40):
            f2sa_step(st, prob, p)
            xs.append(st.x.copy())
        for col in range(6):
            assert batch.x_R[col] == xs[batch.R[col]]


class TestShapesAndStats:
    def test_series_layout(self, offset):
        p = det_params(Algorithm.F2SA, offset.local_constants())
        batch = f2sa_run_batch(offset, p, K=100, n_runs=7, master_seed=1,
                               sigma_f=0.1, sigma_g=0.1, x0=np.array([1.0]),
                               checkpoint_every=25)
        assert list(batch.checkpoints) == [0, 25, 50, 75, 100]
        assert batch.series["grad_F_sq"].shape == (5, 7)
        assert batch.seed_mean("grad_F_sq").shape == (5,)
        err = batch.seed_stderr("grad_F_sq")
        assert err.shape == (5,) and np.all(err >= 0)
        assert batch.x_final.shape == (7, 1)

    def test_single_replicate_stderr_is_zero(self, offset):
        p = det_params(Algorithm.F2SA, offset.local_constants())
        batch = f2sa_run_batch(offset, p, K=10, n_runs=1, master_seed=1)
        assert np.all(batch.seed_stderr("grad_F_sq") == 0)

    def test_replicates_differ_under_noise(self, offset):
        p = det_params(Algorithm.F2SA, offset.local_constants())
        batch = f2sa_run_batch(offset, p, K=50, n_runs=4, master_seed=3,
                               sigma_f=0.2, sigma_g=0.2, x0=np.array([1.0]))
        finals = batch.x_final.ravel()
        assert len(np.unique(finals)) == 4

    def test_master_seed_replay(self, offset):
        p = det_params(Algorithm.F2SA, offset.local_constants())
        kw = dict(K=50, n_runs=4, sigma_f=0.2, sigma_g=0.2,
                  x0=np.array([1.0]))
        b1 = f2sa_run_batch(offset, p, master_seed=3, **kw)
        b2 = f2sa_run_batch(offset, p, master_seed=3, **kw)
        assert np.array_equal(b1.x_final, b2.x_final)
        assert np.array_equal(b1.R, b2.R)


class TestValidation:
    def test_algorithm_mismatch(self, offset):
        consts = offset.local_constants()
        with pytest.raises(InvalidArgumentError):
            f2sa_run_batch(offset, det_params(Algorithm.F3SA, consts),
                           K=5, n_runs=2, master_seed=0)
        with pytest.raises(InvalidArgumentError):
            f3sa_run_batch(offset, det_params(Algorithm.F2SA, consts),
                           K=5, n_runs=2, master_seed=0)

    def test_budget_and_replicates(self, offset):
        p = det_params(Algorithm.F2SA, offset.local_constants())
        with pytest.raises(InvalidArgumentError):
            f2sa_run_batch(offset, p, K=-1, n_runs=2, master_seed=0)
        with pytest.raises(InvalidArgumentError):
            f2sa_run_batch(offset, p, K=5, n_runs=0, master_seed=0)

    def test_bad_x0_shape(self, offset):
        p = det_params(Algorithm.F2SA, offset.local_constants())
        with pytest.raises(InvalidArgumentError):
            f2sa_run_batch(offset, p, K=5, n_runs=2, master_seed=0,
                           x0=np.ones((3, 5)))

    def test_divergence_guard(self, offset):
        import dataclasses
        p = det_params(Algorithm.F2SA, offset.local_constants())
        wild = dataclasses.replace(p, c_alpha=1e9, c_gamma=1e10)
        with pytest.raises(NumericFailure):
            f2sa_run_batch(offset, wild, K=50, n_runs=2, master_seed=0,
                           x0=np.array([1.0]))


class TestNoisyBehavior:
    def test_mean_gradient_decreases(self, offset):
        consts = offset.local_constants(sigma_f=0.1, sigma_g=0.1)
        from fosbo.oracles import NoiseRegime
        p = default_params(Algorithm.F2SA, consts,
                           noise_regime=NoiseRegime.BOTH_NOISY, T=8, xi=0.9,
                           k0=64, c_gamma=(1 / 32) * 64 ** (4 / 7),
                           c_alpha=(1 / 32) * 64 ** (4 / 7) * 64 ** (1 / 7) / 4,
                           lambda0=2.0)
        batch = f2sa_run_batch(offset, p, K=3000, n_runs=10, master_seed=7,
                               sigma_f=0.1, sigma_g=0.1, x0=np.array([1.0]))
        m = batch.seed_mean("grad_F_sq")
        assert m[-1] < 0.05 * m[0]
