"""Sample tokens, noise channels, regularity constants, oracle evaluation."""

import sys
import threading

import numpy as np
import pytest

from fosbo.errors import InvalidArgumentError
from fosbo.oracles import (NoiseRegime, RegularityConstants, draw_token,
                           gaussian_noise, token_rng)


class TestTokens:
    def test_draw_token_deterministic(self):
        a = [draw_token(np.random.default_rng(9)) for _ in range(5)]
        b = [draw_token(np.random.default_rng(9)) for _ in range(5)]
        assert [t.key for t in a] == [t.key for t in b]

    def test_draw_token_batch(self, rng):
        assert draw_token(rng, 4).batch_size == 4
        with pytest.raises(InvalidArgumentError):
            draw_token(rng, 0)

    def test_token_frozen(self, rng):
        tok = draw_token(rng)
        with pytest.raises(Exception):
            tok.key = 1

    def test_channels_independent_but_replayable(self, rng):
        tok = draw_token(rng)
        a1 = token_rng(tok, "fy").normal(size=3)
        a2 = token_rng(tok, "fy").normal(size=3)
        b = token_rng(tok, "gy").normal(size=3)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_keyed_draws_uncorrelated(self):
        # first draws of N tokens: the same token's fy and gy samples, and
        # consecutive tokens' samples, must look independent.  |corr| of N
        # independent pairs has standard deviation 1/sqrt(N).
        n = 20_000
        stream = np.random.default_rng(2024)
        toks = [draw_token(stream) for _ in range(n)]
        fy = np.array([token_rng(t, "fy").standard_normal() for t in toks])
        gy = np.array([token_rng(t, "gy").standard_normal() for t in toks])
        bound = 4 / np.sqrt(n)
        assert abs(np.corrcoef(fy, gy)[0, 1]) < bound
        assert abs(np.corrcoef(fy[:-1], fy[1:])[0, 1]) < bound
        assert abs(np.corrcoef(gy[:-1], gy[1:])[0, 1]) < bound

    def test_draws_independent_of_call_order(self, rng):
        t1, t2 = draw_token(rng), draw_token(rng)
        a1 = gaussian_noise(t1, "gx", 5, 1.0)
        a2 = gaussian_noise(t2, "gx", 5, 1.0)
        b2 = gaussian_noise(t2, "gx", 5, 1.0)
        b1 = gaussian_noise(t1, "gx", 5, 1.0)
        assert np.array_equal(a1, b1) and np.array_equal(a2, b2)
        # a partly consumed stream does not leak into the next token's draw
        token_rng(t2, "fy").random(3)
        assert np.array_equal(gaussian_noise(t1, "gx", 5, 1.0), a1)

    def test_threads_draw_what_one_thread_draws(self, rng):
        # each thread re-keys its own generator: interleaved threads must
        # reproduce the serial samples bitwise
        toks = [draw_token(rng) for _ in range(300)]
        serial = [gaussian_noise(t, "fy", 4, 1.0) for t in toks]
        results = [None] * 6

        def work(i):
            results[i] = [gaussian_noise(t, "fy", 4, 1.0) for t in toks]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        for got in results:
            assert all(np.array_equal(a, b) for a, b in zip(got, serial))


class TestGaussianNoise:
    def test_zero_sigma_is_zeros(self, rng):
        tok = draw_token(rng)
        assert np.all(gaussian_noise(tok, "fy", 4, 0.0) == 0.0)

    def test_replay_bitwise(self, rng):
        tok = draw_token(rng)
        assert np.array_equal(gaussian_noise(tok, "gx", 6, 0.3),
                              gaussian_noise(tok, "gx", 6, 0.3))

    def test_second_moment_matches_sigma(self, rng):
        # E ||noise||^2 = sigma^2 / batch regardless of dimension
        sigma = 0.5
        for dim, batch in ((1, 1), (7, 1), (3, 4)):
            total = 0.0
            for _ in range(4000):
                n = gaussian_noise(draw_token(rng, batch), "fy", dim, sigma)
                total += float(n @ n)
            mean_sq = total / 4000
            assert mean_sq == pytest.approx(sigma ** 2 / batch, rel=0.1)

    def test_variance_not_above_declared(self, rng):
        # declared sigma is an upper bound on the per-draw noise magnitude
        sigma = 0.2
        sq = [float(np.sum(gaussian_noise(draw_token(rng), "gy", 5, sigma) ** 2))
              for _ in range(3000)]
        assert np.mean(sq) <= sigma ** 2 * 1.2


class TestNoiseRegime:
    def test_flags(self):
        assert NoiseRegime.BOTH_NOISY.f_noisy and NoiseRegime.BOTH_NOISY.g_noisy
        assert NoiseRegime.UPPER_ONLY.f_noisy
        assert not NoiseRegime.UPPER_ONLY.g_noisy
        assert not NoiseRegime.DETERMINISTIC.f_noisy
        assert not NoiseRegime.DETERMINISTIC.g_noisy

    def test_values(self):
        assert NoiseRegime("BothNoisy") is NoiseRegime.BOTH_NOISY
        assert NoiseRegime("UpperOnly") is NoiseRegime.UPPER_ONLY
        assert NoiseRegime("Deterministic") is NoiseRegime.DETERMINISTIC


class TestRegularityConstants:
    def make(self, **kw):
        base = dict(l_f0=2.0, l_f1=1.0, l_g0=4.0, l_g1=2.0, mu_g=1.0)
        base.update(kw)
        return RegularityConstants(**base)

    def test_lambda_min(self):
        assert self.make().lambda_min == 2.0

    def test_default_penalized_lipschitz(self):
        c = self.make()
        # without a declared value, the generic bound 3 l_g1 / mu applies
        assert c.l_lambda0 == 6.0
        assert c.l_star0 == 7.0

    def test_declared_penalized_lipschitz(self):
        c = self.make(l_lambda0=1.0)
        assert c.l_star0 == 2.0
        assert c.l_F1 == pytest.approx(2.0 * (1.0 + 4.0))

    def test_declared_above_bound_rejected(self):
        with pytest.raises(InvalidArgumentError):
            self.make(l_lambda0=6.5)

    def test_bias_constant(self):
        c = self.make(l_lambda0=1.0)
        # (4 l_f0 l_g1 / mu^2) * (l_f1 + 2 l_f0 l_g2 / mu); second factor 1 here
        assert c.C_lambda == pytest.approx(16.0)
        c2 = self.make(l_lambda0=1.0, l_g2=1.0)
        assert c2.C_lambda == pytest.approx(16.0 * (1.0 + 4.0))

    def test_second_moment_bound(self):
        c = self.make(sigma_f=3.0)
        assert c.M == pytest.approx(max(4.0 + 9.0, 16.0))

    def test_hessian_lipschitz_aggregate(self):
        c = self.make(l_lambda0=1.0, l_g2=1.0)
        # 32 (l_g2 + l_f2 / lambda_min) l_g1^2 / mu^3
        assert c.l_star1 == pytest.approx(32.0 * 1.0 * 4.0)
        c2 = self.make(l_lambda0=1.0, l_g2=1.0, l_f2=2.0)
        assert c2.l_star1 == pytest.approx(32.0 * 2.0 * 4.0)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            self.make(mu_g=0.0)
        with pytest.raises(InvalidArgumentError):
            self.make(l_g1=0.5)  # smoothness below strong convexity
        with pytest.raises(InvalidArgumentError):
            self.make(l_f0=-1.0)


class TestEvalGrad:
    def test_frozen_values(self, canonical_problem):
        p = canonical_problem
        x1, y2 = np.array([1.0]), np.array([2.0])
        assert p.grad_f_y(x1, y2, None)[0] == pytest.approx(2.0)
        assert p.grad_g_y(x1, np.array([1.0]), None)[0] == pytest.approx(0.0)
        assert p.grad_g_y(np.array([0.5]), y2, None)[0] == pytest.approx(1.5)
        assert p.grad_f_x(x1, y2, None)[0] == pytest.approx(1.0)
        assert p.grad_g_x(x1, y2, None)[0] == pytest.approx(-1.0)

    def test_noisy_channel_uses_token(self, canonical, rng):
        prob = canonical.to_problem(sigma_f=0.5, sigma_g=0.5)
        x, y = np.array([0.3]), np.array([-0.2])
        tok = draw_token(rng)
        exact = canonical.grad_f_y_exact(x, y)
        noisy = prob.grad_f_y(x, y, tok)
        assert not np.array_equal(noisy, exact)
        assert np.array_equal(noisy, prob.grad_f_y(x, y, tok))
        assert np.array_equal(prob.grad_f_y(x, y, None), exact)
