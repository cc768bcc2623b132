"""Label-noise cleaning problem: data generation, oracles, baselines."""

import warnings

import numpy as np
import pytest

from fosbo.errors import InvalidArgumentError, PreconditionViolation
from fosbo.f2sa import f2sa_run
from fosbo.oracles import NoiseRegime, draw_token, token_rng
from fosbo.problems import (HypercleaningProblem, corrupt_labels,
                            hypercleaning_oracles,
                            make_synthetic_hypercleaning, nobo_baseline_run)
from fosbo.problems.hypercleaning import _sigmoid
from fosbo.reference import finite_difference_grad
from fosbo.schedule import Algorithm, ScheduleParams


@pytest.fixture(scope="module")
def tiny():
    return make_synthetic_hypercleaning(n_train=24, n_val=16, num_classes=3,
                                        dim=4, corruption=0.25, seed=5)


@pytest.fixture(scope="module")
def toy():
    """Three 2-feature binary examples with everything hand-computable."""
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return HypercleaningProblem(
        X_train=X, y_train=np.array([0, 1, 0]), y_clean=np.array([0, 1, 0]),
        corrupt_mask=np.zeros(3, dtype=bool),
        X_val=np.array([[1.0, 0.0], [0.0, 1.0]]), y_val=np.array([0, 1]),
        num_classes=2, reg=0.01)


class TestCorruption:
    def test_zero_probability_is_identity(self):
        labels = np.arange(10) % 4
        out, mask = corrupt_labels(labels, 0.0, 4, seed=0)
        assert np.array_equal(out, labels)
        assert not mask.any()

    def test_fraction_and_validity(self):
        labels = np.random.default_rng(1).integers(0, 5, size=10_000)
        out, mask = corrupt_labels(labels, 0.3, 5, seed=2)
        assert 0.28 <= mask.mean() <= 0.32
        assert np.all(out[mask] != labels[mask])
        assert np.array_equal(out[~mask], labels[~mask])
        assert out.min() >= 0 and out.max() < 5

    def test_seed_reproducible(self):
        labels = np.arange(100) % 3
        a = corrupt_labels(labels, 0.5, 3, seed=9)
        b = corrupt_labels(labels, 0.5, 3, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_invalid_arguments(self):
        labels = np.array([0, 1])
        with pytest.raises(InvalidArgumentError):
            corrupt_labels(labels, 1.0, 2, seed=0)
        with pytest.raises(InvalidArgumentError):
            corrupt_labels(labels, -0.1, 2, seed=0)
        with pytest.raises(InvalidArgumentError):
            corrupt_labels(labels, 0.2, 1, seed=0)
        with pytest.raises(InvalidArgumentError):
            corrupt_labels(np.array([0, 3]), 0.2, 3, seed=0)


class TestSyntheticData:
    def test_shapes_and_mask(self):
        data = make_synthetic_hypercleaning(n_train=50, n_val=20,
                                            num_classes=4, dim=6,
                                            corruption=0.3, seed=1)
        assert data.X_train.shape == (50, 6)
        assert data.X_val.shape == (20, 6)
        assert data.n_train == 50 and data.n_val == 20
        assert data.dim_weights == 24
        assert np.array_equal(data.y_train != data.y_clean, data.corrupt_mask)

    def test_validation_errors(self):
        with pytest.raises(InvalidArgumentError):
            make_synthetic_hypercleaning(n_train=0)
        with pytest.raises(InvalidArgumentError):
            make_synthetic_hypercleaning(reg=0.0)


class TestOracleExactness:
    def test_toy_gradient_by_hand(self, toy):
        prob = hypercleaning_oracles(toy, batch_size=1)
        x = np.zeros(3)
        y = np.zeros(4)
        # uniform softmax, sigmoid weights 1/2: per-class feature sums / 6
        want = np.array([-1.0, 0.0, 1.0, 0.0]) / 6.0
        assert np.allclose(prob.grad_g_y(x, y, None), want, atol=1e-12)
        want_x = np.full(3, np.log(2.0) / 12.0)
        assert np.allclose(prob.grad_g_x(x, y, None), want_x, atol=1e-12)
        assert prob.grad_f_x(x, y, None) == pytest.approx(np.zeros(3))
        assert prob.value_f(x, y) == pytest.approx(np.log(2.0), abs=1e-14)

    def test_gradients_match_finite_differences(self, tiny):
        prob = hypercleaning_oracles(tiny, batch_size=8)
        rng = np.random.default_rng(0)
        x = rng.normal(0, 0.5, size=tiny.n_train)
        y = rng.normal(0, 0.3, size=tiny.dim_weights)
        fd_gy = finite_difference_grad(lambda v: prob.value_g(x, v), y, h=1e-6)
        assert np.allclose(prob.grad_g_y(x, y, None), fd_gy, atol=1e-7)
        fd_gx = finite_difference_grad(lambda v: prob.value_g(v, y), x, h=1e-6)
        assert np.allclose(prob.grad_g_x(x, y, None), fd_gx, atol=1e-7)
        fd_fy = finite_difference_grad(lambda v: prob.value_f(x, v), y, h=1e-6)
        assert np.allclose(prob.grad_f_y(x, y, None), fd_fy, atol=1e-7)

    def test_second_order_matches_finite_differences(self, tiny):
        prob = hypercleaning_oracles(tiny, batch_size=8)
        rng = np.random.default_rng(3)
        x = rng.normal(0, 0.5, size=tiny.n_train)
        y = rng.normal(0, 0.3, size=tiny.dim_weights)
        H = prob.second_order.hess_g_yy(x, y)
        assert np.allclose(H, H.T, atol=1e-12)
        h = 1e-6
        for j in (0, 5, 11):
            e = np.zeros_like(y)
            e[j] = h
            col = (prob.grad_g_y(x, y + e, None)
                   - prob.grad_g_y(x, y - e, None)) / (2 * h)
            assert np.allclose(H[:, j], col, atol=1e-6)
        J = prob.second_order.jac_g_xy(x, y)
        for i in (0, 7):
            e = np.zeros_like(x)
            e[i] = h
            row = (prob.grad_g_y(x + e, y, None)
                   - prob.grad_g_y(x - e, y, None)) / (2 * h)
            assert np.allclose(J[i], row, atol=1e-6)

    @pytest.mark.parametrize("shape", [(24, 3, 4), (300, 4, 16)])
    def test_hessian_matches_einsum(self, shape):
        n, C, d = shape
        data = make_synthetic_hypercleaning(n_train=n, n_val=16,
                                            num_classes=C, dim=d, seed=8)
        prob = hypercleaning_oracles(data, batch_size=8)
        rng = np.random.default_rng(6)
        x = rng.normal(size=n)
        y = rng.normal(0, 0.3, size=C * d)
        # sum_i w_i (diag(p_i) - p_i p_i') kron x_i x_i' + 2 reg I, written
        # out per index
        logits = data.X_train @ y.reshape(C, d).T
        P = np.exp(logits - logits.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        w = 1.0 / (1.0 + np.exp(-x)) / n
        S = np.einsum("ia,ab->iab", P, np.eye(C)) - P[:, :, None] * P[:, None, :]
        want = np.einsum("i,iab,ic,ie->acbe", w, S, data.X_train,
                         data.X_train).reshape(C * d, C * d)
        want += 2.0 * data.reg * np.eye(C * d)
        got = prob.second_order.hess_g_yy(x, y)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_curvature_floor(self, tiny):
        prob = hypercleaning_oracles(tiny, batch_size=8)
        rng = np.random.default_rng(4)
        x = rng.normal(size=tiny.n_train)
        y = rng.normal(0, 0.5, size=tiny.dim_weights)
        H = prob.second_order.hess_g_yy(x, y)
        for _ in range(50):
            v = rng.normal(size=tiny.dim_weights)
            assert v @ H @ v >= 2 * tiny.reg * (v @ v) - 1e-9

    def test_negative_scores_remove_examples(self, toy):
        prob = hypercleaning_oracles(toy, batch_size=1)
        y = np.random.default_rng(6).normal(size=4)
        muted = prob.value_g(np.full(3, -40.0), y)
        assert muted == pytest.approx(toy.reg * float(y @ y), abs=1e-12)


class TestMinibatching:
    def test_full_batch_token_is_exact_pass(self, tiny):
        prob = hypercleaning_oracles(tiny, batch_size=16)
        rng = np.random.default_rng(7)
        x = rng.normal(size=tiny.n_train)
        y = rng.normal(size=tiny.dim_weights)
        tok = draw_token(rng, 2)  # 16 * 2 covers both splits entirely
        assert np.array_equal(prob.grad_f_y(x, y, tok),
                              prob.grad_f_y(x, y, None))
        assert np.array_equal(prob.grad_g_y(x, y, tok),
                              prob.grad_g_y(x, y, None))

    def test_token_replay(self, tiny):
        prob = hypercleaning_oracles(tiny, batch_size=4)
        rng = np.random.default_rng(8)
        x = rng.normal(size=tiny.n_train)
        y = rng.normal(size=tiny.dim_weights)
        tok = draw_token(rng, 1)
        assert np.array_equal(prob.grad_g_y(x, y, tok),
                              prob.grad_g_y(x, y, tok))
        tok2 = draw_token(rng, 1)
        assert not np.array_equal(prob.grad_g_y(x, y, tok),
                                  prob.grad_g_y(x, y, tok2))

    def test_minibatch_unbiasedness(self, tiny):
        prob = hypercleaning_oracles(tiny, batch_size=4)
        rng = np.random.default_rng(2024)
        x = rng.normal(0, 0.5, size=tiny.n_train)
        y = rng.normal(0, 0.3, size=tiny.dim_weights)
        exact = prob.grad_g_y(x, y, None)
        draws = np.stack([prob.grad_g_y(x, y, draw_token(rng, 1))
                          for _ in range(600)])
        z = (draws.mean(axis=0) - exact) / (draws.std(axis=0, ddof=1)
                                            / np.sqrt(draws.shape[0]))
        assert float(np.max(np.abs(z))) < 4.0

    def test_batch_size_validation(self, tiny):
        with pytest.raises(InvalidArgumentError):
            hypercleaning_oracles(tiny, batch_size=0)
        with pytest.raises(InvalidArgumentError):
            hypercleaning_oracles(tiny, batch_size=17)  # n_val is 16


def _rowmajor_softmax_ce(W, X, labels):
    """The (n, C) formulas the class-major oracles must reproduce bitwise."""
    logits = X @ W.T
    m = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - m)
    Z = ex.sum(axis=1)
    P = ex / Z[:, None]
    losses = np.log(Z) + m[:, 0] - logits[np.arange(X.shape[0]), labels]
    return P, losses


def _rowmajor_residual(W, X, labels):
    P, _ = _rowmajor_softmax_ce(W, X, labels)
    R = P.copy()
    R[np.arange(X.shape[0]), labels] -= 1.0
    return R


def _rowmajor_grad_W(W, X, labels, weights):
    R = _rowmajor_residual(W, X, labels)
    return ((R * weights[:, None]).T @ X).ravel()


def _rowmajor_grads(data, x, y, rows):
    """grad_f_y, grad_g_y and grad_g_x by the row-major formulas; ``rows``
    maps each channel to its minibatch indices, or to None for the exact
    pass over the whole split."""
    Xt, yt, Xv, yv = data.X_train, data.y_train, data.X_val, data.y_val
    n, m, reg = data.n_train, data.n_val, data.reg
    W = y.reshape(data.num_classes, data.dim_features)
    s = _two_branch_sigmoid(x)
    out = {}
    idx = rows["fy"]
    out["grad_f_y"] = (
        _rowmajor_grad_W(W, Xv, yv, np.full(m, 1.0 / m)) if idx is None else
        _rowmajor_grad_W(W, Xv[idx], yv[idx], np.full(idx.size, 1.0 / idx.size)))
    idx = rows["gy"]
    out["grad_g_y"] = (
        _rowmajor_grad_W(W, Xt, yt, s / n) if idx is None else
        _rowmajor_grad_W(W, Xt[idx], yt[idx], s[idx] / idx.size)) + 2.0 * reg * y
    idx = rows["gx"]
    if idx is None:
        _, lt = _rowmajor_softmax_ce(W, Xt, yt)
        out["grad_g_x"] = s * (1.0 - s) * lt / n
    else:
        _, lb = _rowmajor_softmax_ce(W, Xt[idx], yt[idx])
        out["grad_g_x"] = np.zeros(n)
        np.add.at(out["grad_g_x"], idx, s[idx] * (1.0 - s[idx]) * lb / idx.size)
    return out


def _two_branch_sigmoid(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


class TestClassMajorLayout:
    """The oracles keep per-example arrays as (C, n); every output must
    equal the row-major formulas bit for bit."""

    @pytest.fixture(scope="class", params=[0, 1])
    def data(self, request):
        return make_synthetic_hypercleaning(seed=request.param)

    @pytest.fixture(params=[0.0, 0.3, 30.0])
    def point(self, request, data):
        rng = np.random.default_rng(int(request.param * 10) + 17)
        x = rng.normal(0.0, 3.0, size=data.n_train)
        y = request.param * rng.normal(size=data.dim_weights)
        if request.param == 30.0:
            # past exp's overflow point: dropping the max shift gives inf/nan
            W = y.reshape(data.num_classes, data.dim_features)
            assert np.abs(data.X_train @ W.T).max() > 710.0
        return x, y

    def test_gradients_exact_and_minibatch(self, data, point):
        x, y = point
        prob = hypercleaning_oracles(data, batch_size=50)
        exact = dict.fromkeys(("fy", "gy", "gx"))
        for name, want in _rowmajor_grads(data, x, y, exact).items():
            assert np.array_equal(getattr(prob, name)(x, y, None), want)
        tok = draw_token(np.random.default_rng(3), 1)
        rows = {ch: token_rng(tok, ch).integers(0, count, size=50)
                for ch, count in (("fy", data.n_val), ("gy", data.n_train),
                                  ("gx", data.n_train))}
        for name, want in _rowmajor_grads(data, x, y, rows).items():
            assert np.array_equal(getattr(prob, name)(x, y, tok), want)

    @pytest.mark.parametrize("oracle_b, token_b", [(50, 40), (1, 7), (50, 7)])
    def test_token_paths(self, data, point, oracle_b, token_b):
        # a token draws oracle_b * token_b rows: 2000 cover both splits
        # (the exact pass through a token), 7 cover neither, and 350 cover
        # the 200 validation rows but draw the training rows with repeats
        x, y = point
        prob = hypercleaning_oracles(data, batch_size=oracle_b)
        tok = draw_token(np.random.default_rng(5), token_b)
        size = oracle_b * token_b
        rows = {ch: None if size >= count
                else token_rng(tok, ch).integers(0, count, size=size)
                for ch, count in (("fy", data.n_val), ("gy", data.n_train),
                                  ("gx", data.n_train))}
        if size == 2000:
            assert all(r is None for r in rows.values())
        if size == 350:
            assert rows["fy"] is None
            # the scatter-add must accumulate a repeated index
            assert np.unique(rows["gx"]).size < size
        for name, want in _rowmajor_grads(data, x, y, rows).items():
            assert np.array_equal(getattr(prob, name)(x, y, tok), want)

    def test_values_and_second_order(self, data, point):
        x, y = point
        prob = hypercleaning_oracles(data, batch_size=50)
        Xt, yt = data.X_train, data.y_train
        n, reg = data.n_train, data.reg
        C, d = data.num_classes, data.dim_features
        W = y.reshape(C, d)
        s = _two_branch_sigmoid(x)
        P, lt = _rowmajor_softmax_ce(W, Xt, yt)
        _, lv = _rowmajor_softmax_ce(W, data.X_val, data.y_val)
        assert prob.value_f(x, y) == float(lv.mean())
        assert prob.value_g(x, y) == float(s @ lt / n + reg * (y @ y))

        w = s / n
        H = 2.0 * reg * np.eye(C * d)
        for a in range(C):
            for b in range(C):
                v = w * P[:, a] * ((a == b) - P[:, b])
                H[a * d:(a + 1) * d, b * d:(b + 1) * d] += (Xt * v[:, None]).T @ Xt
        assert np.array_equal(prob.second_order.hess_g_yy(x, y), H)
        J = np.einsum("i,ia,ic->iac", s * (1.0 - s) / n,
                      _rowmajor_residual(W, Xt, yt), Xt).reshape(n, C * d)
        assert np.array_equal(prob.second_order.jac_g_xy(x, y), J)

    def test_nobo_run(self, data):
        K, seed, alpha, b = 30, 4, 0.5, 50
        res = nobo_baseline_run(data, K=K, seed=seed, alpha=alpha,
                                batch_size=b, checkpoint_every=10)
        Xt, yt, reg = data.X_train, data.y_train, data.reg
        C, d = data.num_classes, data.dim_features
        rng = np.random.default_rng(seed)
        w = np.zeros(C * d)
        for _ in range(K):
            idx = rng.integers(0, data.n_train, size=b)
            gb = _rowmajor_grad_W(w.reshape(C, d), Xt[idx], yt[idx],
                                  np.full(b, 1.0 / b))
            w = w - alpha * (gb + 2.0 * reg * w)
        assert np.array_equal(res.y_final, w)
        _, lt = _rowmajor_softmax_ce(w.reshape(C, d), Xt, yt)
        _, lv = _rowmajor_softmax_ce(w.reshape(C, d), data.X_val, data.y_val)
        assert res.series["train_loss"][-1] == float(lt.mean() + reg * (w @ w))
        assert res.series["val_loss"][-1] == float(lv.mean())

    def test_sigmoid_edges(self):
        t = np.array([1e3, -1e3, 0.0, -0.0, np.nan, 2.5, -2.5, 40.0, -40.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = _sigmoid(t)
        assert np.array_equal(out, _two_branch_sigmoid(t), equal_nan=True)
        assert out[0] == 1.0 and out[1] == 0.0 and out[2] == out[3] == 0.5


class TestBaselines:
    def test_nobo_reduces_validation_loss(self):
        data = make_synthetic_hypercleaning(n_train=300, n_val=100, dim=8,
                                            num_classes=3, corruption=0.3,
                                            seed=2)
        res = nobo_baseline_run(data, K=1500, seed=0, alpha=0.3)
        val = res.series["val_loss"]
        assert res.algorithm == "NoBO"
        assert val[-1] < 0.7 * val[0]
        assert np.isnan(res.lambda_final)

    def test_nobo_validation(self, tiny):
        with pytest.raises(InvalidArgumentError):
            nobo_baseline_run(tiny, K=-1, seed=0)
        with pytest.raises(PreconditionViolation):
            nobo_baseline_run(tiny, K=5, seed=0, alpha=0.0)
        with pytest.raises(InvalidArgumentError):
            nobo_baseline_run(tiny, K=0, seed=0, batch_size=0)


class TestCleaningEndToEnd:
    def test_scores_separate_corrupt_from_clean(self):
        data = make_synthetic_hypercleaning(n_train=600, n_val=150, dim=12,
                                            num_classes=4, corruption=0.3,
                                            seed=3)
        prob = hypercleaning_oracles(data, batch_size=50)
        params = ScheduleParams(
            algorithm=Algorithm.F2SA, noise_regime=NoiseRegime.BOTH_NOISY,
            a=0.0, c=0.0, k0=1, lambda0=2.0, xi=1.0, T=1,
            c_alpha=0.01, c_gamma=0.02, mu_g=prob.constants.mu_g)
        with pytest.warns(RuntimeWarning):  # coarse attached constants
            res = f2sa_run(prob, params, K=4000, seed=0, batch_size=50,
                           check_constants=False)
        scores = res.x_final
        gap = scores[~data.corrupt_mask].mean() - scores[data.corrupt_mask].mean()
        assert gap > 0.01
        val = res.series["val_loss"]
        assert val[-1] < val[0]
