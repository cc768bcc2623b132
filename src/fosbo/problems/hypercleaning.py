"""Label-noise cleaning as a bilevel problem.

The lower level trains a linear softmax classifier on a label-corrupted
training set, with each example's loss weighted by a sigmoid of a
per-example score.  The upper level tunes those scores to minimize loss on
a small clean validation set.  Scores are the outer variable x (one per
training example), classifier weights are the inner variable y.

Stochastic oracles subsample minibatches; the sample token pins the
minibatch so replays and paired evaluations reuse identical indices.  The
upper objective does not depend on x directly, so grad_f_x is identically
zero and the entire cleaning signal flows through the lower-level coupling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError, PreconditionViolation
from ..oracles import (
    BilevelProblem,
    NoiseRegime,
    RegularityConstants,
    SampleToken,
    SecondOrderOracle,
    token_rng,
)
from ..runs import RunResult, drive


@dataclass(frozen=True)
class HypercleaningProblem:
    """Training/validation split with known corruption ground truth."""

    X_train: np.ndarray
    y_train: np.ndarray
    y_clean: np.ndarray
    corrupt_mask: np.ndarray
    X_val: np.ndarray
    y_val: np.ndarray
    num_classes: int
    reg: float

    @property
    def n_train(self) -> int:
        return self.X_train.shape[0]

    @property
    def n_val(self) -> int:
        return self.X_val.shape[0]

    @property
    def dim_features(self) -> int:
        return self.X_train.shape[1]

    @property
    def dim_weights(self) -> int:
        return self.num_classes * self.dim_features


def corrupt_labels(labels: np.ndarray, p: float, num_classes: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Flip each label with probability p to a uniform different class."""
    if not 0.0 <= p < 1.0:
        raise InvalidArgumentError(f"corruption probability {p} outside [0, 1)")
    if num_classes < 2:
        raise InvalidArgumentError("need at least two classes to corrupt")
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise InvalidArgumentError("labels outside [0, num_classes)")
    rng = np.random.default_rng(seed)
    mask = rng.random(labels.shape[0]) < p
    shift = rng.integers(1, num_classes, size=labels.shape[0])
    corrupted = labels.copy()
    corrupted[mask] = (labels[mask] + shift[mask]) % num_classes
    return corrupted, mask


def make_synthetic_hypercleaning(n_train: int = 2000, n_val: int = 200,
                                 num_classes: int = 4, dim: int = 16,
                                 corruption: float = 0.3, reg: float = 0.01,
                                 seed: int = 0,
                                 cluster_spread: float = 1.5) -> HypercleaningProblem:
    """Gaussian class clusters with corrupted training labels.

    Cluster means are drawn once from N(0, cluster_spread^2 I); examples get
    unit isotropic noise around their class mean.  Validation labels stay
    clean.
    """
    if n_train < 1 or n_val < 1 or dim < 1:
        raise InvalidArgumentError("dataset sizes must be positive")
    if reg <= 0:
        raise InvalidArgumentError("reg must be positive for a strongly convex lower level")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, cluster_spread, size=(num_classes, dim))
    y_clean = rng.integers(0, num_classes, size=n_train)
    X_train = means[y_clean] + rng.normal(size=(n_train, dim))
    y_val = rng.integers(0, num_classes, size=n_val)
    X_val = means[y_val] + rng.normal(size=(n_val, dim))
    y_train, mask = corrupt_labels(y_clean, corruption, num_classes,
                                   seed=seed + 1)
    return HypercleaningProblem(X_train=X_train, y_train=y_train, y_clean=y_clean,
                             corrupt_mask=mask, X_val=X_val, y_val=y_val,
                             num_classes=num_classes, reg=reg)


# Per-example arrays are class-major, (C, n): numpy reduces slowly over a
# short inner axis, so max and sum run over axis 0 of C long rows instead.
def _softmax_ce(W: np.ndarray, X: np.ndarray, labels: np.ndarray,
                cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax probabilities (C, n) and cross-entropy losses (n,);
    ``cols`` is ``np.arange(n)``."""
    logits = W @ X.T
    m = logits.max(axis=0)
    ex = np.exp(logits - m)
    Z = ex.sum(axis=0)
    P = ex / Z
    losses = np.log(Z) + m - logits[labels, cols]
    return P, losses


def _ce_grad_W(W, X, labels, cols, weights):
    """Weighted sum of per-example cross-entropy gradients, flattened."""
    R, _ = _softmax_ce(W, X, labels, cols)
    R[labels, cols] -= 1.0
    return ((R * weights) @ X).ravel()


def _sigmoid(t):
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def hypercleaning_oracles(data: HypercleaningProblem,
                          batch_size: int = 50) -> BilevelProblem:
    """Stochastic first-order oracles for the cleaning problem.

    Minibatches are drawn uniformly with replacement; estimators are scaled
    so their expectation equals the full-data gradient.  The ridge term of
    the lower level is always added exactly.  Passing no token gives the
    exact full-data gradient.  The regularity constants attached here are
    coarse data-dependent bounds (loss curvature grows with feature norms),
    adequate for sanity checks but far too pessimistic for step tuning;
    experiments on this family should set schedules explicitly.
    """
    if batch_size < 1:
        raise InvalidArgumentError("batch_size must be at least 1")
    if batch_size > min(data.n_train, data.n_val):
        raise InvalidArgumentError(
            "batch_size exceeds the smaller of the train/validation sizes")
    Xt, yt = data.X_train, data.y_train
    Xv, yv = data.X_val, data.y_val
    n, m = data.n_train, data.n_val
    C, d = data.num_classes, data.dim_features
    reg = data.reg
    cols_t, cols_v = np.arange(n), np.arange(m)
    wv = np.full(m, 1.0 / m)

    def pick(token: SampleToken | None, channel: str, count: int):
        if token is None:
            return None
        size = batch_size * token.batch_size
        if size >= count:
            return None  # a batch covering the dataset is the exact pass
        rng = token_rng(token, channel)
        return rng.integers(0, count, size=size)

    def grad_f_x(x, y, token):
        return np.zeros(n)

    def grad_f_y(x, y, token):
        W = y.reshape(C, d)
        idx = pick(token, "fy", m)
        if idx is None:
            return _ce_grad_W(W, Xv, yv, cols_v, wv)
        b = idx.shape[0]
        return _ce_grad_W(W, Xv[idx], yv[idx], np.arange(b), np.full(b, 1.0 / b))

    def grad_g_y(x, y, token):
        W = y.reshape(C, d)
        idx = pick(token, "gy", n)
        if idx is None:
            w = _sigmoid(x) / n
            return _ce_grad_W(W, Xt, yt, cols_t, w) + 2.0 * reg * y
        b = idx.shape[0]
        w = _sigmoid(x[idx]) / b
        return _ce_grad_W(W, Xt[idx], yt[idx], np.arange(b), w) + 2.0 * reg * y

    def grad_g_x(x, y, token):
        W = y.reshape(C, d)
        idx = pick(token, "gx", n)
        if idx is None:
            _, losses = _softmax_ce(W, Xt, yt, cols_t)
            s = _sigmoid(x)
            return s * (1.0 - s) * losses / n
        b = idx.shape[0]
        _, losses = _softmax_ce(W, Xt[idx], yt[idx], np.arange(b))
        s = _sigmoid(x[idx])
        out = np.zeros(n)
        # scatter-add: repeated indices accumulate, keeping the estimator unbiased
        np.add.at(out, idx, s * (1.0 - s) * losses / b)
        return out

    def value_f(x, y):
        W = y.reshape(C, d)
        _, losses = _softmax_ce(W, Xv, yv, cols_v)
        return float(losses.mean())

    def value_g(x, y):
        W = y.reshape(C, d)
        _, losses = _softmax_ce(W, Xt, yt, cols_t)
        return float(_sigmoid(x) @ losses / n + reg * (y @ y))

    def hess_g_yy(x, y):
        W = y.reshape(C, d)
        P, _ = _softmax_ce(W, Xt, yt, cols_t)
        w = _sigmoid(x) / n
        # block (a, b) of sum_i w_i (diag(p_i) - p_i p_i') kron x_i x_i' is
        # (X v)' X with v_i = w_i P_ai ([a = b] - P_bi): one matmul per block
        H = 2.0 * reg * np.eye(C * d)
        for a in range(C):
            for b in range(C):
                v = w * P[a] * ((a == b) - P[b])
                H[a * d:(a + 1) * d, b * d:(b + 1) * d] += (Xt * v[:, None]).T @ Xt
        return H

    def jac_g_xy(x, y):
        W = y.reshape(C, d)
        R, _ = _softmax_ce(W, Xt, yt, cols_t)
        R[yt, cols_t] -= 1.0
        s = _sigmoid(x)
        # order="C" lets the reshape return a view instead of a copy
        return np.einsum("i,ai,ic->iac", s * (1.0 - s) / n, R, Xt,
                         order="C").reshape(n, C * d)

    xnorm_t = float(np.max(np.linalg.norm(Xt, axis=1)))
    xnorm_v = float(np.max(np.linalg.norm(Xv, axis=1)))
    # per-example CE: grad norm <= sqrt(2)|x|, curvature <= |x|^2/2; the
    # score gradient adds at most loss/4 per coordinate near moderate weights
    consts = RegularityConstants(
        l_f0=np.sqrt(2.0) * xnorm_v,
        l_f1=0.5 * xnorm_v ** 2,
        l_g0=np.sqrt(2.0) * xnorm_t + 0.25 * np.log(C) + 1.0,
        l_g1=0.5 * xnorm_t ** 2 + 2.0 * reg,
        mu_g=2.0 * reg,
        l_g2=xnorm_t ** 3,
        l_f2=xnorm_v ** 3,
        sigma_f=np.sqrt(2.0) * xnorm_v,
        sigma_g=np.sqrt(2.0) * xnorm_t,
    )
    return BilevelProblem(
        dim_x=n, dim_y=C * d,
        grad_f_x=grad_f_x, grad_f_y=grad_f_y,
        grad_g_x=grad_g_x, grad_g_y=grad_g_y,
        noise_regime=NoiseRegime.BOTH_NOISY, constants=consts,
        value_f=value_f, value_g=value_g,
        second_order=SecondOrderOracle(hess_g_yy=hess_g_yy, jac_g_xy=jac_g_xy),
        name="hypercleaning")


def nobo_baseline_run(data: HypercleaningProblem, K: int, seed: int,
                      alpha: float = 0.5, batch_size: int = 50,
                      checkpoint_every: int | None = None) -> RunResult:
    """Plain SGD on the unweighted corrupted training loss.

    No bilevel structure: every training example counts equally, so label
    noise is absorbed into the classifier.  Serves as the comparison floor
    for cleaning experiments.  Records train/val loss at checkpoints.
    """
    if K < 0:
        raise InvalidArgumentError("K must be nonnegative")
    if alpha <= 0:
        raise PreconditionViolation("alpha must be positive")
    if batch_size < 1:
        raise InvalidArgumentError("batch_size must be at least 1")
    t_start = time.perf_counter()
    Xt, yt = data.X_train, data.y_train
    C, d = data.num_classes, data.dim_features
    n, reg = data.n_train, data.reg
    rng = np.random.default_rng(seed)
    w = np.zeros(C * d)
    cols_t, cols_v = np.arange(n), np.arange(data.n_val)
    cols_b, wb = np.arange(batch_size), np.full(batch_size, 1.0 / batch_size)

    def row() -> dict:
        W = w.reshape(C, d)
        _, lt = _softmax_ce(W, Xt, yt, cols_t)
        _, lv = _softmax_ce(W, data.X_val, data.y_val, cols_v)
        return {"train_loss": float(lt.mean() + reg * (w @ w)),
                "val_loss": float(lv.mean())}

    def step(due: bool) -> None:
        nonlocal w
        idx = rng.integers(0, n, size=batch_size)
        W = w.reshape(C, d)
        gb = _ce_grad_W(W, Xt[idx], yt[idx], cols_b, wb)
        w = w - alpha * (gb + 2.0 * reg * w)

    ks, series, _ = drive(K, checkpoint_every, lambda: {"w": w}, row, step)
    return RunResult(algorithm="NoBO", problem_name="hypercleaning", seed=seed,
                     K=K, R=0, x_R=None, x_final=np.zeros(n), y_final=w,
                     z_final=None, lambda_final=float("nan"), checkpoints=ks,
                     series=series, grad_estimator="none",
                     wall_time_s=time.perf_counter() - t_start)
