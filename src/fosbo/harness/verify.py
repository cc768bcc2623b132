"""Self-contained property suite behind the `verify` CLI subcommand.

Each check prints one PASS/FAIL line; the suite returns the number of
failures.  Everything is seeded, so a green run is reproducible.
"""

from __future__ import annotations

import numpy as np

from ..f2sa import f2sa_run
from ..f3sa import f3sa_run
from ..oracles import draw_token, gaussian_noise
from ..problems.quadratic import builtin_zoo, make_quadratic
from ..reference import (bias_bound_check, exact_hypergradient,
                         finite_difference_grad, hyper_objective,
                         solve_lower_level)
from ..schedule import Algorithm, check_sweep, default_params, run_schedule


def _check_hypergradient(rng) -> tuple[bool, str]:
    worst = 0.0
    for i in range(20):
        dx = int(rng.integers(1, 4))
        dy = int(rng.integers(1, 4))
        quad = make_quadratic((dx, dy), seed=int(rng.integers(1 << 30)))
        prob = quad.to_problem()
        x = rng.uniform(-1.0, 1.0, size=dx)
        y_star = solve_lower_level(prob, x)
        hg = exact_hypergradient(prob, x, y_star)
        fd = finite_difference_grad(lambda v: hyper_objective(prob, v), x,
                                    h=1e-5)
        rel = np.linalg.norm(hg - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    return worst <= 1e-5, f"worst relative error {worst:.2e} over 20 instances"


def _check_bias_bound() -> tuple[bool, str]:
    worst_slack = np.inf
    for name, quad in builtin_zoo().items():
        prob = quad.to_problem()
        lam_min = prob.constants.lambda_min
        xs = np.linspace(quad.box_x[0], quad.box_x[1], 11)
        for lam_scale in (1, 4, 16, 64, 256):
            lam = lam_scale * lam_min
            for xv in xs:
                x = np.full(quad.dim_x, xv)
                measured, bound, ok = bias_bound_check(prob, x, lam)
                if not ok:
                    return False, f"violated on {name} at lambda={lam}"
                worst_slack = min(worst_slack, bound - measured)
    return True, f"no violations; smallest slack {worst_slack:.2e}"


def _check_penalized_stationarity(rng) -> tuple[bool, str]:
    worst = 0.0
    for name, quad in builtin_zoo().items():
        prob = quad.to_problem()
        for _ in range(5):
            x = rng.uniform(quad.box_x[0], quad.box_x[1], size=quad.dim_x)
            lam = float(rng.uniform(1, 50)) + prob.constants.lambda_min
            y_lam = quad.y_star_lambda(x, lam)
            resid = (prob.grad_f_y(x, y_lam, None)
                     + lam * prob.grad_g_y(x, y_lam, None))
            worst = max(worst, float(np.linalg.norm(resid)) / lam)
    return worst <= 1e-12, f"worst scaled residual {worst:.2e}"


def _check_schedule_invariant() -> tuple[bool, str]:
    quad = builtin_zoo()["scalar-canonical"]
    consts = quad.to_problem().constants
    params = default_params(Algorithm.F2SA, consts)
    sched = run_schedule(params, 100_000)
    lam = sched["lambda"]
    target = sched["gamma"] / (2.0 * sched["alpha"])
    rel = np.max(np.abs(lam - target) / lam)
    if rel > 1e-12:
        return False, f"multiplier drifts from gamma/(2 alpha) by {rel:.2e}"
    viol = check_sweep(params, consts, 100_000)
    if viol:
        return False, f"step-size conditions violated: {viol}"
    return True, f"identity holds to {rel:.2e}; all conditions clean"


def _check_reduction() -> tuple[bool, str]:
    quad = builtin_zoo()["scalar-canonical"]
    prob = quad.to_problem(sigma_f=0.1, sigma_g=0.1)
    consts = prob.constants
    # lambda0 = c_gamma/c_alpha with a = c keeps the multiplier frozen on
    # both sides, which the iterate comparison needs
    shared = dict(a=0.4, c=0.4, k0=100, lambda0=4.0, xi=0.1,
                  c_alpha=0.005, c_gamma=0.02)
    p2 = default_params(Algorithm.F2SA, consts, T=1, **shared)
    p3 = default_params(Algorithm.F3SA, consts, eta_override=1.0, **shared)
    r2 = f2sa_run(prob, p2, 200, seed=7, x0=np.array([1.0]),
                  share_x_token=True)
    r3 = f3sa_run(prob, p3, 200, seed=7, x0=np.array([1.0]))
    gap = max(float(np.max(np.abs(r2.x_final - r3.x_final))),
              float(np.max(np.abs(r2.y_final - r3.y_final))),
              float(np.max(np.abs(r2.z_final - r3.z_final))))
    return gap <= 1e-12, f"iterate gap {gap:.2e} after 200 steps"


def _check_replay() -> tuple[bool, str]:
    quad = builtin_zoo()["coupled-2d"]
    prob = quad.to_problem(sigma_f=0.1, sigma_g=0.1)
    consts = prob.constants
    params = default_params(Algorithm.F2SA, consts, T=2, k0=50, xi=0.05)
    a = f2sa_run(prob, params, 150, seed=21)
    b = f2sa_run(prob, params, 150, seed=21)
    same = (np.array_equal(a.x_final, b.x_final)
            and np.array_equal(a.series["grad_F_sq"], b.series["grad_F_sq"])
            and a.R == b.R)
    return same, "two identically seeded runs agree bitwise" if same \
        else "replay mismatch"


def _check_noise_moments(rng) -> tuple[bool, str]:
    n, dim, sigma = 10_000, 3, 0.7
    draws = np.empty((n, dim))
    for i in range(n):
        draws[i] = gaussian_noise(draw_token(rng), "gy", dim, sigma)
    mean_z = np.abs(draws.mean(axis=0)) / (draws.std(axis=0, ddof=1) / np.sqrt(n))
    second = float(np.mean(np.sum(draws ** 2, axis=1)))
    ok = bool(np.all(mean_z < 3.0) and abs(second - sigma ** 2) < 0.05 * sigma ** 2)
    return ok, (f"max mean z-score {mean_z.max():.2f}, "
                f"second moment {second:.4f} vs {sigma ** 2:.4f}")


def _check_inner_contraction() -> tuple[bool, str]:
    quad = builtin_zoo()["scalar-canonical"]
    prob = quad.to_problem()
    x = np.array([1.0])
    lam = 4.0
    y_lam = quad.y_star_lambda(x, lam)
    gamma, alpha = 0.25, 0.05
    y = np.array([-1.0])
    z = np.array([-1.0])
    ok = True
    for _ in range(50):
        z_next = z - gamma * prob.grad_g_y(x, z, None)
        y_next = y - alpha * (prob.grad_f_y(x, y, None)
                              + lam * prob.grad_g_y(x, y, None))
        if abs(z_next - quad.y_star(x)) > (1 - gamma) * abs(z - quad.y_star(x)) + 1e-15:
            ok = False
        if abs(y_next - y_lam) > abs(y - y_lam) + 1e-15:
            ok = False
        y, z = y_next, z_next
    return ok, "tracking errors contract monotonically"


def run_verification(verbose: bool = True) -> int:
    """Run every check; return the number of failures."""
    rng = np.random.default_rng(20240817)
    checks = [
        ("hypergradient-vs-fd", lambda: _check_hypergradient(rng)),
        ("penalty-bias-bound", _check_bias_bound),
        ("penalized-stationarity", lambda: _check_penalized_stationarity(rng)),
        ("multiplier-schedule-identity", _check_schedule_invariant),
        ("momentum-reduction", _check_reduction),
        ("replay-determinism", _check_replay),
        ("noise-moments", lambda: _check_noise_moments(rng)),
        ("inner-step-contraction", _check_inner_contraction),
    ]
    failures = 0
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        failures += not ok
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if verbose:
        total = len(checks)
        print(f"{total - failures}/{total} checks passed")
    return failures
