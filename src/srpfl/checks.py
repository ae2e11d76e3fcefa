"""The instrument's self-checks, each returning ``(ok, detail)``.

``srpfl verify`` runs all three and the acceptance suite asserts them as
criteria 1, 3 and 7; their seeds, sizes and thresholds live only here.
Each check computes what it compares: the contraction check runs its
config and evaluates the inequality on every round of the trace.
"""

import math

import numpy as np

from . import engine, fedrep, linalg, straggler, synthesis


def contraction(config):
    """Run ``config`` and check the per-round contraction inequality

        dist' <= sqrt(1-a_t) dist + (1 - sqrt(1-a_t)) noise_floor(a_t, n/n0).

    ``a_t`` is :func:`~srpfl.straggler.contraction_factor` with the run's
    own eta, E0 from its initial distance and the sigma_min of the round's
    realized participants.  A round holds when its margin, lhs - rhs, is
    at most 1e-12.  Passes when at least 95% of rounds hold and the worst
    violation is at most 0.05.
    """
    trace = engine.run(config)
    w_star = trace.ground_truth.w_star
    dist_before, margins = trace.init_dist, []
    for record in trace.records:
        s_min = float(engine.head_spectrum(w_star, record.ids)[-1])
        a_t = straggler.contraction_factor(trace.eta, trace.init_dist, s_min)
        shrink = math.sqrt(1.0 - a_t)
        rhs = shrink * dist_before + (1.0 - shrink) * straggler.noise_floor(a_t, record.n / config.n0)
        margins.append(record.dist - rhs)
        dist_before = record.dist
    n_held = sum(margin <= 1e-12 for margin in margins)
    fraction = n_held / len(margins) if margins else 1.0
    worst = max([0.0, *margins])
    ok = fraction >= 0.95 and worst <= 0.05
    return ok, f"{n_held}/{len(margins)} rounds satisfied ({fraction:.3f}), worst violation {worst:.4f}"


def order_statistics():
    """Closed-form exponential order statistics against 100 000 simulated rounds.

    Draws are made 10 000 rows at a time: the same stream and mean as one
    100 000-row draw, at a tenth of the memory.
    """
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    for n, j, lam in ((8, 4, 1.0), (64, 32, 1.0), (256, 256, 2.0)):
        column = np.empty(100_000)
        for rows in range(0, 100_000, 10_000):
            draws = rng.exponential(1.0 / lam, size=(10_000, n))
            column[rows:rows + 10_000] = np.partition(draws, j - 1, axis=1)[:, j - 1]
        observed = float(column.mean())
        expected = straggler.expected_order_stat(n, j, lam)
        worst_rel = max(worst_rel, abs(observed - expected) / expected)
    worst_tel = 0.0
    for n in (8, 64, 256):
        for lam in (1.0, 2.0):
            lhs = straggler.expected_order_stat(n, n, lam) - straggler.expected_order_stat(n, n // 2, lam)
            rhs = sum(1.0 / i for i in range(1, n // 2 + 1)) / lam
            worst_tel = max(worst_tel, abs(lhs - rhs))
    ok = worst_rel <= 0.02 and worst_tel <= 1e-12
    return ok, f"Monte Carlo rel err {worst_rel:.4f} (tol 0.02), telescoping err {worst_tel:.1e} (tol 1e-12)"


def _rep_loss(b, w, x, y):
    resid = y - x @ (b @ w)
    return 0.5 * float(resid @ resid) / len(y)


def _summed_loss(b, q, w, x, y):
    resid = y - (x @ ((q.T @ b) @ w[..., None]))[..., 0]
    return 0.5 * float(np.sum(resid**2))


def _gradient_error(loss, b, grad):
    """Relative error of ``grad`` against central differences of ``loss`` at ``b``."""
    h = 1e-6
    fd = np.zeros_like(b)
    for idx in np.ndindex(b.shape):
        e = np.zeros_like(b)
        e[idx] = h
        fd[idx] = (loss(b + e) - loss(b - e)) / (2 * h)
    return np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad))


def kernel_invariants():
    """Kernel invariants on random instances.

    Thin QR, principal-angle and span-basis invariants, the representation gradient
    against central differences in its row form and in the summed form a
    round runs, and the normal equations of the head solve.
    """
    rng = np.random.default_rng(7777)
    failures = []

    for i in range(100):
        d = int(rng.integers(2, 12))
        k = int(rng.integers(1, min(d, 5) + 1))
        a = rng.standard_normal((d, k))
        q, r = linalg.thin_qr(a)
        if np.linalg.norm(q @ r - a) > 1e-9 * max(1.0, np.linalg.norm(a)):
            failures.append(f"QR reconstruction #{i}")
        if not linalg.is_orthonormal(q):
            failures.append(f"QR orthonormality #{i}")
        if np.any(np.diag(r) <= 0):
            failures.append(f"QR sign convention #{i}")
        b2, _ = linalg.thin_qr(rng.standard_normal((d, k)))
        dist = linalg.principal_angle_dist(q, b2)
        if not 0.0 <= dist <= 1.0:
            failures.append(f"distance range #{i}")
        if linalg.principal_angle_dist(q, q) > 1e-12:
            failures.append(f"self distance #{i}")
        rot = np.array([[-1.0]]) if k == 1 else linalg.thin_qr(rng.standard_normal((k, k)))[0]
        if abs(linalg.principal_angle_dist(q @ rot, b2) - dist) > 1e-10:
            failures.append(f"rotation invariance #{i}")
        both, both_dist = linalg.span_basis(q, b2)
        if not linalg.is_orthonormal(both):
            failures.append(f"span basis orthonormality #{i}")
        if not all(abs(float(np.vdot(both.T @ span, both.T @ span)) - k) <= linalg.ORTHO_TOL for span in (q, b2)):
            failures.append(f"span basis holds both spans #{i}")
        if not abs(both_dist - dist) <= 1e-13:
            failures.append(f"span basis distance #{i}")

    worst_grad = 0.0
    for i in range(100):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(d, 4) + 1))
        m = int(rng.integers(k + 1, 12))
        b, _ = linalg.thin_qr(rng.standard_normal((d, k)))
        w = rng.standard_normal(k)
        x, y = rng.standard_normal((m, d)), rng.standard_normal(m)
        grad = b - fedrep.rep_gradient_step(b, w, x, y, eta=1.0)
        worst_grad = max(worst_grad, _gradient_error(lambda b_: _rep_loss(b_, w, x, y), b, grad))
    if worst_grad > 1e-5:
        failures.append(f"finite differences ({worst_grad:.2e})")

    # the round's summed move with z = 0 is the gradient in b of
    # sum_i 1/2 ||x_i q^T b w_i - y_i||^2 over the factor rows of its draw,
    # heads held fixed
    worst_summed = 0.0
    for i in range(100):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(d, 4) + 1))
        n = int(rng.integers(1, 5))
        m = int(rng.integers(k + 1, 12))
        gt = synthesis.gen_ground_truth(d, k, n, 0.5, seed=800 + i)
        b, _ = linalg.thin_qr(rng.standard_normal((d, k)))
        q, _ = linalg.span_basis(b, gt.b_star)
        draw = fedrep._draw_round(n, k, q.shape[1], d, m, rng)
        w, resid, tail = fedrep._client_statistics(gt, q.T @ gt.b_star, np.arange(n), draw)
        x, y = fedrep._factor_rows(gt, q, np.arange(n), draw)
        vt = q[:, :k].T @ b
        move = fedrep._summed_move(q, w, resid, tail, np.zeros_like(draw[-1])) @ vt
        worst_summed = max(worst_summed, _gradient_error(lambda b_: _summed_loss(b_, q, w @ vt, x, y), b, move))
    if worst_summed > 1e-5:
        failures.append(f"summed-move finite differences ({worst_summed:.2e})")

    worst_resid = 0.0
    for i in range(50):
        gt = synthesis.gen_ground_truth(8, 3, 2, 0.6, seed=600 + i)
        b, _ = linalg.thin_qr(np.random.default_rng(700 + i).standard_normal((8, 3)))
        x, y = synthesis.sample_batch(gt, 0, 40, 1, seed=600 + i)
        w = fedrep.head_update(b, x, y)
        grad = b.T @ x.T @ (x @ (b @ w) - y)
        scale = x.shape[0] * (1.0 + np.linalg.norm(y))
        worst_resid = max(worst_resid, float(np.linalg.norm(grad)) / scale)
    if worst_resid > 1e-8:
        failures.append(f"head optimality residual ({worst_resid:.2e})")

    return not failures, (
        f"100 QR/distance instances, worst gradient err {worst_grad:.2e} (rows), "
        f"{worst_summed:.2e} (summed move), "
        f"worst head residual {worst_resid:.2e}"
        + (f", failures: {failures}" if failures else "")
    )
