"""The instrument's self-checks, each returning ``(ok, detail)``.

``srpfl verify`` runs all three and the acceptance suite asserts them as
criteria 1, 3 and 7; their seeds, sizes and thresholds live only here.
"""

import numpy as np

from . import engine, fedrep, linalg, straggler, synthesis


def contraction(config):
    """Run ``config`` and check the per-round contraction inequality.

    Passes when at least 95% of rounds hold and the worst violation is at most 0.05.
    """
    trace = engine.run(config)
    gt = synthesis.gen_ground_truth(config.d, config.k, config.n_clients, config.sigma, config.seed)
    rep = engine.verify_contraction(trace, gt, config.n0)
    ok = rep.fraction_satisfied >= 0.95 and rep.worst_violation <= 0.05
    return ok, (
        f"{rep.n_satisfied}/{rep.n_rounds} rounds satisfied ({rep.fraction_satisfied:.3f}), "
        f"worst violation {rep.worst_violation:.4f}"
    )


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


def _rep_loss(b, w, batch):
    resid = batch.y - batch.x @ (b @ w)
    return 0.5 * float(resid @ resid) / len(batch.y)


def _summed_loss(b, q, w, batch):
    resid = batch.y - (batch.x @ ((q.T @ b) @ w[..., None]))[..., 0]
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

    Thin QR and principal-angle invariants, the representation gradient
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

    worst_grad = 0.0
    for i in range(100):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(d, 4) + 1))
        m = int(rng.integers(k + 1, 12))
        b, _ = linalg.thin_qr(rng.standard_normal((d, k)))
        w = rng.standard_normal(k)
        batch = synthesis.Batch(x=rng.standard_normal((m, d)), y=rng.standard_normal(m), client_id=0)
        grad = b - fedrep.rep_gradient_step(b, w, batch, eta=1.0)
        worst_grad = max(worst_grad, _gradient_error(lambda b_: _rep_loss(b_, w, batch), b, grad))
    if worst_grad > 1e-5:
        failures.append(f"finite differences ({worst_grad:.2e})")

    # the round's summed move with g = 0 is the gradient in b of
    # sum_i 1/2 ||x_i q^T b w_i - y_i||^2 over its factor batch, heads held fixed
    worst_summed = 0.0
    for i in range(100):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(d, 4) + 1))
        n = int(rng.integers(1, 5))
        m = int(rng.integers(k + 1, 12))
        gt = synthesis.gen_ground_truth(d, k, n, 0.5, seed=800 + i)
        b, _ = linalg.thin_qr(rng.standard_normal((d, k)))
        q = linalg.span_basis(gt.b_star, b)
        batch, _ = fedrep._draw_in_span(gt, q, np.arange(n), m, rng)
        w = fedrep.head_update(q.T @ b, batch)
        move = fedrep.reduced_rep_step(b, q, w, batch, np.zeros((n, d)))
        worst_summed = max(worst_summed, _gradient_error(lambda b_: _summed_loss(b_, q, w, batch), b, move))
    if worst_summed > 1e-5:
        failures.append(f"summed-move finite differences ({worst_summed:.2e})")

    worst_resid = 0.0
    for i in range(50):
        gt = synthesis.gen_ground_truth(8, 3, 2, 0.6, seed=600 + i)
        b, _ = linalg.thin_qr(np.random.default_rng(700 + i).standard_normal((8, 3)))
        batch = synthesis.sample_batch(gt, 0, 40, 1, seed=600 + i)
        w = fedrep.head_update(b, batch)
        grad = b.T @ batch.x.T @ (batch.x @ (b @ w) - batch.y)
        scale = batch.x.shape[0] * (1.0 + np.linalg.norm(batch.y))
        worst_resid = max(worst_resid, float(np.linalg.norm(grad)) / scale)
    if worst_resid > 1e-8:
        failures.append(f"head optimality residual ({worst_resid:.2e})")

    return not failures, (
        f"100 QR/distance instances, worst gradient err {worst_grad:.2e} (rows), "
        f"{worst_summed:.2e} (summed move), "
        f"worst head residual {worst_resid:.2e}"
        + (f", failures: {failures}" if failures else "")
    )
