import dataclasses
import re

import numpy as np
import pytest

from srpfl import fedrep, linalg, synthesis
from srpfl.errors import SrpflError


def make_batch(x, y, client=0):
    return synthesis.Batch(x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=float), client_id=client)


def local_loss(b, w, batch):
    resid = batch.y - batch.x @ (b @ w)
    return 0.5 * float(resid @ resid) / batch.x.shape[0]


class TestHeadUpdate:
    def test_hand_normal_equations(self):
        # Gram = (1 + 4)/2 = 2.5, rhs = (3 + 12)/2 = 7.5 -> w = 3
        b = np.array([[1.0], [0.0]])
        batch = make_batch([[1.0, 0.0], [2.0, 0.0]], [3.0, 6.0])
        w = fedrep.head_update(b, batch)
        assert w[0] == pytest.approx(3.0, abs=1e-12)

    def test_exact_recovery_at_optimum(self):
        gt = synthesis.gen_ground_truth(6, 2, 3, 0.0, seed=0)
        batch = synthesis.sample_batch(gt, 1, 10, 1, seed=0)
        w = fedrep.head_update(gt.b_star, batch)
        np.testing.assert_allclose(w, gt.w_star[1], rtol=1e-9, atol=1e-11)

    def test_singular_gram(self):
        # every sample orthogonal to span(b)
        b = np.array([[1.0], [0.0]])
        batch = make_batch([[0.0, 1.0], [0.0, 2.0]], [1.0, 2.0])
        with pytest.raises(SrpflError, match="projected Gram matrix singular"):
            fedrep.head_update(b, batch)

    def test_residual_gradient_small(self):
        gt = synthesis.gen_ground_truth(8, 3, 2, 0.7, seed=4)
        b, _ = linalg.thin_qr(np.random.default_rng(8).standard_normal((8, 3)))
        batch = synthesis.sample_batch(gt, 0, 40, 2, seed=4)
        w = fedrep.head_update(b, batch)
        m = batch.x.shape[0]
        grad = b.T @ batch.x.T @ (batch.x @ (b @ w) - batch.y)
        assert np.linalg.norm(grad) <= 1e-8 * m * (1 + np.linalg.norm(batch.y))


class TestRepGradientStep:
    def test_zero_step(self):
        gt = synthesis.gen_ground_truth(5, 2, 1, 0.3, seed=1)
        batch = synthesis.sample_batch(gt, 0, 12, 1, seed=1)
        out = fedrep.rep_gradient_step(gt.b_star, gt.w_star[0], batch, eta=0.0)
        np.testing.assert_array_equal(out, gt.b_star)

    def test_stationary_at_zero_residual(self):
        gt = synthesis.gen_ground_truth(5, 2, 1, 0.0, seed=2)
        batch = synthesis.sample_batch(gt, 0, 12, 1, seed=2)
        out = fedrep.rep_gradient_step(gt.b_star, gt.w_star[0], batch, eta=0.5)
        np.testing.assert_allclose(out, gt.b_star, atol=1e-12)

    def test_finite_difference_oracle_seed4(self):
        rng = np.random.default_rng(4)
        b, _ = linalg.thin_qr(rng.standard_normal((3, 1)))
        w = rng.standard_normal(1)
        batch = make_batch(rng.standard_normal((2, 3)), rng.standard_normal(2))
        step = fedrep.rep_gradient_step(b, w, batch, eta=1.0)
        grad = (b - step)  # eta = 1 so b - output is exactly the gradient
        h = 1e-6
        fd = np.zeros_like(grad)
        for i in range(3):
            for j in range(1):
                e = np.zeros_like(b)
                e[i, j] = h
                fd[i, j] = (local_loss(b + e, w, batch) - local_loss(b - e, w, batch)) / (2 * h)
        assert np.linalg.norm(fd - grad) <= 1e-5 * max(1.0, np.linalg.norm(grad))


class TestMethodOfMoments:
    def test_single_client_large_m(self):
        gt = synthesis.gen_ground_truth(5, 1, 1, 0.0, seed=42)
        init = fedrep.method_of_moments_init(gt, [0], 100_000, seed=42)
        assert linalg.principal_angle_dist(init, gt.b_star) <= 0.1

    def test_all_zero_labels(self):
        gt = synthesis.gen_ground_truth(4, 1, 2, 0.0, seed=0)
        silent = dataclasses.replace(gt, w_star=np.zeros_like(gt.w_star))
        with pytest.raises(SrpflError, match="every warm-start label was zero"):
            fedrep.method_of_moments_init(silent, [0, 1], 10, seed=0)

    def test_no_participants(self):
        gt = synthesis.gen_ground_truth(4, 1, 2, 0.0, seed=0)
        with pytest.raises(SrpflError, match="warm start needs at least one participant"):
            fedrep.method_of_moments_init(gt, [], 10, seed=0)

    def test_full_dimensional_subspace(self):
        # d = k: any full-rank average spans all of R^d
        gt = synthesis.gen_ground_truth(3, 3, 4, 0.3, seed=6)
        init = fedrep.method_of_moments_init(gt, range(4), 50, seed=6)
        assert linalg.principal_angle_dist(init, gt.b_star) <= 1e-10

    @pytest.mark.parametrize("sigma", [1e3, 1e4, 1e5])
    def test_large_labels_pass_the_symmetry_check(self, sigma):
        # the moment matrix's rounding asymmetry grows with sigma^2
        gt = synthesis.gen_ground_truth(10, 2, 8, sigma, seed=0)
        init = fedrep.method_of_moments_init(gt, range(8), 40, seed=0)
        assert init.shape == (10, 2)
        assert linalg.is_orthonormal(init)


class TestFedrepRound:
    def test_fixed_point_at_optimum(self):
        gt = synthesis.gen_ground_truth(6, 2, 8, 0.0, seed=10)
        new = fedrep.fedrep_round(gt.b_star, gt, range(8), m=30, eta=0.1, seed=10, round_index=1)
        assert linalg.principal_angle_dist(new, gt.b_star) <= 1e-9

    def test_zero_step_preserves_span(self):
        gt = synthesis.gen_ground_truth(6, 2, 8, 0.0, seed=11)
        b, _ = linalg.thin_qr(np.random.default_rng(1).standard_normal((6, 2)))
        new = fedrep.fedrep_round(b, gt, range(8), m=30, eta=0.0, seed=11, round_index=1)
        assert linalg.principal_angle_dist(new, b) <= 1e-12

    def test_monotone_decrease_noiseless_seed9(self):
        gt = synthesis.gen_ground_truth(10, 2, 8, 0.0, seed=9)
        b, _ = linalg.thin_qr(np.random.default_rng(2).standard_normal((10, 2)))
        dists = [linalg.principal_angle_dist(b, gt.b_star)]
        for t in range(1, 6):
            b = fedrep.fedrep_round(b, gt, range(8), m=60, eta=0.1, seed=9, round_index=t)
            dists.append(linalg.principal_angle_dist(b, gt.b_star))
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_rotation_invariant_trajectory(self):
        gt = synthesis.gen_ground_truth(8, 2, 6, 0.2, seed=13)
        b, _ = linalg.thin_qr(np.random.default_rng(3).standard_normal((8, 2)))
        rot, _ = linalg.thin_qr(np.random.default_rng(4).standard_normal((2, 2)))
        s1, s2 = b, b @ rot
        for t in range(1, 5):
            s1 = fedrep.fedrep_round(s1, gt, range(6), m=25, eta=0.1, seed=13, round_index=t)
            s2 = fedrep.fedrep_round(s2, gt, range(6), m=25, eta=0.1, seed=13, round_index=t)
            d1 = linalg.principal_angle_dist(s1, gt.b_star)
            d2 = linalg.principal_angle_dist(s2, gt.b_star)
            assert abs(d1 - d2) <= 1e-8

    def test_bad_participant(self):
        gt = synthesis.gen_ground_truth(5, 2, 4, 0.0, seed=14)
        with pytest.raises(SrpflError, match=r"participant 9 outside 0\.\.3"):
            fedrep.fedrep_round(gt.b_star, gt, [0, 9], m=20, eta=0.1, seed=14, round_index=1)
        with pytest.raises(SrpflError, match="a round needs at least one participant"):
            fedrep.fedrep_round(gt.b_star, gt, [], m=20, eta=0.1, seed=14, round_index=1)

    def test_singular_gram_names_client(self):
        gt = synthesis.gen_ground_truth(5, 2, 4, 0.0, seed=15)
        with pytest.raises(SrpflError, match="projected Gram matrix singular .* for client"):
            fedrep.fedrep_round(gt.b_star, gt, [0, 1], m=1, eta=0.1, seed=15, round_index=1)


def row_steps(gt, b, m, draws, seed):
    """One client's step on ``draws`` independent ``sample_batch`` row batches."""
    steps = []
    for start in range(1, draws + 1, 2000):
        batches = [synthesis.sample_batch(gt, 0, m, t, seed) for t in range(start, start + 2000)]
        rows = synthesis.Batch(
            x=np.stack([x.x for x in batches]), y=np.stack([x.y for x in batches]),
            client_id=np.zeros(len(batches), dtype=int),
        )
        steps.append(fedrep.rep_gradient_step(b, fedrep.head_update(b, rows), rows, 1.0))
    return np.concatenate(steps)


def client_moves(b, q, w, batch, g):
    """Each client's own update ``X_i^T r_i w_i^T``: the summed move of its slice alone."""
    return np.stack([
        fedrep.reduced_rep_step(b, q, w[i:i + 1], synthesis.Batch(
            x=batch.x[i:i + 1], y=batch.y[i:i + 1], client_id=batch.client_id[i:i + 1], m=batch.m,
        ), g[i:i + 1])
        for i in range(len(w))
    ])


class TestBlockedRound:
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 35])
    @pytest.mark.parametrize("d, k, m", [(6, 2, 25), (12, 3, 8), (5, 3, 9), (12, 3, 4)])
    @pytest.mark.parametrize("sigma", [0.0, 0.4])
    def test_matches_per_client_loop(self, n, d, k, m, sigma):
        # each client's rows are its factor's X = R[:, :p] q^T, standing for
        # m samples, so X^T r lies in span(q): the reduced head and the
        # in-span part of the client's reduced move are the row loop's, and
        # the rest is -(eta/m) ||r|| (I - q q^T) g w^T (d = 5 < 2k leaves no
        # rest); the round is the thin QR of the row loop's averaged steps
        gt = synthesis.gen_ground_truth(d, k, 50, sigma, seed=21)
        b, _ = linalg.thin_qr(np.random.default_rng(n).standard_normal((d, k)))
        ids = np.random.default_rng(n + 1).permutation(50)[:n]
        q = linalg.span_basis(gt.b_star, b)
        batch, g = fedrep._draw_in_span(gt, q, ids, m, synthesis.substream(21, synthesis.TAG_ROUND, 1))
        w = fedrep.head_update(q.T @ b, batch)
        moves = -(0.2 / m) * client_moves(b, q, w, batch, g)
        inside = q @ (q.T @ moves)
        steps = []
        for i, cid in enumerate(ids):
            rows = synthesis.Batch(x=batch.x[i] @ q.T, y=batch.y[i], client_id=cid, m=m)
            w_rows = fedrep.head_update(b, rows)
            np.testing.assert_allclose(w[i], w_rows, rtol=0, atol=1e-12)
            row_move = fedrep.rep_gradient_step(b, w_rows, rows, 0.2) - b
            np.testing.assert_allclose(inside[i], row_move, rtol=0, atol=1e-12)
            resid = np.linalg.norm(rows.x @ (b @ w_rows) - rows.y)
            rest = -(0.2 / m) * resid * np.outer(g[i] - q @ (q.T @ g[i]), w[i])
            np.testing.assert_allclose(moves[i] - inside[i], rest, rtol=0, atol=1e-12)
            steps.append(b + row_move + rest)
        expected, _ = linalg.thin_qr(sum(steps) / n)
        np.testing.assert_allclose(
            fedrep.fedrep_round(b, gt, ids, m, 0.2, seed=21, round_index=1), expected, rtol=0, atol=1e-12,
        )

    def test_step_distribution_matches_rows_monte_carlo(self):
        # one client's step, 20 000 reduced draws against 20 000 sample_batch
        # row batches, in coordinates where the rows' step covariance is the
        # identity (on the complement of span(b): the head solve makes the
        # step's part inside span(b) degenerate); dist(b, B*) = 0.37.  Two
        # row samplers with different seeds differ here by 0.078 in
        # covariance and 3.2 standard errors in mean, the reduced sampler
        # by 0.079 and 2.2; a 5% error in the ||r|| term gives 0.14 and a
        # 10% error in sigma 0.20
        d, k, m, draws = 20, 2, 100, 20_000
        gt = synthesis.gen_ground_truth(d, k, 1, 0.5, seed=31)
        b, _ = linalg.thin_qr(gt.b_star + 0.07 * np.random.default_rng(32).standard_normal((d, k)))
        perp = np.linalg.svd(np.eye(d) - b @ b.T)[0][:, :d - k]
        q = linalg.span_basis(gt.b_star, b)
        rng = np.random.default_rng(33)
        reduced = []
        for _ in range(draws // 2000):
            batch, g = fedrep._draw_in_span(gt, q, np.zeros(2000, dtype=int), m, rng)
            w = fedrep.head_update(q.T @ b, batch)
            reduced.append(b - client_moves(b, q, w, batch, g) / m)
        reduced = (perp.T @ np.concatenate(reduced)).reshape(draws, -1)
        rows = (perp.T @ row_steps(gt, b, m, draws, seed=31)).reshape(draws, -1)
        white = np.linalg.inv(np.linalg.cholesky(np.cov(rows.T)))
        z = (reduced - rows.mean(axis=0)) @ white.T
        cov = np.cov(z.T)
        assert np.linalg.norm(cov - np.eye(len(cov))) / np.sqrt(len(cov)) <= 0.10
        assert np.max(np.abs(z.mean(axis=0))) * np.sqrt(draws / 2) <= 4.0

    @pytest.mark.parametrize("m", [100, 3])
    def test_factor_gram_has_the_law_of_the_rows(self, m):
        # 20 000 factor batches against 20 000 directly drawn m x (p+1)
        # Gaussian blocks M (d=20, k=2, p=4; m=3 < p+1 leaves R trapezoidal):
        # the upper entries of R^T R and of M^T M must both have the Wishart
        # mean m I (largest error 2.3 standard errors for R, 2.2 for M) and
        # covariance m (d_ik d_jl + d_il d_jk) (largest error 0.075 m for R,
        # 0.063 m for M).  A chi-square degree of freedom one too many reads
        # 11 standard errors or more, one too few cannot draw at m=3, and a
        # missing sqrt reads 690
        d, k, sigma, draws = 20, 2, 0.5, 20_000
        gt = synthesis.gen_ground_truth(d, k, 1, sigma, seed=41)
        b, _ = linalg.thin_qr(np.random.default_rng(42).standard_normal((d, k)))
        q = linalg.span_basis(gt.b_star, b)
        p = q.shape[1]
        rng = np.random.default_rng(43)
        batch, _ = fedrep._draw_in_span(gt, q, np.zeros(draws, dtype=int), m, rng)
        assert batch.m == m and batch.x.shape == (draws, min(m, p + 1), p)
        signal = batch.x @ (gt.w_star[0] @ (q.T @ gt.b_star).T)
        factor = np.concatenate([batch.x, ((batch.y - signal) / sigma)[..., None]], axis=-1)
        np.testing.assert_array_equal(np.tril(factor, -1), 0.0)
        direct = rng.standard_normal((draws, m, p + 1))
        upper = np.triu_indices(p + 1)
        eye = np.eye(p + 1)
        mean = m * eye[upper]
        cov = m * (
            eye[upper[0][:, None], upper[0]] * eye[upper[1][:, None], upper[1]]
            + eye[upper[0][:, None], upper[1]] * eye[upper[1][:, None], upper[0]]
        )
        for blocks in (factor, direct):
            entries = (blocks.swapaxes(-1, -2) @ blocks)[:, upper[0], upper[1]]
            z = (entries.mean(axis=0) - mean) / np.sqrt(np.diag(cov) / draws)
            assert np.max(np.abs(z)) <= 4.5
            assert np.max(np.abs(np.cov(entries.T) - cov)) <= 0.15 * m

    def test_stacked_singular_gram_names_its_client(self):
        rng = np.random.default_rng(22)
        b = np.array([[1.0], [0.0]])
        x = rng.standard_normal((3, 4, 2))
        x[2, :, 0] = 0.0  # only the last client's samples are orthogonal to span(b)
        batch = synthesis.Batch(
            x=x, y=rng.standard_normal((3, 4)), client_id=np.array([7, 3, 9]),
        )
        with pytest.raises(SrpflError, match="client 9"):
            fedrep.head_update(b, batch)

    def test_gershgorin_miss_is_still_solved(self, monkeypatch):
        # client 1's Gram [[1, .5], [.5, .3]] fails the Gershgorin bound
        # (.3 - .5 < 0) but has lambda_min 0.042 > GRAM_TOL: it alone goes to
        # eigvalsh, and every head is still the least-squares solution
        m, b = 200, np.eye(2)
        rng = np.random.default_rng(24)
        x = rng.standard_normal((3, m, 2))
        x[1] = 0.0
        x[1, :2] = np.sqrt(m) * np.linalg.cholesky([[1.0, 0.5], [0.5, 0.3]]).T
        y = rng.standard_normal((3, m))
        checked = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            checked.append(np.array(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        w = fedrep.head_update(b, synthesis.Batch(x=x, y=y, client_id=np.array([4, 5, 6])))
        assert len(checked) == 1 and checked[0].shape == (1, 2, 2)
        np.testing.assert_allclose(checked[0][0], [[1.0, 0.5], [0.5, 0.3]], rtol=0, atol=1e-12)
        for i in range(3):
            np.testing.assert_allclose(w[i], np.linalg.lstsq(x[i], y[i], rcond=None)[0], rtol=1e-10, atol=0)

    def test_one_singular_client_among_many_is_named(self):
        # 300 well-conditioned clients and one, id 1217, whose projected
        # samples are collinear; the message carries its eigvalsh lambda_min
        m, b = 50, np.eye(3)[:, :2]
        rng = np.random.default_rng(25)
        x = rng.standard_normal((301, m, 3))
        x[217, :, 1] = 0.5 * x[217, :, 0]
        xb = x @ b
        lam = np.linalg.eigvalsh(xb[217].T @ xb[217] / m)[0]
        assert lam <= fedrep.GRAM_TOL
        batch = synthesis.Batch(
            x=x, y=rng.standard_normal((301, m)), client_id=np.arange(1000, 1301),
        )
        with pytest.raises(SrpflError, match=re.escape(f"(lambda_min={lam:.3e}) for client 1217 at m={m}")):
            fedrep.head_update(b, batch)

    def test_bad_participant_raises_before_any_draw(self, monkeypatch):
        gt = synthesis.gen_ground_truth(5, 2, 4, 0.0, seed=14)
        drawn = []

        def recording(*key):
            drawn.append(key)
            return synthesis.substream(*key)

        monkeypatch.setattr(fedrep, "substream", recording)
        with pytest.raises(SrpflError, match="participant 9"):
            fedrep.fedrep_round(gt.b_star, gt, [0, 1, 9], m=20, eta=0.1, seed=14, round_index=1)
        assert drawn == []
        fedrep.fedrep_round(gt.b_star, gt, [0, 1, 3], m=20, eta=0.1, seed=14, round_index=1)
        assert drawn == [(14, synthesis.TAG_ROUND, 1)]


def test_warm_start_matches_per_client_loop():
    # m < d
    gt = synthesis.gen_ground_truth(12, 3, 40, 0.3, seed=23)
    ids = list(range(35))
    p_bar = np.zeros((12, 12))
    for cid in ids:
        batch = synthesis.sample_batch(gt, cid, 8, round_index=0, seed=23)
        p_bar += (batch.x.T * batch.y**2) @ batch.x / 8
    expected = linalg.rank_k_eig(p_bar / len(ids), 3)
    assert np.array_equal(fedrep.method_of_moments_init(gt, ids, 8, seed=23), expected)
