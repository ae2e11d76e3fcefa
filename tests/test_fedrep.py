import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srpfl import engine, fedrep, linalg, synthesis
from srpfl.errors import ConfigError, SrpflError


def basis(b, gt):
    """The round's basis for representation ``b``, as ``engine.run`` carries it."""
    return linalg.span_basis(b, gt.b_star)[0]


def local_loss(b, w, x, y):
    resid = y - x @ (b @ w)
    return 0.5 * float(resid @ resid) / x.shape[0]


class TestHeadUpdate:
    def test_hand_normal_equations(self):
        # Gram = (1 + 4)/2 = 2.5, rhs = (3 + 12)/2 = 7.5 -> w = 3
        b = np.array([[1.0], [0.0]])
        w = fedrep.head_update(b, np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([3.0, 6.0]))
        assert w[0] == pytest.approx(3.0, abs=1e-12)

    def test_exact_recovery_at_optimum(self):
        gt = synthesis.gen_ground_truth(6, 2, 3, 0.0, seed=0)
        w = fedrep.head_update(gt.b_star, *synthesis.sample_batch(gt, 1, 10, 1, seed=0))
        np.testing.assert_allclose(w, gt.w_star[1], rtol=1e-9, atol=1e-11)

    def test_singular_gram(self):
        # every sample orthogonal to span(b)
        b = np.array([[1.0], [0.0]])
        with pytest.raises(SrpflError, match="projected Gram matrix singular"):
            fedrep.head_update(b, np.array([[0.0, 1.0], [0.0, 2.0]]), np.array([1.0, 2.0]))

    def test_residual_gradient_small(self):
        gt = synthesis.gen_ground_truth(8, 3, 2, 0.7, seed=4)
        b, _ = linalg.thin_qr(np.random.default_rng(8).standard_normal((8, 3)))
        x, y = synthesis.sample_batch(gt, 0, 40, 2, seed=4)
        w = fedrep.head_update(b, x, y)
        grad = b.T @ x.T @ (x @ (b @ w) - y)
        assert np.linalg.norm(grad) <= 1e-8 * len(y) * (1 + np.linalg.norm(y))


class TestRepGradientStep:
    def test_zero_step(self):
        gt = synthesis.gen_ground_truth(5, 2, 1, 0.3, seed=1)
        x, y = synthesis.sample_batch(gt, 0, 12, 1, seed=1)
        out = fedrep.rep_gradient_step(gt.b_star, gt.w_star[0], x, y, eta=0.0)
        np.testing.assert_array_equal(out, gt.b_star)

    def test_stationary_at_zero_residual(self):
        gt = synthesis.gen_ground_truth(5, 2, 1, 0.0, seed=2)
        x, y = synthesis.sample_batch(gt, 0, 12, 1, seed=2)
        out = fedrep.rep_gradient_step(gt.b_star, gt.w_star[0], x, y, eta=0.5)
        np.testing.assert_allclose(out, gt.b_star, atol=1e-12)

    def test_finite_difference_oracle_seed4(self):
        rng = np.random.default_rng(4)
        b, _ = linalg.thin_qr(rng.standard_normal((3, 1)))
        w = rng.standard_normal(1)
        x, y = rng.standard_normal((2, 3)), rng.standard_normal(2)
        step = fedrep.rep_gradient_step(b, w, x, y, eta=1.0)
        grad = (b - step)  # eta = 1 so b - output is exactly the gradient
        h = 1e-6
        fd = np.zeros_like(grad)
        for i in range(3):
            for j in range(1):
                e = np.zeros_like(b)
                e[i, j] = h
                fd[i, j] = (local_loss(b + e, w, x, y) - local_loss(b - e, w, x, y)) / (2 * h)
        assert np.linalg.norm(fd - grad) <= 1e-5 * max(1.0, np.linalg.norm(grad))


class TestMethodOfMoments:
    def test_single_client_large_m(self):
        gt = synthesis.gen_ground_truth(5, 1, 1, 0.0, seed=42)
        init = fedrep.method_of_moments_init(gt, [0], 100_000, seed=42)
        assert linalg.principal_angle_dist(init, gt.b_star) <= 0.1

    def test_all_zero_labels(self, monkeypatch):
        # sigma = 0 and zero heads: refused before any draw
        gt = synthesis.gen_ground_truth(4, 1, 2, 0.0, seed=0)
        silent = dataclasses.replace(gt, w_star=np.zeros_like(gt.w_star))
        monkeypatch.setattr(fedrep, "substream", None)
        with pytest.raises(SrpflError, match="every warm-start label was zero"):
            fedrep.method_of_moments_init(silent, [0, 1], 10, seed=0)

    def test_no_participants(self):
        gt = synthesis.gen_ground_truth(4, 1, 2, 0.0, seed=0)
        with pytest.raises(SrpflError, match="need at least one participant"):
            fedrep.method_of_moments_init(gt, [], 10, seed=0)

    def test_full_dimensional_subspace(self):
        # d = k: any full-rank average spans all of R^d
        gt = synthesis.gen_ground_truth(3, 3, 4, 0.3, seed=6)
        init = fedrep.method_of_moments_init(gt, range(4), 50, seed=6)
        assert linalg.principal_angle_dist(init, gt.b_star) <= 1e-10

    @pytest.mark.parametrize("sigma", [1.0, 0.0])
    def test_moment_sum_has_the_law_of_the_per_client_sum(self, sigma):
        # 4000 bulk moment sums against 4000 sums of sample_batch rows, client
        # by client (d=6, k=2, 3 clients, m=20), compared by two-sample
        # Kolmogorov-Smirnov distance on tr(P), the B* block's entries and
        # one diagonal entry off span(B*).  Largest distance 0.020 at sigma=1
        # and 0.018 at 0 (two row samplers with different seeds read 0.028,
        # and three other bulk seeds 0.022 to 0.028).  A sigma 10% too large
        # reads 0.082, and one row fewer per client 0.097 (0.087 at sigma=0)
        d, k, m, draws = 6, 2, 20, 4000
        gt = synthesis.gen_ground_truth(d, k, 3, sigma, seed=51)
        off_span = np.linalg.svd(np.eye(d) - gt.b_star @ gt.b_star.T)[0][:, 0]

        def functionals(p):
            block = gt.b_star.T @ p @ gt.b_star
            return [np.trace(p), block[0, 0], block[0, 1], block[1, 1], off_span @ p @ off_span]

        rng, parts = np.random.default_rng(53), np.arange(3)
        bulk = np.array([functionals(fedrep._moment_sum(gt, parts, m, rng)) for _ in range(draws)])
        rows = []
        for t in range(draws):
            batches = [synthesis.sample_batch(gt, cid, m, t, seed=51) for cid in parts]
            rows.append(functionals(sum((x.T * y**2) @ x for x, y in batches)))
        rows = np.array(rows)
        assert max(ks_distance(bulk[:, i], rows[:, i]) for i in range(5)) <= 0.045

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
        new, dist = fedrep.fedrep_round(basis(gt.b_star, gt), gt, range(8), m=30, eta=0.1, seed=10, round_index=1)
        assert linalg.principal_angle_dist(new[:, :2], gt.b_star) <= 1e-9
        assert dist <= 1e-9

    def test_zero_step_preserves_span(self):
        gt = synthesis.gen_ground_truth(6, 2, 8, 0.0, seed=11)
        b, _ = linalg.thin_qr(np.random.default_rng(1).standard_normal((6, 2)))
        new, _ = fedrep.fedrep_round(basis(b, gt), gt, range(8), m=30, eta=0.0, seed=11, round_index=1)
        assert linalg.principal_angle_dist(new[:, :2], b) <= 1e-12

    def test_monotone_decrease_noiseless_seed9(self):
        gt = synthesis.gen_ground_truth(10, 2, 8, 0.0, seed=9)
        b, _ = linalg.thin_qr(np.random.default_rng(2).standard_normal((10, 2)))
        q, dists = basis(b, gt), [linalg.principal_angle_dist(b, gt.b_star)]
        for t in range(1, 6):
            q, dist = fedrep.fedrep_round(q, gt, range(8), m=60, eta=0.1, seed=9, round_index=t)
            assert abs(dist - linalg.principal_angle_dist(q[:, :2], gt.b_star)) <= 1e-13
            dists.append(dist)
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_rotation_invariant_trajectory(self):
        gt = synthesis.gen_ground_truth(8, 2, 6, 0.2, seed=13)
        b, _ = linalg.thin_qr(np.random.default_rng(3).standard_normal((8, 2)))
        rot, _ = linalg.thin_qr(np.random.default_rng(4).standard_normal((2, 2)))
        s1, s2 = basis(b, gt), basis(b @ rot, gt)
        for t in range(1, 5):
            s1, d1 = fedrep.fedrep_round(s1, gt, range(6), m=25, eta=0.1, seed=13, round_index=t)
            s2, d2 = fedrep.fedrep_round(s2, gt, range(6), m=25, eta=0.1, seed=13, round_index=t)
            assert abs(d1 - d2) <= 1e-8

    def test_bad_participant(self):
        gt = synthesis.gen_ground_truth(5, 2, 4, 0.0, seed=14)
        with pytest.raises(SrpflError, match=r"participant 9 outside 0\.\.3"):
            fedrep.fedrep_round(gt.b_star, gt, [0, 9], m=20, eta=0.1, seed=14, round_index=1)
        with pytest.raises(SrpflError, match="need at least one participant"):
            fedrep.fedrep_round(gt.b_star, gt, [], m=20, eta=0.1, seed=14, round_index=1)

    def test_planted_zero_rho_ends_at_the_finiteness_check(self, monkeypatch):
        # rho = sqrt(chi2(m - k + 1)) > 0 almost surely, so a zero is planted in
        # the round's first chi-square draw, at the second participant (client
        # 2): its head is infinite, no local solve can fail, and the round ends
        # at span_basis's finiteness check with no RuntimeWarning (this suite
        # makes one an error); engine.run adds the stage and round
        class Planted:
            def __init__(self, rng, round_index):
                self.rng, self.plant = rng, round_index == 3

            def chisquare(self, df, size):
                roots = self.rng.chisquare(df, size)
                if self.plant:
                    roots[1], self.plant = 0.0, False
                return roots

            def standard_normal(self, size):
                return self.rng.standard_normal(size)

        monkeypatch.setattr(fedrep, "substream", lambda *key: Planted(synthesis.substream(*key), key[-1]))
        gt = synthesis.gen_ground_truth(5, 2, 4, 0.3, seed=15)
        not_finite = "QR factor is not finite: the input is not, or its column norms overflow"
        with pytest.raises(SrpflError) as raised:
            fedrep.fedrep_round(basis(gt.b_star, gt), gt, [0, 2, 3], m=20, eta=0.1, seed=15, round_index=3)
        assert str(raised.value) == not_finite
        config = engine.RunConfig(
            d=8, k=2, n_total=8, n0=2, m=30, sigma=0.2, seed=1, comm_cost=0.5, lam=1.0, c_hat=1.2,
            plan_mode="fixed", fixed_rounds=8, epsilon=0.0,
        )
        with pytest.raises(SrpflError) as raised:
            engine.run(config)
        assert str(raised.value) == f"stage 0, round 3: {not_finite}"

    @staticmethod
    def refused_before_any_draw(monkeypatch, gt, b, m, seed):
        drawn = []
        monkeypatch.setattr(fedrep, "substream", lambda *key: drawn.append(key))
        with pytest.raises(ConfigError, match=rf"^need m > k, got m={m}, k={gt.k}$"):
            fedrep.fedrep_round(basis(b, gt), gt, range(gt.n_clients), m=m, eta=0.5, seed=seed, round_index=1)
        assert drawn == []

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_batch_of_k_samples_is_refused_before_any_draw(self, monkeypatch, sigma):
        # m = k: every head would fit its k samples exactly and leave no residual
        gt = synthesis.gen_ground_truth(7, 3, 6, sigma, seed=16)
        b, _ = linalg.thin_qr(np.random.default_rng(5).standard_normal((7, 3)))
        self.refused_before_any_draw(monkeypatch, gt, b, m=3, seed=16)

    @pytest.mark.parametrize("m", [1, 2])
    def test_fewer_samples_than_k_is_refused_before_any_draw(self, monkeypatch, m):
        # m < k: no head is unique
        gt = synthesis.gen_ground_truth(7, 3, 6, 0.3, seed=17)
        b, _ = linalg.thin_qr(np.random.default_rng(6).standard_normal((7, 3)))
        self.refused_before_any_draw(monkeypatch, gt, b, m=m, seed=17)


def row_batches(gt, m, draws, seed):
    """``draws`` independent ``sample_batch`` row batches ``(x, y)`` of client 0, stacked 2000 at a time."""
    for start in range(1, draws + 1, 2000):
        x, y = zip(*(synthesis.sample_batch(gt, 0, m, t, seed) for t in range(start, start + 2000)))
        yield np.stack(x), np.stack(y)


def row_steps(gt, b, m, draws, seed):
    """One client's step on ``draws`` independent ``sample_batch`` row batches."""
    return np.concatenate([
        fedrep.rep_gradient_step(b, fedrep.head_update(b, x, y), x, y, 1.0) for x, y in row_batches(gt, m, draws, seed)
    ])


def client_moves(q, w, resid, tail, g):
    """Each client's own update ``X_i^T r_i w_i^T``, in the head frame of ``q``:
    the summed move of its statistics alone, with its own (d, 1) Gaussian ``g[i]``."""
    return np.stack([
        fedrep._summed_move(q, w[i:i + 1], resid[i:i + 1], tail[:, i:i + 1], g[i]) for i in range(len(w))
    ])


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance between the samples ``a`` and ``b``."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    return np.max(np.abs(np.searchsorted(a, grid, side="right") / len(a) - np.searchsorted(b, grid, side="right") / len(b)))


class TestBlockedRound:
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 35])
    @pytest.mark.parametrize("d, k, m", [(6, 2, 25), (12, 3, 8), (5, 3, 9), (12, 3, 4)])
    @pytest.mark.parametrize("sigma", [0.0, 0.4])
    def test_matches_per_client_loop(self, n, d, k, m, sigma):
        # each client's rows are the (k+1)-row factor rebuilt from its draw,
        # X = R[:, :p] q^T, standing for m samples, so X^T r lies in span(q):
        # the drawn head, ||r|| and the in-span part of the summed
        # move are the row loop's from b = q[:, :k].  The rest, (I - q q^T) z R_C
        # (d = 5 < 2k leaves none), must have R_C^T R_C = sum_i ||r_i||^2 w_i w_i^T,
        # the covariance of sum_i ||r_i|| g_i w_i^T; the round returns the basis
        # and distance of span_basis of the average of b plus the row loop's
        # moves plus that rest
        gt = synthesis.gen_ground_truth(d, k, 50, sigma, seed=21)
        q = basis(linalg.thin_qr(np.random.default_rng(n).standard_normal((d, k)))[0], gt)
        b = q[:, :k]
        ids = np.random.default_rng(n + 1).permutation(50)[:n]
        draw = fedrep._draw_round(n, k, q.shape[1], d, m, synthesis.substream(21, synthesis.TAG_ROUND, 1))
        w, resid, tail = fedrep._client_statistics(gt, q.T @ gt.b_star, ids, draw)
        factor_x, factor_y = fedrep._factor_rows(gt, q, ids, draw)
        row_moves, gram = np.zeros((d, k)), np.zeros((k, k))
        for i in range(n):
            x, y = factor_x[i] @ q.T, factor_y[i]
            w_rows = fedrep.head_update(b, x, y, m)
            np.testing.assert_allclose(w[i], w_rows, rtol=0, atol=1e-12)
            resid_rows = np.linalg.norm(x @ (b @ w_rows) - y)
            np.testing.assert_allclose(resid[i], resid_rows, rtol=1e-12, atol=1e-12)
            row_moves += fedrep.rep_gradient_step(b, w_rows, x, y, 0.2, m) - b
            gram += resid_rows**2 * np.outer(w[i], w[i])
        move = fedrep._summed_move(q, w, resid, tail, draw[-1])
        inside = q @ (q.T @ move)
        np.testing.assert_allclose(-(0.2 / m) * inside, row_moves, rtol=0, atol=1e-12)
        perp_z = draw[-1] - q @ (q.T @ draw[-1])
        if q.shape[1] < d:
            r_c = np.linalg.lstsq(perp_z, move - inside, rcond=None)[0]
            np.testing.assert_allclose(r_c.T @ r_c, gram, rtol=0, atol=1e-10 * max(1.0, np.abs(gram).max()))
        else:
            np.testing.assert_allclose(move - inside, 0.0, rtol=0, atol=1e-12)
        expected, expected_dist = linalg.span_basis(b + (row_moves - (0.2 / m) * (move - inside)) / n, gt.b_star)
        new, dist = fedrep.fedrep_round(q, gt, ids, m, 0.2, seed=21, round_index=1)
        np.testing.assert_allclose(new, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dist, expected_dist, rtol=0, atol=1e-12)

    def test_step_distribution_matches_rows_monte_carlo(self):
        # one client's step, 20 000 reduced draws against 20 000 sample_batch
        # row batches, in coordinates where the rows' step covariance is the
        # identity (on the complement of span(b): the head solve makes the
        # step's part inside span(b) degenerate); dist(b, B*) = 0.37.  Two
        # row samplers with different seeds differ here by 0.078 in
        # covariance and 3.2 standard errors in mean, the reduced sampler
        # by 0.080 and 2.3; a 5% error in the ||r|| term gives 0.13 and a
        # 10% error in sigma 0.20
        d, k, m, draws = 20, 2, 100, 20_000
        gt = synthesis.gen_ground_truth(d, k, 1, 0.5, seed=31)
        b, _ = linalg.thin_qr(gt.b_star + 0.07 * np.random.default_rng(32).standard_normal((d, k)))
        perp = np.linalg.svd(np.eye(d) - b @ b.T)[0][:, :d - k]
        q = basis(b, gt)
        vt = q[:, :k].T @ b
        rng = np.random.default_rng(33)
        reduced = []
        for _ in range(draws // 2000):
            draw = fedrep._draw_round(2000, k, q.shape[1], d, m, rng)
            stats = fedrep._client_statistics(gt, q.T @ gt.b_star, np.zeros(2000, dtype=int), draw)
            reduced.append(b - client_moves(q, *stats, rng.standard_normal((2000, d, 1))) @ vt / m)
        reduced = (perp.T @ np.concatenate(reduced)).reshape(draws, -1)
        rows = (perp.T @ row_steps(gt, b, m, draws, seed=31)).reshape(draws, -1)
        white = np.linalg.inv(np.linalg.cholesky(np.cov(rows.T)))
        z = (reduced - rows.mean(axis=0)) @ white.T
        cov = np.cov(z.T)
        assert np.linalg.norm(cov - np.eye(len(cov))) / np.sqrt(len(cov)) <= 0.10
        assert np.max(np.abs(z.mean(axis=0))) * np.sqrt(draws / 2) <= 4.0

    @pytest.mark.parametrize("d, k, m, sigma", [
        (20, 2, 100, 0.5), (20, 2, 3, 0.5), (20, 2, 3, 0.0), (40, 4, 30, 0.1), (12, 3, 4, 0.5),
    ], ids=["100-0.5", "3-0.5", "3-0.0", "dynamic_wide", "k3_m4"])
    def test_statistics_have_the_joint_law_of_the_rows(self, d, k, m, sigma):
        # 20 000 clients' head, ||r|| and A^T r from round draws against the
        # same of 20 000 sample_batch row batches fitted by head_update, in
        # the coordinates of q (p = 2k), compared by two-sample
        # Kolmogorov-Smirnov distance on each of the p + 1 numbers and on
        # each product of two, which couples them.  At m = k + 1 the head's
        # multivariate t has nu = m - k + 1 = 2 degrees of freedom and no
        # finite variance.  (40, 4, 30) is dynamic_wide's shape, where one
        # rho scales all four coordinates of a head.  Largest distance 0.016
        # over the five cases (two row samplers with different seeds read
        # 0.015 at m=100).  rho with nu + 1 degrees of freedom reads 0.078 at
        # (20, 2, 3) and 0.092 at (12, 3, 4), with nu - 1 0.128 and 0.129;
        # m = 100 and m = 30 see neither (0.013-0.017), nor one rho per
        # coordinate at m = 30 (0.016; 0.039 and 0.047 at m = k + 1).  At
        # d=20, k=2, measured on an earlier draw whose residual and A^T r
        # terms were these: t with one degree of freedom too many read 0.31
        # at m=3, ||u|| without sigma 0.36 and a 10% error in sigma 0.070 at
        # m=100, ||r|| 5% too large 0.27, and zeta not projected off u_hat
        # 0.050 to 0.20
        draws = 20_000
        gt = synthesis.gen_ground_truth(d, k, 1, sigma, seed=41)
        b, _ = linalg.thin_qr(np.random.default_rng(42).standard_normal((d, k)))
        q = basis(b, gt)
        draw = fedrep._draw_round(draws, k, q.shape[1], d, m, np.random.default_rng(43))
        w, resid, tail = fedrep._client_statistics(gt, q.T @ gt.b_star, np.zeros(draws, dtype=int), draw)
        reduced = np.column_stack([w, resid, -tail.T])
        rows = []
        for x, y in row_batches(gt, m, draws, seed=41):
            heads = fedrep.head_update(q[:, :k], x, y)
            r = (x @ (q[:, :k] @ heads[..., None]))[..., 0] - y
            a_r = (np.einsum("nij,ni->nj", x, r)) @ q
            assert np.max(np.abs(a_r[:, :k])) <= 1e-9 * (1.0 + np.max(np.abs(a_r)))
            rows.append(np.column_stack([heads, np.linalg.norm(r, axis=1), a_r[:, k:]]))
        rows = np.concatenate(rows)
        pairs = [(i, j) for i in range(reduced.shape[1]) for j in range(i, reduced.shape[1])]
        worst = max(
            ks_distance(reduced[:, i] * (reduced[:, j] if i != j else 1.0), rows[:, i] * (rows[:, j] if i != j else 1.0))
            for i, j in pairs
        )
        assert worst <= 0.03

    def test_stacked_singular_gram_names_its_client(self):
        # the client is named by its slice of the stack
        rng = np.random.default_rng(22)
        b = np.array([[1.0], [0.0]])
        x = rng.standard_normal((3, 4, 2))
        x[2, :, 0] = 0.0  # only the last client's samples are orthogonal to span(b)
        with pytest.raises(SrpflError, match="for slice 2 at m=4"):
            fedrep.head_update(b, x, rng.standard_normal((3, 4)))

    def test_stacked_nan_row_is_refused(self):
        # a NaN Gram eigenvalue fails `lambda_min > GRAM_TOL`; unrefused, the
        # second client's head would be NaN
        rng = np.random.default_rng(23)
        x = rng.standard_normal((3, 20, 4))
        x[1, 5, 2] = np.nan
        with pytest.raises(SrpflError, match=re.escape("(lambda_min=nan) for slice 1 at m=20")):
            fedrep.head_update(np.eye(4, 2), x, rng.standard_normal((3, 20)))

    def test_gershgorin_miss_is_still_solved(self, monkeypatch):
        # client 1's Gram [[1, .5], [.5, .3]] fails the Gershgorin bound
        # (.3 - .5 < 0) but has lambda_min 0.042 > GRAM_TOL; every slice goes
        # to one eigvalsh call, and every head is still the least-squares
        # solution
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
        w = fedrep.head_update(b, x, y)
        assert len(checked) == 1 and checked[0].shape == (3, 2, 2)
        np.testing.assert_allclose(checked[0][1], [[1.0, 0.5], [0.5, 0.3]], rtol=0, atol=1e-12)
        for i in range(3):
            np.testing.assert_allclose(w[i], np.linalg.lstsq(x[i], y[i], rcond=None)[0], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("corner, singular", [(1e7, True), (0.5, False)])
    def test_factor_head_check_is_not_diagonal_only(self, corner, singular):
        # three clients' rows are 2 x 2 triangles with a unit diagonal, standing
        # for m samples; the second client's [[1, 1e7], [0, 1]] has sigma_min^2
        # / m = 1e-16 <= GRAM_TOL and must be named by its slice, while with the
        # corner at 0.5 every head is the least-squares fit of labels rows lead + noise
        m, k = 100, 2
        rng = np.random.default_rng(26)
        rows = np.repeat(np.array([[[1.0, 0.5], [0.0, 1.0]]]), 3, axis=0)
        rows[1, 0, 1] = corner
        lead, noise = rng.standard_normal((2, 3, k))
        y = (rows @ lead[..., None])[..., 0] + noise
        if singular:
            with pytest.raises(SrpflError, match=r"projected Gram matrix singular .* for slice 1 at m=100"):
                fedrep.head_update(np.eye(k), rows, y, m)
            return
        w = fedrep.head_update(np.eye(k), rows, y, m)
        for i in range(3):
            np.testing.assert_allclose(w[i], np.linalg.lstsq(rows[i], y[i], rcond=None)[0], rtol=1e-12, atol=0)

    def test_round_lapack_budget(self, monkeypatch):
        # one well-conditioned round at n=256: the heads are drawn, not solved,
        # so no solve or eigendecomposition runs; one qr is the off-span factor
        # R_C, and one qr and one svd are span_basis's, which builds the next
        # basis, checks the step for collapse and measures its distance
        gt = synthesis.gen_ground_truth(20, 2, 256, 0.5, seed=27)
        q = basis(linalg.thin_qr(np.random.default_rng(28).standard_normal((20, 2)))[0], gt)
        calls = {name: 0 for name in ("solve", "eigvalsh", "eigh", "qr", "svd")}
        for name in calls:
            def spy(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        fedrep.fedrep_round(q, gt, range(256), m=100, eta=0.1, seed=27, round_index=1)
        assert calls["solve"] == calls["eigvalsh"] == calls["eigh"] == 0
        assert calls["qr"] == 2 and calls["svd"] == 1

    @pytest.mark.parametrize("n, k, m, d", [(256, 2, 100, 20), (256, 4, 30, 40)])
    def test_round_draw_budget(self, monkeypatch, n, k, m, d):
        # a round draws two chi-square calls of n, rho and then t, and n(p + 1)
        # + d min(n, k) normals: per client k for the head and p + 1 - k for
        # A^T r, seven values at d=20, k=2 (p=4) and eleven at d=40, k=4
        # (p=8), plus d k per round, and no n x d block
        p = 2 * k
        gt = synthesis.gen_ground_truth(d, k, n, 0.5, seed=29)
        b, _ = linalg.thin_qr(np.random.default_rng(30).standard_normal((d, k)))
        drawn = []

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def chisquare(self, df, size):
                drawn.append(("chisquare", df, int(np.prod(size))))
                return self.rng.chisquare(df, size)

            def standard_normal(self, size):
                drawn.append(("standard_normal", int(np.prod(size))))
                return self.rng.standard_normal(size)

        monkeypatch.setattr(fedrep, "substream", lambda *key: Counting(synthesis.substream(*key)))
        fedrep.fedrep_round(basis(b, gt), gt, range(n), m=m, eta=0.1, seed=29, round_index=1)
        assert drawn == [
            ("chisquare", m - k + 1, n), ("chisquare", m - k, n), ("standard_normal", n * (p + 1) + d * min(n, k)),
        ]

    def test_one_singular_client_among_many_is_named(self):
        # 300 well-conditioned clients and one, slice 217, whose projected
        # samples are collinear; the message carries its eigvalsh lambda_min
        m, b = 50, np.eye(3)[:, :2]
        rng = np.random.default_rng(25)
        x = rng.standard_normal((301, m, 3))
        x[217, :, 1] = 0.5 * x[217, :, 0]
        xb = x @ b
        lam = np.linalg.eigvalsh(xb[217].T @ xb[217] / m)[0]
        assert lam <= fedrep.GRAM_TOL
        with pytest.raises(SrpflError, match=re.escape(f"(lambda_min={lam:.3e}) for slice 217 at m={m}")):
            fedrep.head_update(b, x, rng.standard_normal((301, m)))

    def test_basis_without_b_star_is_refused_before_any_draw(self, monkeypatch):
        # a plain orthonormal b: the round would drop each label's part outside span(b)
        gt = synthesis.gen_ground_truth(20, 2, 8, 0.1, seed=15)
        b, _ = linalg.thin_qr(np.random.default_rng(16).standard_normal((20, 2)))
        held = float(np.linalg.norm(b.T @ gt.b_star) ** 2)
        monkeypatch.setattr(fedrep, "substream", None)
        with pytest.raises(SrpflError) as refused:
            fedrep.fedrep_round(b, gt, range(8), m=100, eta=0.1, seed=15, round_index=1)
        assert str(refused.value) == f"round basis does not hold B*: ||q^T B*||_F^2 = {held:.6g}, not k = 2"
        # m and the ids are checked first
        with pytest.raises(ConfigError, match="need m > k"):
            fedrep.fedrep_round(b, gt, range(8), m=2, eta=0.1, seed=15, round_index=1)
        with pytest.raises(SrpflError, match="participant 9 outside"):
            fedrep.fedrep_round(b, gt, [0, 9], m=100, eta=0.1, seed=15, round_index=1)

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
    # m < d; each client's rows, replayed from the warm start's one stream,
    # summed client by client as the per-client moment matrices P_i; the
    # bulk sum adds the same products in another order, so the two agree to
    # rounding
    gt = synthesis.gen_ground_truth(12, 3, 40, 0.3, seed=23)
    ids, m = list(range(35)), 8
    rows = synthesis.substream(23, synthesis.TAG_WARM_START).standard_normal((len(ids) * m, 13))
    p_bar = np.zeros((12, 12))
    for i, cid in enumerate(ids):
        x, z = rows[i * m:(i + 1) * m, :12], rows[i * m:(i + 1) * m, 12]
        y = x @ (gt.b_star @ gt.w_star[cid]) + gt.sigma * z
        p_bar += (x.T * y**2) @ x / m
    expected = linalg.rank_k_eig(p_bar / len(ids), 3)
    np.testing.assert_allclose(fedrep.method_of_moments_init(gt, ids, m, seed=23), expected, rtol=0, atol=1e-12)


def test_warm_start_does_not_depend_on_its_block_size(monkeypatch):
    # 280 rows in blocks of 7 rows, which straddle the clients' 8-row batches
    gt = synthesis.gen_ground_truth(12, 3, 40, 0.3, seed=24)
    default = fedrep.method_of_moments_init(gt, range(35), 8, seed=24)
    monkeypatch.setattr(fedrep, "WARM_START_ROWS", 7)
    np.testing.assert_allclose(fedrep.method_of_moments_init(gt, range(35), 8, seed=24), default, rtol=0, atol=1e-12)


def test_warm_start_draws_from_one_stream(monkeypatch):
    gt = synthesis.gen_ground_truth(10, 2, 200, 0.1, seed=25)
    drawn = []

    def recording(*key):
        drawn.append(key)
        return synthesis.substream(*key)

    def refused(*args, **kwargs):
        raise AssertionError("the warm start drew a sample_batch")

    monkeypatch.setattr(fedrep, "substream", recording)
    monkeypatch.setattr(synthesis, "sample_batch", refused)
    monkeypatch.setattr(fedrep, "sample_batch", refused, raising=False)
    fedrep.method_of_moments_init(gt, range(128), 30, seed=25)
    assert drawn == [(25, synthesis.TAG_WARM_START)]


@st.composite
def round_cases(draw):
    """Small (d, k, m > k, n, sigma) and the seed of ``b``.  d >= 2k: below it
    span(b) and span(B*) share directions whose principal vectors are not
    unique, so the round's basis, and with it a draw's realization, though
    not its law, depends on b's columns."""
    k = draw(st.integers(1, 3))
    return (
        draw(st.integers(2 * k, 8)), k, draw(st.integers(k + 1, k + 12)), draw(st.integers(1, 6)),
        draw(st.just(0.0) | st.floats(0.01, 2.0)), draw(st.integers(0, 2**16)),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(round_cases())
def test_round_is_a_pure_function_of_the_span(case):
    d, k, m, n, sigma, seed = case
    gt = synthesis.gen_ground_truth(d, k, n, sigma, seed=seed)
    rng = np.random.default_rng(seed)
    b, _ = linalg.thin_qr(rng.standard_normal((d, k)))
    rot, _ = linalg.thin_qr(rng.standard_normal((k, k)))
    new, dist = fedrep.fedrep_round(basis(b, gt), gt, range(n), m, 0.2, seed, round_index=3)
    assert new.shape == (d, 2 * k) and np.isfinite(new).all() and linalg.is_orthonormal(new)
    again, again_dist = fedrep.fedrep_round(basis(b, gt), gt, range(n), m, 0.2, seed, round_index=3)
    assert again.tobytes() == new.tobytes() and again_dist == dist
    turned, turned_dist = fedrep.fedrep_round(basis(b @ rot, gt), gt, range(n), m, 0.2, seed, round_index=3)
    assert linalg.principal_angle_dist(new[:, :k], turned[:, :k]) <= 1e-10
    assert abs(dist - turned_dist) <= 1e-10


def test_round_warm_start_and_batch_refuse_ids_in_the_same_words_before_any_draw(monkeypatch):
    # the hidden model's one check of a participant list, run before the first draw
    gt = synthesis.gen_ground_truth(5, 2, 4, 0.0, seed=14)
    drawn = []
    real_substream = synthesis.substream

    def recording(*key):
        drawn.append(key)
        return real_substream(*key)

    monkeypatch.setattr(synthesis, "substream", recording)  # the warm start's batches
    monkeypatch.setattr(fedrep, "substream", recording)     # the round's draw
    calls = [
        lambda ids: fedrep.fedrep_round(gt.b_star, gt, ids, m=20, eta=0.1, seed=14, round_index=1),
        lambda ids: fedrep.method_of_moments_init(gt, ids, 20, seed=14),
    ]
    cases = (
        ([0, 9], "participant 9 outside 0..3"),
        ([], "need at least one participant"),
        ([1.7], "participant ids must be integers, got [1.7]"),  # not truncated to client 1
    )
    for ids, message in cases:
        for call in calls:
            with pytest.raises(SrpflError) as refused:
                call(ids)
            assert str(refused.value) == message
    for client, message in (
        (9, "participant 9 outside 0..3"),
        (1.5, "participant ids must be integers, got [1.5]"),
        ([0, 1], "sample_batch draws one client's batch, got 2 ids"),
    ):
        with pytest.raises(SrpflError) as refused:
            synthesis.sample_batch(gt, client, 20, 0, seed=14)
        assert str(refused.value) == message
    assert drawn == []


def test_one_id_alone_or_in_a_list_is_one_participant_at_every_draw():
    # each draw indexes with the ids the participant check returns, so a
    # scalar id and a one-id list draw alike
    gt = synthesis.gen_ground_truth(5, 2, 4, 0.3, seed=14)
    q = basis(gt.b_star, gt)
    for draw in (
        lambda ids: fedrep.fedrep_round(q, gt, ids, m=20, eta=0.1, seed=14, round_index=1)[0],
        lambda ids: fedrep.method_of_moments_init(gt, ids, 20, seed=14),
        lambda ids: synthesis.sample_batch(gt, ids, 20, 0, seed=14)[1],
    ):
        assert draw(3).tobytes() == draw([3]).tobytes() == draw(np.array([3])).tobytes()
