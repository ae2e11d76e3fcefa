import numpy as np
import pytest

from srpfl import fedrep, linalg, synthesis
from srpfl.errors import (
    AllZeroMoments,
    ClientOutOfRange,
    EmptyParticipants,
    RankDeficient,
    SingularGram,
)


def make_batch(x, y, client=0, rnd=1):
    return synthesis.Batch(
        x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=float),
        client_id=client, round_index=rnd,
    )


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
        with pytest.raises(SingularGram):
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


class TestServerAggregate:
    def test_identical_inputs_preserve_span(self):
        b, _ = linalg.thin_qr(np.random.default_rng(3).standard_normal((5, 2)))
        out, _ = fedrep.server_aggregate([b, b, b], 3)
        assert linalg.principal_angle_dist(out, b) <= 1e-12

    def test_cancellation_is_rank_deficient(self):
        b, _ = linalg.thin_qr(np.random.default_rng(3).standard_normal((5, 2)))
        with pytest.raises(RankDeficient):
            fedrep.server_aggregate([b, -b], 2)

    def test_mean_qr_invariants_seed5(self):
        rng = np.random.default_rng(5)
        mats = [rng.standard_normal((4, 2)) for _ in range(3)]
        out, r = fedrep.server_aggregate(mats, 3)
        mean = sum(mats) / 3
        assert np.linalg.norm(out @ r - mean) <= 1e-9 * np.linalg.norm(mean)
        assert np.linalg.norm(out.T @ out - np.eye(2)) <= 1e-10

    def test_empty(self):
        with pytest.raises(EmptyParticipants):
            fedrep.server_aggregate([], 0)


class TestMethodOfMoments:
    def test_single_client_large_m(self):
        gt = synthesis.gen_ground_truth(5, 1, 1, 0.0, seed=42)
        init = fedrep.method_of_moments_init(gt, [0], 100_000, seed=42)
        assert linalg.principal_angle_dist(init, gt.b_star) <= 0.1

    def test_all_zero_labels(self):
        gt = synthesis.gen_ground_truth(4, 1, 2, 0.0, seed=0)
        silent = synthesis.GroundTruthModel(
            b_star=gt.b_star, w_star=np.zeros_like(gt.w_star), sigma=0.0,
            d=4, k=1, n_clients=2, seed=0,
        )
        with pytest.raises(AllZeroMoments):
            fedrep.method_of_moments_init(silent, [0, 1], 10, seed=0)

    def test_full_dimensional_subspace(self):
        # d = k: any full-rank average spans all of R^d
        gt = synthesis.gen_ground_truth(3, 3, 4, 0.3, seed=6)
        init = fedrep.method_of_moments_init(gt, range(4), 50, seed=6)
        assert linalg.principal_angle_dist(init, gt.b_star) <= 1e-10


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
        with pytest.raises(ClientOutOfRange):
            fedrep.fedrep_round(gt.b_star, gt, [0, 9], m=20, eta=0.1, seed=14, round_index=1)
        with pytest.raises(EmptyParticipants):
            fedrep.fedrep_round(gt.b_star, gt, [], m=20, eta=0.1, seed=14, round_index=1)

    def test_singular_gram_names_client(self):
        gt = synthesis.gen_ground_truth(5, 2, 4, 0.0, seed=15)
        with pytest.raises(SingularGram, match="client"):
            fedrep.fedrep_round(gt.b_star, gt, [0, 1], m=1, eta=0.1, seed=15, round_index=1)


def reference_round(b, gt, ids, m, eta, seed, round_index):
    """Per-client loop: single batches, a sequential sum, then the QR."""
    total = np.zeros_like(b)
    for cid in ids:
        batch = synthesis.sample_batch(gt, cid, m, round_index, seed)
        w = fedrep.head_update(b, batch)
        total += fedrep.rep_gradient_step(b, w, batch, eta)
    return linalg.thin_qr(total / len(ids))[0]


class TestBlockedRound:
    @pytest.mark.parametrize("n", [
        1, 2, fedrep.BLOCK - 1, fedrep.BLOCK, fedrep.BLOCK + 1, 2 * fedrep.BLOCK + 3,
    ])
    @pytest.mark.parametrize("d, k, m", [(6, 2, 25), (12, 3, 8)])
    @pytest.mark.parametrize("sigma", [0.0, 0.4])
    def test_matches_per_client_loop(self, n, d, k, m, sigma):
        gt = synthesis.gen_ground_truth(d, k, 50, sigma, seed=21)
        b, _ = linalg.thin_qr(np.random.default_rng(n).standard_normal((d, k)))
        ids = np.random.default_rng(n + 1).permutation(50)[:n]
        for t in (1, 2):
            expected = reference_round(b, gt, ids, m, 0.2, 21, t)
            b = fedrep.fedrep_round(b, gt, ids, m, eta=0.2, seed=21, round_index=t)
            assert np.array_equal(b, expected)

    def test_stacked_singular_gram_names_its_client(self):
        rng = np.random.default_rng(22)
        b = np.array([[1.0], [0.0]])
        x = rng.standard_normal((3, 4, 2))
        x[2, :, 0] = 0.0  # only the last client's samples are orthogonal to span(b)
        batch = synthesis.Batch(
            x=x, y=rng.standard_normal((3, 4)), client_id=np.array([7, 3, 9]), round_index=1,
        )
        with pytest.raises(SingularGram, match="client 9"):
            fedrep.head_update(b, batch)

    def test_bad_participant_raises_before_any_draw(self, monkeypatch):
        gt = synthesis.gen_ground_truth(5, 2, 4, 0.0, seed=14)
        drawn = []

        def recording(gt, client, *args):
            drawn.append(client)
            return synthesis.sample_batch(gt, client, *args)

        monkeypatch.setattr(fedrep, "sample_batch", recording)
        with pytest.raises(ClientOutOfRange, match="participant 9"):
            fedrep.fedrep_round(gt.b_star, gt, [0, 1, 9], m=20, eta=0.1, seed=14, round_index=1)
        assert drawn == []


def test_warm_start_matches_per_client_loop():
    # m < d, and more participants than one block
    gt = synthesis.gen_ground_truth(12, 3, 40, 0.3, seed=23)
    ids = list(range(2 * fedrep.BLOCK + 3))
    p_bar = np.zeros((12, 12))
    for cid in ids:
        batch = synthesis.sample_batch(gt, cid, 8, round_index=0, seed=23)
        p_bar += (batch.x.T * batch.y**2) @ batch.x / 8
    expected = linalg.rank_k_eig(p_bar / len(ids), 3)
    assert np.array_equal(fedrep.method_of_moments_init(gt, ids, 8, seed=23), expected)
