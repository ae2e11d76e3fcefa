import math

import numpy as np
import pytest

from srpfl import linalg, synthesis
from srpfl.errors import ConfigError, SrpflError


class TestGroundTruth:
    def test_full_rank_square_case(self):
        gt = synthesis.gen_ground_truth(3, 3, 1, 0.0, seed=0)
        assert linalg.is_orthonormal(gt.b_star)
        assert np.linalg.norm(gt.w_star[0]) == pytest.approx(np.sqrt(3), abs=1e-9)

    def test_head_norms_sqrt_k(self):
        gt = synthesis.gen_ground_truth(8, 3, 20, 0.2, seed=5)
        np.testing.assert_allclose(
            np.linalg.norm(gt.w_star, axis=1), np.sqrt(3), atol=1e-9
        )

    def test_k1_heads_are_signs(self):
        gt = synthesis.gen_ground_truth(6, 1, 12, 0.0, seed=2)
        assert set(np.round(gt.w_star.ravel(), 12)) <= {1.0, -1.0}

    def test_client_diversity_seed7(self):
        # full head matrix has rank k with positive smallest singular value
        gt = synthesis.gen_ground_truth(10, 2, 50, 0.0, seed=7)
        sv = np.linalg.svd(gt.w_star / np.sqrt(50), compute_uv=False)
        assert np.linalg.matrix_rank(gt.w_star) == 2
        assert sv[-1] > 0

    def test_deterministic_in_seed(self):
        a = synthesis.gen_ground_truth(5, 2, 4, 0.3, seed=11)
        b = synthesis.gen_ground_truth(5, 2, 4, 0.3, seed=11)
        np.testing.assert_array_equal(a.b_star, b.b_star)
        np.testing.assert_array_equal(a.w_star, b.w_star)

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            synthesis.gen_ground_truth(2, 3, 1, 0.0, seed=0)
        with pytest.raises(ConfigError):
            synthesis.gen_ground_truth(3, 1, 0, 0.0, seed=0)
        with pytest.raises(ConfigError):
            synthesis.gen_ground_truth(3, 1, 1, -0.5, seed=0)

    @pytest.mark.parametrize("sigma, seed, message", [
        (math.inf, 0, "noise std must be finite"), (-math.inf, 0, "noise std must be finite"),
        (math.nan, 0, "noise std must be finite"), (0.1, -1, "seed must be >= 0"),
    ])
    def test_non_finite_sigma_or_negative_seed(self, sigma, seed, message):
        with pytest.raises(ConfigError, match=message):
            synthesis.gen_ground_truth(3, 1, 1, sigma, seed=seed)


class TestSampleBatch:
    def test_noiseless_labels_follow_linear_model(self):
        gt = synthesis.gen_ground_truth(4, 2, 3, 0.0, seed=1)
        batch = synthesis.sample_batch(gt, 2, 16, 3, seed=1)
        expected = batch.x @ (gt.b_star @ gt.w_star[2])
        np.testing.assert_allclose(batch.y, expected, atol=1e-12)

    def test_identity_model_1d(self):
        # d = k = 1: y = (b* w*) x with b* w* = +-1, so |y| = |x| exactly
        gt = synthesis.gen_ground_truth(1, 1, 1, 0.0, seed=3)
        batch = synthesis.sample_batch(gt, 0, 8, 0, seed=3)
        gain = float(gt.b_star[0, 0] * gt.w_star[0, 0])
        assert abs(abs(gain) - 1.0) <= 1e-12
        np.testing.assert_allclose(batch.y, gain * batch.x[:, 0], atol=1e-12)

    def test_determinism_bit_identical(self):
        gt = synthesis.gen_ground_truth(6, 2, 5, 0.4, seed=9)
        b1 = synthesis.sample_batch(gt, 3, 10, 7, seed=9)
        b2 = synthesis.sample_batch(gt, 3, 10, 7, seed=9)
        np.testing.assert_array_equal(b1.x, b2.x)
        np.testing.assert_array_equal(b1.y, b2.y)

    def test_distinct_rounds_are_fresh(self):
        gt = synthesis.gen_ground_truth(6, 2, 5, 0.0, seed=9)
        b1 = synthesis.sample_batch(gt, 3, 10, 7, seed=9)
        b2 = synthesis.sample_batch(gt, 3, 10, 8, seed=9)
        assert not np.array_equal(b1.x, b2.x)

    def test_client_out_of_range(self):
        gt = synthesis.gen_ground_truth(4, 1, 2, 0.0, seed=0)
        with pytest.raises(SrpflError, match=r"client 2 outside 0\.\.1"):
            synthesis.sample_batch(gt, 2, 5, 0, seed=0)

    def test_empty_batch(self):
        gt = synthesis.gen_ground_truth(4, 2, 3, 0.1, seed=0)
        with pytest.raises(ConfigError, match="batch size must be >= 1, got 0"):
            synthesis.sample_batch(gt, 0, 0, 1, seed=0)

    def test_first_moment_monte_carlo(self):
        # E[y x] = B* w*; sample mean within 3% of it in norm at m = 1e5
        gt = synthesis.gen_ground_truth(5, 2, 1, 0.0, seed=13)
        batch = synthesis.sample_batch(gt, 0, 100_000, 0, seed=13)
        target = gt.b_star @ gt.w_star[0]
        observed = batch.x.T @ batch.y / len(batch.y)
        assert np.linalg.norm(observed - target) <= 0.03 * np.linalg.norm(target)

    def test_second_moment_identity_monte_carlo(self):
        # E[y^2 x x^T] = 2 B* w* w*^T B*^T + (|w*|^2 + sigma^2) I
        gt = synthesis.gen_ground_truth(4, 2, 1, 0.5, seed=17)
        batch = synthesis.sample_batch(gt, 0, 200_000, 0, seed=17)
        v = gt.b_star @ gt.w_star[0]
        target = 2 * np.outer(v, v) + (v @ v + gt.sigma**2) * np.eye(4)
        observed = (batch.x.T * batch.y**2) @ batch.x / len(batch.y)
        err = np.linalg.norm(observed - target, 2) / np.linalg.norm(target, 2)
        assert err <= 0.05


def test_substream_tags_are_distinct():
    tags = {name: value for name, value in vars(synthesis).items() if name.startswith("TAG_")}
    assert len(tags) == 9
    assert len(set(tags.values())) == len(tags)
