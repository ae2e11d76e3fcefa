import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        (math.inf, 0, "sigma must be finite"), (-math.inf, 0, "sigma must be finite"),
        (math.nan, 0, "sigma must be finite"), (0.1, -1, "seed must be >= 0"),
    ])
    def test_non_finite_sigma_or_negative_seed(self, sigma, seed, message):
        with pytest.raises(ConfigError, match=message):
            synthesis.gen_ground_truth(3, 1, 1, sigma, seed=seed)

    def test_a_hand_built_model_reads_its_sizes_from_its_arrays(self):
        # three heads: id 5 is refused by the check, not by an IndexError in a round
        gt = synthesis.GroundTruthModel(b_star=np.eye(5, 2), w_star=np.ones((3, 2)), sigma=0.1)
        assert (gt.d, gt.k, gt.n_clients) == (5, 2, 3)
        with pytest.raises(SrpflError) as refused:
            gt.check_participants([5])
        assert str(refused.value) == "participant 5 outside 0..2"


class TestSampleBatch:
    def test_noiseless_labels_follow_linear_model(self):
        gt = synthesis.gen_ground_truth(4, 2, 3, 0.0, seed=1)
        x, y = synthesis.sample_batch(gt, 2, 16, 3, seed=1)
        np.testing.assert_allclose(y, x @ (gt.b_star @ gt.w_star[2]), atol=1e-12)

    def test_identity_model_1d(self):
        # d = k = 1: y = (b* w*) x with b* w* = +-1, so |y| = |x| exactly
        gt = synthesis.gen_ground_truth(1, 1, 1, 0.0, seed=3)
        x, y = synthesis.sample_batch(gt, 0, 8, 0, seed=3)
        gain = float(gt.b_star[0, 0] * gt.w_star[0, 0])
        assert abs(abs(gain) - 1.0) <= 1e-12
        np.testing.assert_allclose(y, gain * x[:, 0], atol=1e-12)

    def test_determinism_bit_identical(self):
        gt = synthesis.gen_ground_truth(6, 2, 5, 0.4, seed=9)
        x1, y1 = synthesis.sample_batch(gt, 3, 10, 7, seed=9)
        x2, y2 = synthesis.sample_batch(gt, 3, 10, 7, seed=9)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_distinct_rounds_are_fresh(self):
        gt = synthesis.gen_ground_truth(6, 2, 5, 0.0, seed=9)
        x1, _ = synthesis.sample_batch(gt, 3, 10, 7, seed=9)
        x2, _ = synthesis.sample_batch(gt, 3, 10, 8, seed=9)
        assert not np.array_equal(x1, x2)

    def test_client_out_of_range(self):
        gt = synthesis.gen_ground_truth(4, 1, 2, 0.0, seed=0)
        with pytest.raises(SrpflError, match=r"participant 2 outside 0\.\.1"):
            synthesis.sample_batch(gt, 2, 5, 0, seed=0)

    def test_empty_batch(self):
        gt = synthesis.gen_ground_truth(4, 2, 3, 0.1, seed=0)
        with pytest.raises(ConfigError, match="batch size must be >= 1, got 0"):
            synthesis.sample_batch(gt, 0, 0, 1, seed=0)

    def test_first_moment_monte_carlo(self):
        # E[y x] = B* w*; sample mean within 3% of it in norm at m = 1e5
        gt = synthesis.gen_ground_truth(5, 2, 1, 0.0, seed=13)
        x, y = synthesis.sample_batch(gt, 0, 100_000, 0, seed=13)
        target = gt.b_star @ gt.w_star[0]
        observed = x.T @ y / len(y)
        assert np.linalg.norm(observed - target) <= 0.03 * np.linalg.norm(target)

    def test_second_moment_identity_monte_carlo(self):
        # E[y^2 x x^T] = 2 B* w* w*^T B*^T + (|w*|^2 + sigma^2) I
        gt = synthesis.gen_ground_truth(4, 2, 1, 0.5, seed=17)
        x, y = synthesis.sample_batch(gt, 0, 200_000, 0, seed=17)
        v = gt.b_star @ gt.w_star[0]
        target = 2 * np.outer(v, v) + (v @ v + gt.sigma**2) * np.eye(4)
        observed = (x.T * y**2) @ x / len(y)
        err = np.linalg.norm(observed - target, 2) / np.linalg.norm(target, 2)
        assert err <= 0.05


def test_substream_tags_are_distinct():
    tags = {name: value for name, value in vars(synthesis).items() if name.startswith("TAG_")}
    assert len(set(tags.values())) == len(tags)
    # each keys some draw: its name appears in the package beyond its own definition
    source = "\n".join(path.read_text() for path in Path(synthesis.__file__).parent.glob("*.py"))
    assert [name for name in tags if len(re.findall(rf"\b{name}\b", source)) < 2] == []


TAGS = sorted(value for name, value in vars(synthesis).items() if name.startswith("TAG_"))
ORACLE_SEEDS = [0, 1, 41, 2**32 - 1, 2**32, 2**64 + 5, 10**20, 2**128 - 1, 2**128, 2**200 + 7]
# the seed's words are zero-padded to four before a key, a seed of four words or more is not,
# and its words past the pool size are mixed in late; an element of 2**32 or more is two words;
# the last element's states are hashed in blocks of 64 values, so both sides of each block and
# word boundary are held to the oracle
ORACLE_PARTS = ([0, 63, 64, 65, 2**32 - 64, 2**32 - 1, 2**32, 2**40, 2**64 - 1, 2**64, np.int64(7), np.uint64(2**63)]
                + TAGS)
ORACLE_KEYS = ([(part,) for part in ORACLE_PARTS] + [(tag, part) for tag in TAGS for part in ORACLE_PARTS]
               + [(synthesis.TAG_BATCH, part, 2**32 + 3) for part in ORACLE_PARTS])


def assert_substream_is_numpys(seed, key):
    ours = synthesis.substream(seed, *key)
    oracle = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    assert ours.bit_generator.state == oracle.bit_generator.state
    np.testing.assert_array_equal(ours.standard_normal(5), oracle.standard_normal(5))
    np.testing.assert_array_equal(ours.integers(0, 2**62, 3), oracle.integers(0, 2**62, 3))


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_substream_is_numpys_seed_sequence_stream(seed):
    for key in ORACLE_KEYS:
        assert_substream_is_numpys(seed, key)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**130), st.lists(st.integers(0, 2**70), min_size=1, max_size=4))
def test_substream_is_numpys_for_any_seed_and_key(seed, key):
    # every key starts with a tag, and words past the pool size are mixed in late
    assert_substream_is_numpys(seed, tuple(key))


def oracle_state(seed, key):
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)


@pytest.mark.parametrize("prefix, block", [
    ((), 0), ((synthesis.TAG_ROUND,), 0), ((synthesis.TAG_ROUND,), 2**26 - 1), ((synthesis.TAG_ROUND,), 2**26),
    ((synthesis.TAG_BATCH, 2**40), 2**58), ((synthesis.TAG_BATCH, 5), 2**70),
], ids=["tags", "rounds", "below_2_32", "from_2_32", "from_2_64", "from_2_76"])
def test_a_block_of_states_is_read_only_contiguous_and_numpys(prefix, block):
    # PCG64 reads a state row's memory as it lies, so a strided row would be misread; every call shares the block
    states = synthesis._block_states(41, prefix, block)
    assert states.shape == (synthesis._BLOCK, 4) and states.dtype == np.uint64
    assert states.flags.c_contiguous and not states.flags.writeable
    for row, state in enumerate(states):
        np.testing.assert_array_equal(state, oracle_state(41, prefix + (block * synthesis._BLOCK + row,)))


def test_an_evicted_block_is_hashed_again_bit_for_bit():
    cache = synthesis._block_states
    key = (synthesis.TAG_ROUND, 70)
    first = synthesis.substream(3, *key).standard_normal(4)
    for block in range(cache.cache_info().maxsize):
        cache(4, (synthesis.TAG_ROUND,), block)
    misses = cache.cache_info().misses
    assert_substream_is_numpys(3, key)
    assert cache.cache_info().misses == misses + 1
    np.testing.assert_array_equal(synthesis.substream(3, *key).standard_normal(4), first)
