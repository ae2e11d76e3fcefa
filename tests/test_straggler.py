import math
import re
from fractions import Fraction

import numpy as np
import pytest

from srpfl import straggler
from srpfl.errors import ConfigError, SrpflError
from srpfl.straggler import SpeedModel
from srpfl.synthesis import TAG_FIXED_TIMES, substream


def order_stat_oracle(n, j, lam):
    """Independent evaluation via exact rational harmonic sums."""
    return float(sum(Fraction(1, i) for i in range(n - j + 1, n + 1))) / lam


def sort_oracle(times):
    """Every slot, fastest first, ties by lowest index, by Python's sort."""
    return sorted(range(len(times)), key=lambda i: (times[i], i))


def literal(times):
    """A model whose every round has exactly these times and no communication cost."""
    return SpeedModel(lam=1.0, comm_cost=0.0, seed=0, times=np.array(times, dtype=float))


class TestDrawRoundTimes:
    def test_fixed_same_every_round(self):
        model = SpeedModel.fixed(10, lam=2.0, comm_cost=0.5, seed=4)
        t3 = straggler.draw_round_times(model, 3)
        t7 = straggler.draw_round_times(model, 7)
        np.testing.assert_array_equal(t3, t7)
        assert np.all(t3 > 0)

    def test_fixed_drawn_once_read_only(self):
        model = SpeedModel.fixed(10, lam=2.0, comm_cost=0.5, seed=4)
        times = straggler.draw_round_times(model, 3)
        fresh = substream(4, TAG_FIXED_TIMES).exponential(0.5, size=10)
        np.testing.assert_array_equal(times, fresh)
        assert times is model.times and straggler.draw_round_times(model, 7) is times
        with pytest.raises(ValueError):
            times[0] = 1.0

    def test_fixed_order_computed_once_read_only(self):
        model = SpeedModel.fixed(50, lam=2.0, seed=4)
        np.testing.assert_array_equal(model.order, sort_oracle(model.times))
        slots, _ = straggler.select_fastest(model, 3, 50)
        assert np.shares_memory(slots, model.order)
        with pytest.raises(ValueError):
            model.order[0] = 1

    def test_dynamic_order_follows_the_round(self):
        model = SpeedModel.dynamic(50, seed=4)
        assert model.order is None
        for round_index in (3, 7):
            times = straggler.draw_round_times(model, round_index)
            slots, _ = straggler.select_fastest(model, round_index, 50)
            np.testing.assert_array_equal(slots, sort_oracle(times))

    def test_dynamic_fresh_every_round(self):
        model = SpeedModel.dynamic(10, comm_cost=0.0, seed=4)
        t3 = straggler.draw_round_times(model, 3)
        t7 = straggler.draw_round_times(model, 7)
        assert t3.shape == (10,) and not np.array_equal(t3, t7)
        np.testing.assert_array_equal(t3, straggler.draw_round_times(model, 3))

    def test_fixed_mean_monte_carlo(self):
        model = SpeedModel.fixed(100_000, lam=1.0, seed=0)
        times = straggler.draw_round_times(model, 0)
        assert abs(times.mean() - 1.0) <= 0.02

    def test_dynamic_rates_in_range(self):
        model = SpeedModel.dynamic(64, seed=1)
        assert np.all(model.per_client_rates > 1 / 64 - 1e-12)
        assert np.all(model.per_client_rates <= 1.0)


class TestSelectFastest:
    def test_hand_example(self):
        slots, round_time = straggler.select_fastest(literal([3.0, 1.0, 2.0]), 1, 2)
        np.testing.assert_array_equal(slots, [1, 2])
        assert round_time == 2.0

    def test_all(self):
        slots, round_time = straggler.select_fastest(literal([5.0, 1.0, 3.0]), 1, 3)
        assert set(slots.tolist()) == {0, 1, 2}
        assert round_time == 5.0

    def test_sort_oracle_seed6(self):
        times = np.random.default_rng(6).exponential(size=20)
        slots, _ = straggler.select_fastest(literal(times), 1, 5)
        np.testing.assert_array_equal(slots, sort_oracle(times)[:5])

    def test_nested_prefix_property(self):
        model = literal(np.random.default_rng(8).exponential(size=30))
        prev, _ = straggler.select_fastest(model, 1, 1)
        for n in range(2, 31):
            cur, _ = straggler.select_fastest(model, 1, n)
            np.testing.assert_array_equal(cur[: n - 1], prev)
            prev = cur

    def test_tie_break_lowest_index(self):
        slots, _ = straggler.select_fastest(literal([1.0, 1.0, 1.0]), 1, 2)
        np.testing.assert_array_equal(slots, [0, 1])

    def test_too_large(self):
        with pytest.raises(SrpflError, match="cannot select 3 of 2 clients"):
            straggler.select_fastest(literal([1.0, 2.0]), 1, 3)

    def test_fixed_slots_are_a_prefix_of_order(self, monkeypatch):
        # the fixed model ranks its times once; no round re-ranks them
        model = SpeedModel.fixed(20, lam=2.0, comm_cost=0.5, seed=4)
        monkeypatch.setattr(np, "argsort", lambda *args, **kwargs: pytest.fail("re-ranked"))
        for round_index, n in ((1, 1), (2, 7), (3, 20), (4, 7)):
            slots, round_time = straggler.select_fastest(model, round_index, n)
            np.testing.assert_array_equal(slots, model.order[:n])
            assert round_time == float(np.max(model.times[slots])) + 0.5

    def test_dynamic_ranks_each_rounds_fresh_times(self):
        model = SpeedModel.dynamic(30, comm_cost=0.25, seed=4)
        picks = []
        for round_index in (1, 2):
            times = straggler.draw_round_times(model, round_index)
            slots, round_time = straggler.select_fastest(model, round_index, 10)
            np.testing.assert_array_equal(slots, sort_oracle(times)[:10])
            assert round_time == float(np.max(times[slots])) + 0.25
            picks.append(slots)
        assert not np.array_equal(*picks)


class TestExpectedOrderStat:
    def test_single(self):
        assert straggler.expected_order_stat(1, 1, 1.0) == pytest.approx(1.0)

    def test_min_of_two(self):
        assert straggler.expected_order_stat(2, 1, 1.0) == pytest.approx(0.5)

    def test_exact_value(self):
        assert straggler.expected_order_stat(4, 3, 2.0) == pytest.approx(
            13 / 24, abs=1e-15
        )

    def test_oracle_grid(self):
        for n in (3, 8, 17, 64):
            for j in (1, n // 2 or 1, n):
                assert straggler.expected_order_stat(n, j, 1.7) == pytest.approx(
                    order_stat_oracle(n, j, 1.7), rel=1e-12
                )

    def test_strictly_increasing_in_j(self):
        values = [straggler.expected_order_stat(32, j, 1.0) for j in range(1, 33)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_half_bound(self):
        # E[T_{N/2}] <= 1/lam for even N
        for n in (2, 8, 64, 256):
            assert straggler.expected_order_stat(n, n // 2, 1.0) <= 1.0 + 1e-12

    def test_out_of_range(self):
        with pytest.raises(SrpflError, match=r"order statistic j=5 outside 1\.\.4"):
            straggler.expected_order_stat(4, 5, 1.0)
        with pytest.raises(SrpflError, match=r"order statistic j=0 outside 1\.\.4"):
            straggler.expected_order_stat(4, 0, 1.0)


class TestDoublingPoint:
    # X_{r+1} ends stage r of a distance-threshold plan: the last entry of row r

    def test_small_a_limit(self):
        # a / (1 - sqrt(1-a)) -> 2 as a -> 0, so the threshold approaches a
        # finite limit 2 / sqrt(2^(r-1)) * (1 + boost) for vanishing contraction
        model = SpeedModel.fixed(16, lam=1.0, comm_cost=1.0)
        small = straggler.build_stage_plan(16, 2, 1e-9, model, 1.2, straggler.MODE_THRESHOLD)[0][2]
        t2 = straggler.expected_order_stat(16, 2, 1.0)
        t4 = straggler.expected_order_stat(16, 4, 1.0)
        boost = (t2 + 1.0) * (1 - 1 / math.sqrt(2)) / (t4 - t2)
        assert small == pytest.approx(2.0 * (1 + boost), rel=1e-6)

    def test_plug_in_value(self):
        # frozen from an independent rational-arithmetic evaluation
        model = SpeedModel.fixed(16, lam=1.0, comm_cost=1.0)
        value = straggler.build_stage_plan(16, 2, 0.25, model, 1.2, straggler.MODE_THRESHOLD)[0][2]
        assert value == pytest.approx(6.958246051919566, rel=1e-12)

    def test_last_stage_capped_at_n(self):
        # N=12, n0=2: stage 3 has 12 participants, not 16
        model = SpeedModel.fixed(12, lam=1.0, comm_cost=1.0)
        value = straggler.build_stage_plan(12, 2, 0.2, model, 1.2, straggler.MODE_THRESHOLD)[2][2]
        t8 = straggler.expected_order_stat(12, 8, 1.0)
        t12 = straggler.expected_order_stat(12, 12, 1.0)
        base = 0.2 / (math.sqrt(4 * 0.8) * (1 - math.sqrt(0.8)))
        boost = (t8 + 1.0) * (1 - 1 / math.sqrt(2)) / (t12 - t8)
        assert value == pytest.approx(base * (1 + boost), rel=1e-12)

    @pytest.mark.parametrize("mode", [straggler.MODE_ANALYTIC, straggler.MODE_THRESHOLD])
    def test_overflowed_times_have_no_gap(self, mode):
        # 1/lam overflows, so every order statistic is inf and every gap nan;
        # unchecked, a nan threshold would end every stage at once
        model = SpeedModel.fixed(16, lam=1e-320, comm_cost=1.0)
        with pytest.raises(SrpflError, match="order-statistic gap nan is not positive"):
            straggler.build_stage_plan(16, 2, 0.1, model, 1.2, mode)


class TestRoundsPerStage:
    def test_floor_at_one(self):
        # descending gaps make the log argument small; budget floors at 1
        assert straggler._rounds_to_shrink(0.2, math.sqrt(2.0) * 0.1 / 10.0) == 1

    def test_plug_in_value(self):
        # frozen from an independent rational-arithmetic evaluation
        model = SpeedModel.fixed(32, lam=1.0)
        assert straggler.build_stage_plan(32, 2, 0.2, model, 1.2, straggler.MODE_ANALYTIC)[2][1] == 12

    def test_capped_ladder_matches_plan(self):
        # N=12, n0=2: stage 2 (8 participants) leads into the capped stage of 12
        model = SpeedModel.fixed(12, lam=1.0)
        plan = straggler.build_stage_plan(12, 2, 0.2, model, 1.2, straggler.MODE_ANALYTIC)
        assert plan[2][1] == 14


class TestTargetAccuracy:
    def test_plug_in_value(self):
        assert straggler.target_accuracy(0.25, 8, 2, 1.2) == pytest.approx(
            1.2928203230275506, rel=1e-12
        )

    def test_scaling_in_ratio(self):
        # doubling N/n0 multiplies eps by 1/sqrt(2)
        e1 = straggler.target_accuracy(0.2, 16, 2, 1.3)
        e2 = straggler.target_accuracy(0.2, 32, 2, 1.3)
        assert e2 / e1 == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_c_hat_scales_linearly(self):
        e1 = straggler.target_accuracy(0.2, 16, 2, 1.1)
        e2 = straggler.target_accuracy(0.2, 16, 2, 1.32)
        assert e2 / e1 == pytest.approx(1.2, rel=1e-12)

    def test_c_hat_range(self):
        with pytest.raises(ConfigError, match=r"c_hat must lie strictly between 1 and sqrt\(2\), got 1.0"):
            straggler.target_accuracy(0.2, 16, 2, 1.0)
        with pytest.raises(ConfigError, match=r"c_hat must lie strictly between 1 and sqrt\(2\), got 1.5"):
            straggler.target_accuracy(0.2, 16, 2, 1.5)


class TestStagePlan:
    def test_degenerate_single_stage(self):
        model = SpeedModel.fixed(4, lam=1.0)
        plan = straggler.build_stage_plan(4, 4, 0.2, model, 1.2, straggler.MODE_ANALYTIC)
        assert plan == ((4, None, None),)

    def test_ladder(self):
        model = SpeedModel.fixed(8, lam=1.0)
        plan = straggler.build_stage_plan(8, 2, 0.2, model, 1.2, straggler.MODE_THRESHOLD)
        assert [n for n, _, _ in plan] == [2, 4, 8]
        assert all(tau is None for _, tau, _ in plan)

    def test_threshold_plan_carries_exit_points(self):
        model = SpeedModel.fixed(12, lam=1.0, comm_cost=1.0)
        plan = straggler.build_stage_plan(12, 2, 0.2, model, 1.2, straggler.MODE_THRESHOLD)
        # X_{r+1} = noise_floor(a, n_r/n0) (1 + (t_r + C)(1 - 1/sqrt(2)) / (t_{r+1} - t_r))
        t = [straggler.expected_order_stat(12, n, 1.0) for n in (2, 4, 8, 12)]
        expected = [
            straggler.noise_floor(0.2, 2**r) * (1 + (t[r] + 1.0) * (1 - 1 / math.sqrt(2)) / (t[r + 1] - t[r]))
            for r in range(3)
        ]
        assert [x for _, _, x in plan[:3]] == pytest.approx(expected, rel=1e-12)
        assert plan[3][2] is None
        fixed = straggler.build_stage_plan(12, 2, 0.2, model, 1.2, straggler.MODE_FIXED, fixed_rounds=5)
        assert [x for _, _, x in fixed] == [None] * 4

    def test_ladder_clamps_at_n(self):
        model = SpeedModel.fixed(12, lam=1.0)
        plan = straggler.build_stage_plan(12, 2, 0.2, model, 1.2, straggler.MODE_FIXED, fixed_rounds=5)
        assert [n for n, _, _ in plan] == [2, 4, 8, 12]
        assert all(tau == 5 for _, tau, _ in plan)

    def test_analytic_budgets_match_hand_evaluation(self):
        # frozen from an independent rational-arithmetic evaluation at
        # N=16, n0=2, a=0.2, lam=1, C=1, c_hat=1.2
        model = SpeedModel.fixed(16, lam=1.0, comm_cost=1.0)
        plan = straggler.build_stage_plan(16, 2, 0.2, model, 1.2, straggler.MODE_ANALYTIC)
        assert [n for n, _, _ in plan] == [2, 4, 8, 16]
        assert [tau for _, tau, _ in plan] == [12, 12, 21, None]

    def test_last_budget_open_iff_not_fixed(self):
        model = SpeedModel.fixed(16, lam=1.0, comm_cost=1.0)
        for mode in straggler.PLAN_MODES:
            for n_total, n0 in ((16, 2), (12, 2), (4, 2), (4, 4)):
                plan = straggler.build_stage_plan(n_total, n0, 0.2, model, 1.2, mode, fixed_rounds=5)
                assert (plan[-1][1] is None) == (mode != straggler.MODE_FIXED)
        # the first of two stages takes the full-participation budget
        # 2 log(1/(c_hat-1)) / log(1/(1-a)), rounded up: 15 at a=0.2, c_hat=1.2
        two_stage = straggler.build_stage_plan(4, 2, 0.2, model, 1.2, straggler.MODE_ANALYTIC)
        assert two_stage == ((2, 15, None), (4, None, None))

    def test_bad_inputs(self):
        model = SpeedModel.fixed(4, lam=1.0)
        with pytest.raises(ConfigError):
            straggler.build_stage_plan(4, 8, 0.2, model, 1.2, straggler.MODE_ANALYTIC)
        with pytest.raises(ConfigError, match=re.escape("plan_mode must be one of ('analytic', 'distance_threshold', 'fixed'), got 'bogus'")):
            straggler.build_stage_plan(8, 2, 0.2, model, 1.2, "bogus")
        with pytest.raises(ConfigError, match="fixed_rounds must be >= 1, got None"):
            straggler.build_stage_plan(8, 2, 0.2, model, 1.2, straggler.MODE_FIXED, fixed_rounds=None)


@pytest.mark.parametrize("call, error, message", [
    (lambda: SpeedModel.fixed(4, lam=0.0), ConfigError, "lam must be positive, got 0.0"),
    (lambda: SpeedModel.fixed(4, comm_cost=-0.5), ConfigError, "comm_cost must be >= 0, got -0.5"),
    (lambda: SpeedModel.dynamic(0), ConfigError, "need at least one client slot, got 0"),
    (lambda: SpeedModel.dynamic(4, comm_cost=-1.0), ConfigError, "comm_cost must be >= 0"),
    (lambda: SpeedModel.fixed(0), ConfigError, "need at least one client slot, got 0"),
    (lambda: straggler.expected_order_stat(4, 2, -1.0), ConfigError, "lam must be positive"),
    (lambda: straggler.check_contraction_factor(0.0), ConfigError, r"must lie in \(0, 1/4\], got 0.0"),
    (lambda: straggler.check_contraction_factor(0.3), ConfigError, r"must lie in \(0, 1/4\], got 0.3"),
    (lambda: SpeedModel.fixed(4, lam=float("nan")), ConfigError, "lam must be positive, got nan"),
    (lambda: SpeedModel.fixed(4, comm_cost=float("nan")), ConfigError, "comm_cost must be >= 0, got nan"),
    (lambda: straggler.expected_order_stat(4, 2, float("nan")), ConfigError, "lam must be positive, got nan"),
], ids=["fixed_lam", "fixed_comm", "dynamic_slots", "dynamic_comm", "no_clients",
        "order_stat_lam", "a_zero", "a_above_quarter", "fixed_lam_nan", "fixed_comm_nan", "order_stat_lam_nan"])
def test_typed_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()
