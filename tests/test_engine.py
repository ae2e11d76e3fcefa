import dataclasses
import hashlib
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srpfl import checks, cli, engine, fedrep, straggler, synthesis
from srpfl.engine import RunConfig
from srpfl.errors import ConfigError, NonConvergence, SrpflError
from srpfl.straggler import participant_ladder
from srpfl.linalg import span_basis
from srpfl.synthesis import TAG_RANDOM_INIT, TAG_ROUND, TAG_WARM_START, gen_ground_truth, substream

from test_fedrep import NoDraw


def small_config(**kw):
    base = dict(
        d=8, k=2, n_total=8, n0=2, m=30, sigma=0.0, seed=1,
        comm_cost=0.5, lam=1.0, c_hat=1.2,
    )
    base.update(kw)
    return RunConfig(**base)


class TestRun:
    def test_determinism(self):
        cfg = small_config(sigma=0.2, plan_mode="fixed", fixed_rounds=8, epsilon=0.0)
        t1 = engine.run(cfg)
        t2 = engine.run(small_config(sigma=0.2, plan_mode="fixed", fixed_rounds=8, epsilon=0.0))
        assert t1.records == t2.records
        assert t1.config_digest == t2.config_digest

    def test_degenerate_ladder_matches_baseline(self):
        # N = n0: the adaptive scheme and the full-participation baseline coincide
        kw = dict(n_total=4, n0=4, sigma=0.0, seed=3)
        t_s = engine.run(small_config(**kw))
        t_f = engine.run(small_config(algorithm="fedrep_full", **kw))
        assert t_s.records == t_f.records

    def test_noiseless_convergence(self):
        cfg = RunConfig(
            d=20, k=2, n_total=32, n0=4, m=80, sigma=0.0, seed=9,
            plan_mode="fixed", fixed_rounds=70, epsilon=1e-4,
        )
        trace = engine.run(cfg)
        assert trace.reached_target
        assert trace.final_dist <= 1e-4
        assert len(trace.records) <= 300

    def test_wall_clock_additivity(self):
        cfg = small_config(sigma=0.3, plan_mode="fixed", fixed_rounds=6, epsilon=0.0)
        trace = engine.run(cfg)
        total = sum(r.round_time for r in trace.records)
        assert trace.total_time() == pytest.approx(total, rel=1e-12)
        cumulative = [r.cumulative_time for r in trace.records]
        assert all(b > a for a, b in zip(cumulative, cumulative[1:]))

    def test_round_times_dominated_by_baseline(self):
        # same seed, same drawn times: waiting for the fastest n costs at most
        # what waiting for everyone costs
        kw = dict(sigma=0.2, plan_mode="fixed", fixed_rounds=6, epsilon=0.0, seed=5)
        t_s = engine.run(small_config(**kw))
        t_f = engine.run(small_config(algorithm="fedrep_full", **kw))
        for rec_s, rec_f in zip(t_s.records, t_f.records):
            assert rec_s.round_time <= rec_f.round_time + 1e-12

    @pytest.mark.parametrize("speed_kind", ["fixed", "dynamic"])
    def test_round_time_is_the_slowest_chosen_slot(self, speed_kind):
        # each round waits for the slowest of the fastest n slots, then pays
        # the communication cost; the same float as max(times[ids]) + C
        cfg = small_config(sigma=0.2, plan_mode="fixed", fixed_rounds=3, epsilon=0.0,
                           comm_cost=0.7, speed_kind=speed_kind)
        trace = engine.run(cfg)
        for record in trace.records:
            times = straggler.draw_round_times(trace.speed, record.round_index)
            fastest = sorted(range(cfg.n_total), key=lambda i: (times[i], i))[:record.n]
            np.testing.assert_array_equal(record.ids, fastest)
            assert record.round_time == float(np.max(times[record.ids])) + 0.7

    def test_noise_floor_shrinks_with_participation(self):
        # long-run plateau with all clients sits below the plateau with n0
        base = dict(d=10, k=2, n_total=16, n0=2, m=100, sigma=0.5, seed=7,
                    plan_mode="fixed", fixed_rounds=150, epsilon=0.0, eta=0.05)
        small_n = engine.run(RunConfig(algorithm="fedrep_full", **{**base, "n_total": 2, "n0": 2}))
        large_n = engine.run(RunConfig(algorithm="fedrep_full", **base))
        tail_small = small_n.dists()[-40:].mean()
        tail_large = large_n.dists()[-40:].mean()
        assert tail_large < tail_small

    def test_nonconvergence_raises(self):
        cfg = small_config(sigma=1.0, plan_mode="distance_threshold", max_rounds=5, epsilon=1e-9)
        with pytest.raises(NonConvergence, match="round cap 5 hit at stage"):
            engine.run(cfg)

    def test_module_errors_carry_stage_and_round(self, monkeypatch):
        # validate rejects m < k, so one-sample batches are handed to the round itself
        real_round = engine.fedrep_round
        monkeypatch.setattr(engine, "fedrep_round", lambda q, gt, ids, m, *rest: real_round(q, gt, ids, 1, *rest))
        cfg = small_config(plan_mode="fixed", fixed_rounds=3, epsilon=0.0)
        with pytest.raises(SrpflError, match=r"stage 0, round 1: need m > k, got m=1, k=2"):
            engine.run(cfg)

    def test_stage_ladder_progression(self):
        cfg = RunConfig(
            d=10, k=2, n_total=16, n0=2, m=50, sigma=0.0, seed=2,
            plan_mode="fixed", fixed_rounds=5, epsilon=0.0,
        )
        trace = engine.run(cfg)
        ladder = []
        for rec in trace.records:
            if not ladder or ladder[-1] != rec.n:
                ladder.append(rec.n)
        assert ladder == [2, 4, 8, 16]

    def test_validation(self):
        with pytest.raises(ConfigError):
            small_config(n0=9).validate()
        with pytest.raises(ConfigError):
            small_config(c_hat=2.0).validate()
        with pytest.raises(ConfigError):
            small_config(algorithm="sgd").validate()

    def test_population_larger_than_sample(self):
        kw = dict(n_clients=20, n_total=6, n0=2, sigma=0.1, seed=5,
                  plan_mode="fixed", fixed_rounds=4, epsilon=0.0)
        per_stage = engine.run(small_config(**kw))
        per_round = engine.run(small_config(resample_scope="per_round", **kw))
        assert all(r.ids.max() < 20 for r in per_round.records)
        # per-round resampling draws different client sets round to round
        sets = {tuple(sorted(r.ids.tolist())) for r in per_round.records}
        assert len(sets) > 1
        assert per_stage.records != per_round.records

    def test_dynamic_speed_model(self):
        cfg = small_config(speed_kind="dynamic", sigma=0.1,
                           plan_mode="fixed", fixed_rounds=6, epsilon=0.0)
        trace = engine.run(cfg)
        assert len(trace.records) > 0
        again = engine.run(small_config(speed_kind="dynamic", sigma=0.1,
                                        plan_mode="fixed", fixed_rounds=6, epsilon=0.0))
        assert trace.records == again.records

    def test_dynamic_clock_scales_with_lam(self):
        # slot rates lam * Uniform[1/N, 1]: at twice the rate every time halves
        # exactly, so the same slots are chosen and the same rounds run
        for s in range(3):
            rates = straggler.SpeedModel.dynamic(8, lam=1.0, seed=s).per_client_rates
            np.testing.assert_array_equal(straggler.SpeedModel.dynamic(8, lam=2.0, seed=s).per_client_rates, 2 * rates)
        kw = dict(speed_kind="dynamic", sigma=0.1, plan_mode="fixed", fixed_rounds=4, epsilon=0.0, comm_cost=0.0)
        slow, fast = engine.run(small_config(lam=1.0, **kw)), engine.run(small_config(lam=2.0, **kw))
        assert [r.round_time / 2 for r in slow.records] == [r.round_time for r in fast.records]
        assert slow.dists().tolist() == fast.dists().tolist()
        assert cli.trace_to_csv(slow) != cli.trace_to_csv(fast)

    def test_threshold_mode_advances_stages(self):
        cfg = RunConfig(
            d=10, k=2, n_total=16, n0=2, m=60, sigma=0.2, seed=8,
            plan_mode="distance_threshold", comm_cost=0.5, max_rounds=2000,
        )
        trace = engine.run(cfg)
        assert trace.reached_target
        assert trace.records[-1].n >= 2

    def test_threshold_mode_ladder_not_a_power_of_two(self):
        # N/n0 = 6: the last doubling point caps the ladder at N
        cfg = RunConfig(
            d=10, k=2, n_total=12, n0=2, m=60, sigma=0.1, seed=3,
            plan_mode="distance_threshold", a=0.05, epsilon=0.1, comm_cost=1.0,
            init_mode="random",
        )
        trace = engine.run(cfg)
        assert trace.reached_target
        assert trace.records[-1].n == 12


# sha256 of cli.trace_to_csv for every algorithm x plan_mode on one small
# config, recorded when the auto step size came from the closed-form bound on
# the head spectrum over every n0-subset: the config's auto eta went from
# 0.06250265 (sampled over 64 subsets) to 1/(8k) = 0.0625.
# A change that moves one of them changes what a run computes and must say why.
GUARD_CONFIG = dict(
    d=8, k=2, n_total=16, n0=2, m=40, sigma=0.1, seed=5, comm_cost=1.0,
    fixed_rounds=10, init_mode="random", a=0.1, epsilon=0.1,
)
TRACE_SHA256 = {
    ("srpfl", "analytic"): "4fb2ca1a42169733c8b657220f8b756510439d97aed161ad45621750874db48c",
    ("srpfl", "distance_threshold"): "3e033328cd7621e109078845fa30b82732bf329d9c52b91533f4c928ea0f9303",
    ("srpfl", "fixed"): "8dbbef4259681c879cd363f00e3cf69d3d32e5366c65bb5135d305e332520744",
    ("fedrep_full", "analytic"): "e4df8a01ea0c1cdddd7926b22b22f67f9b73d11d8e94d1428db7ef1c9d16017f",
    ("fedrep_full", "distance_threshold"): "e4df8a01ea0c1cdddd7926b22b22f67f9b73d11d8e94d1428db7ef1c9d16017f",
    ("fedrep_full", "fixed"): "a49fa44cdd546ae783579dcba27f84b60dce4d9e58dc20eeb905df7023402b83",
}


@pytest.mark.parametrize("algorithm, plan_mode", list(TRACE_SHA256))
def test_trace_fingerprint(algorithm, plan_mode):
    trace = engine.run(RunConfig(**GUARD_CONFIG, algorithm=algorithm, plan_mode=plan_mode))
    digest = hashlib.sha256(cli.trace_to_csv(trace).encode()).hexdigest()
    assert digest == TRACE_SHA256[algorithm, plan_mode]


def test_fixed_plan_cap_returns_unreached_trace():
    trace = engine.run(RunConfig(**GUARD_CONFIG, plan_mode="fixed", max_rounds=25))
    assert len(trace.records) == 25
    assert not trace.reached_target
    assert trace.final_dist == trace.records[-1].dist > trace.epsilon


def count_round_calls(monkeypatch):
    """The state of each generator passed to ``engine.fedrep_round``, before the round draws from it;
    the round is looked up by name as perfbench's clock patches it."""
    calls = []
    real_round = engine.fedrep_round

    def counted(*args):
        calls.append(args[-1].bit_generator.state)
        return real_round(*args)

    monkeypatch.setattr(engine, "fedrep_round", counted)
    return calls


def round_states(round_indexes):
    """The states of the guard config's round streams, ``substream(seed, TAG_ROUND, r)``, before any draw."""
    return [substream(GUARD_CONFIG["seed"], TAG_ROUND, r).bit_generator.state for r in round_indexes]


@pytest.mark.parametrize("plan_mode, stages, reached", [
    ("analytic", [0, 1, 2, 3], True),
    # the doubling points 6.63, 2.86 and 1.21 lie above init_dist 0.997,
    # so stages 0-2 end before their first round
    ("distance_threshold", [3], True),
    ("fixed", [0, 1, 2, 3], False),
], ids=["analytic", "distance_threshold", "fixed"])
def test_one_fedrep_round_call_per_round(monkeypatch, plan_mode, stages, reached):
    calls = count_round_calls(monkeypatch)
    trace = engine.run(RunConfig(**GUARD_CONFIG, plan_mode=plan_mode))
    assert calls == round_states(r.round_index for r in trace.records)
    assert sorted({r.stage for r in trace.records}) == stages
    assert trace.reached_target == reached


@pytest.mark.parametrize("init_mode, start, tag", [
    ("moments", "method_of_moments_init", TAG_WARM_START), ("random", "random_init", TAG_RANDOM_INIT),
])
def test_the_start_draws_from_its_tags_stream(monkeypatch, init_mode, start, tag):
    states, real_start = [], getattr(engine, start)
    monkeypatch.setattr(engine, start, lambda *args: states.append(args[-1].bit_generator.state) or real_start(*args))
    engine.run(RunConfig(**{**GUARD_CONFIG, "init_mode": init_mode, "plan_mode": "fixed", "max_rounds": 1}))
    assert states == [substream(GUARD_CONFIG["seed"], tag).bit_generator.state]


def test_engine_run_alone_keys_the_rounds_and_the_starts():
    # fedrep draws from the generator it is given: it binds neither substream nor a tag
    assert [name for name in vars(fedrep) if name == "substream" or name.startswith("TAG_")] == []
    package = Path(engine.__file__).parent
    for tag in ("TAG_ROUND", "TAG_WARM_START", "TAG_RANDOM_INIT"):
        named = sorted(path.stem for path in package.glob("*.py") if re.search(rf"\b{tag}\b", path.read_text()))
        assert named == ["engine", "synthesis"], tag


@pytest.mark.parametrize("speed_kind", ["fixed", "dynamic"])
def test_one_selection_per_round(monkeypatch, speed_kind):
    # engine.run looks select_fastest up by name, once per round, with the round's n
    calls = []
    real_select = engine.select_fastest

    def counted(model, round_index, n):
        calls.append((round_index, n))
        return real_select(model, round_index, n)

    monkeypatch.setattr(engine, "select_fastest", counted)
    trace = engine.run(RunConfig(**GUARD_CONFIG, plan_mode="analytic", speed_kind=speed_kind))
    assert calls == [(r.round_index, r.n) for r in trace.records]
    assert len({n for _, n in calls}) > 1


@pytest.mark.parametrize("max_rounds", [3, 5])
def test_fixed_plan_cap_ends_the_run(monkeypatch, max_rounds):
    # the cap falls inside stage 0 (3) or on its last round (5 = fixed_rounds);
    # either way no later stage draws an active set
    scopes = []
    real_sample = engine._sample_active

    def spy(config, scope_index):
        scopes.append(scope_index)
        return real_sample(config, scope_index)

    monkeypatch.setattr(engine, "_sample_active", spy)
    cfg = RunConfig(
        d=6, k=2, n_clients=40, n_total=32, n0=2, m=20, sigma=0.1, a=0.1, epsilon=0.0,
        plan_mode="fixed", fixed_rounds=5, max_rounds=max_rounds,
    )
    trace = engine.run(cfg)
    assert len(trace.records) == max_rounds
    assert not trace.reached_target
    assert scopes == [0]


@pytest.mark.parametrize("max_rounds, stage", [(5, 0), (25, 1)])
def test_analytic_plan_cap_names_the_stage_it_is_hit_in(monkeypatch, max_rounds, stage):
    # the error names the stage of the round that was due: stage 0 inside
    # its 25-round budget, stage 1 once that budget is spent
    calls = count_round_calls(monkeypatch)
    with pytest.raises(NonConvergence, match=rf"round cap {max_rounds} hit at stage {stage} "):
        engine.run(RunConfig(**GUARD_CONFIG, plan_mode="analytic", max_rounds=max_rounds))
    assert calls == round_states(range(1, max_rounds + 1))


class TestContractionCheck:
    # the exact (ok, detail) that `srpfl verify` reports for each config
    @pytest.mark.parametrize("cfg, verdict", [
        (dict(d=12, k=2, n_total=16, n0=4, m=80, sigma=0.0),
         (True, "60/60 rounds satisfied (1.000), worst violation 0.0000")),
        # the grossly oversized step of test_cli's verify_bad config
        (dict(d=10, k=2, n_total=8, n0=2, m=40, sigma=0.3, fixed_rounds=15, eta=8.0),
         (False, "41/45 rounds satisfied (0.911), worst violation 0.0720")),
        # with n0 = 4 the noise floor's ratio n/n0 differs from n/2: 39/45 rounds hold with n/2
        (dict(d=10, k=2, n_total=16, n0=4, m=40, sigma=0.3, fixed_rounds=15, eta=8.0),
         (False, "44/45 rounds satisfied (0.978), worst violation 0.1337")),
    ], ids=["noiseless", "oversized_step", "oversized_step_n0_4"])
    def test_verdict(self, cfg, verdict):
        config = RunConfig(**{"seed": 4, "plan_mode": "fixed", "fixed_rounds": 20, "epsilon": 0.0, **cfg})
        assert checks.contraction(config) == verdict

    def test_reads_the_heads_the_run_drew(self, monkeypatch):
        # engine imports gen_ground_truth by name, so only a second derivation would raise
        def rebuilt(*args):
            raise AssertionError("the hidden model was rebuilt from the config")

        monkeypatch.setattr("srpfl.synthesis.gen_ground_truth", rebuilt)
        config = RunConfig(d=12, k=2, n_total=16, n0=4, m=80, sigma=0.0, seed=4,
                           plan_mode="fixed", fixed_rounds=20, epsilon=0.0)
        assert checks.contraction(config) == (True, "60/60 rounds satisfied (1.000), worst violation 0.0000")

    def test_margin_inside_tolerance_holds(self, monkeypatch):
        # the last round of a real trace is moved to a margin of 5e-13,
        # inside the 1e-12 hold tolerance, so every round still holds
        config = RunConfig(d=12, k=2, n_total=16, n0=4, m=80, sigma=0.0, seed=4,
                           plan_mode="fixed", fixed_rounds=20, epsilon=0.0)
        trace = engine.run(config)
        w_star = trace.ground_truth.w_star
        last = trace.records[-1]
        s_min = float(np.linalg.svd(w_star[last.ids] / math.sqrt(len(last.ids)), compute_uv=False)[-1])
        a_t = straggler.contraction_factor(trace.eta, trace.init_dist, s_min)
        shrink = math.sqrt(1.0 - a_t)
        rhs = shrink * trace.records[-2].dist + (1.0 - shrink) * straggler.noise_floor(a_t, last.n / config.n0)
        trace.records[-1] = dataclasses.replace(last, dist=rhs + 5e-13)
        monkeypatch.setattr(checks.engine, "run", lambda cfg: trace)
        assert checks.contraction(config) == (True, "60/60 rounds satisfied (1.000), worst violation 0.0000")

    def test_rounds_of_fewer_heads_than_k_read_sigma_min_zero(self, monkeypatch):
        # two heads span 2 of k = 4 directions, so their spectrum ends in two zeros
        # and the check's a_t for such a round is A_MIN
        config = RunConfig(d=10, k=4, n_total=16, n0=2, m=40, sigma=0.1, seed=1,
                           plan_mode="fixed", fixed_rounds=5, epsilon=0.0)
        trace = engine.run(config)
        pairs = [r for r in trace.records if r.n == 2]
        assert len(pairs) == 5
        for record in pairs:
            sv = engine.head_spectrum(trace.ground_truth.w_star, record.ids)
            assert sv.shape == (4,) and sv[1] > 0 and sv[2:].tolist() == [0.0, 0.0]
        factors = []
        original = straggler.contraction_factor

        def recorded(*args):
            factors.append(original(*args))
            return factors[-1]

        monkeypatch.setattr(straggler, "contraction_factor", recorded)
        monkeypatch.setattr(checks.engine, "run", lambda cfg: trace)
        checks.contraction(config)
        assert [a_t for a_t, r in zip(factors, trace.records) if r.n == 2] == [straggler.A_MIN] * 5


class TestAnalyticBound:
    def test_plug_in_values(self):
        # frozen from an independent evaluation at N=256, c=1, c_hat=1.2, a=0.25;
        # at lam = 2 the same c = comm_cost * lam halves both times
        for comm_cost, lam in ((1.0, 1.0), (0.5, 2.0)):
            upper, lower, ratio = engine.analytic_speedup_bound(256, 1.2, 0.25, comm_cost, lam)
            assert upper == pytest.approx(355.39442448980185 / lam, rel=1e-12)
            assert lower == pytest.approx(168.93034069597874 / lam, rel=1e-12)
            assert ratio == pytest.approx(2.1037927409937542, rel=1e-12)

    def test_ratio_is_the_quotient_of_the_bounds(self):
        # bit for bit: a separately written ratio formula differs in the last bit here
        upper, lower, ratio = engine.analytic_speedup_bound(64, 1.1, 0.01, 1.0, 1.0)
        assert ratio == upper / lower

    def test_ratio_bound_vanishes_with_n(self):
        values = [
            engine.analytic_speedup_bound(n, 1.2, 0.2, 1.0, 1.0)[2]
            for n in (2**8, 2**16, 2**32, 2**64)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.5

    def test_ratio_bound_grows_as_c_hat_drops(self):
        # monotone in c_hat -> 1+ whenever 2 log N > 6 (c + 1); c = 0 here
        hard = engine.analytic_speedup_bound(256, 1.001, 0.2, 0.0, 1.0)[2]
        easy = engine.analytic_speedup_bound(256, 1.4, 0.2, 0.0, 1.0)[2]
        assert hard > easy

    def test_c_hat_range(self):
        with pytest.raises(ConfigError, match=r"c_hat must lie strictly between 1 and sqrt\(2\), got 1.0"):
            engine.analytic_speedup_bound(256, 1.0, 0.2, 1.0, 1.0)


class TestSweep:
    def test_sweep_deterministic_and_ordered(self):
        cfg = small_config(sigma=0.1, plan_mode="fixed", fixed_rounds=5, epsilon=0.0)
        seeds = [1, 2, 3]
        r1 = engine.run_sweep(cfg, seeds)
        r2 = engine.run_sweep(cfg, seeds)
        for alg in r1:
            for a, b in zip(r1[alg], r2[alg]):
                assert a.records == b.records

    def test_sweep_matches_direct_runs(self):
        cfg = small_config(sigma=0.1, plan_mode="fixed", fixed_rounds=5, epsilon=0.0)
        out = engine.run_sweep(cfg, [4, 5])
        direct = engine.run(dataclasses.replace(cfg, seed=5))
        assert out[engine.ALGO_SRPFL][1].records == direct.records


def assert_same_models(trace, ground_truth, speed):
    for carried, built in ((trace.ground_truth, ground_truth), (trace.speed, speed)):
        for f in dataclasses.fields(built):
            value, expected = getattr(carried, f.name), getattr(built, f.name)
            assert expected is None and value is None or np.array_equal(value, expected), f.name
    carried, built = trace.ground_truth, ground_truth  # d, k and M are read from the arrays, not fields
    assert (carried.d, carried.k, carried.n_clients) == (built.d, built.k, built.n_clients)


class TestTraceCarriesModels:
    # the fixed model, and the dynamic one over M > N clients resampled every round
    CASES = {
        "fixed": dict(),
        "dynamic": dict(speed_kind="dynamic", n_clients=12, resample_scope="per_round"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_the_models_the_run_drew(self, case):
        cfg = small_config(sigma=0.1, plan_mode="fixed", fixed_rounds=4, epsilon=0.0, **self.CASES[case])
        trace = engine.run(cfg)
        gt = gen_ground_truth(cfg.d, cfg.k, cfg.population, cfg.sigma, cfg.seed)
        if case == "fixed":
            speed = straggler.SpeedModel.fixed(cfg.n_total, cfg.lam, cfg.comm_cost, cfg.seed)
            assert trace.speed.lam == 1.0
        else:
            speed = straggler.SpeedModel.dynamic(cfg.n_total, cfg.lam, cfg.comm_cost, cfg.seed)
            assert trace.speed.lam == np.mean(speed.per_client_rates) != 1.0
        assert_same_models(trace, gt, speed)

    @pytest.mark.parametrize("case", CASES)
    def test_pooled_sweep_carries_the_same_models(self, monkeypatch, case):
        # the pool pickles each trace with its models
        cfg = small_config(sigma=0.1, plan_mode="fixed", fixed_rounds=4, epsilon=0.0, **self.CASES[case])
        monkeypatch.setenv("SRPFL_THREADS", "1")
        serial = engine.run_sweep(cfg, [1, 2])
        monkeypatch.setenv("SRPFL_THREADS", "2")
        pooled = engine.run_sweep(cfg, [1, 2])
        for alg, traces in serial.items():
            for trace, pooled_trace in zip(traces, pooled[alg]):
                assert_same_models(pooled_trace, trace.ground_truth, trace.speed)


def synthetic_trace(dists):
    """A trace with one round of unit time per distance and no participant ids."""
    records = [engine.RoundRecord(0, t, 4, 1.0, float(t), dist) for t, dist in enumerate(dists, start=1)]
    return engine.RunTrace(
        records=records, config_digest="x", init_dist=0.9, epsilon=1e-6, eta=0.1, a=0.05,
        ground_truth=None, speed=None, sigma_min_star=1.0, sigma_max_star=1.0,
    )


class TestMeasureContraction:
    def test_recovers_known_rate(self):
        # synthetic geometric trace: dist_t = 0.9 * rho^t
        rho = 0.97
        trace = synthetic_trace([0.9 * rho**t for t in range(1, 120)])
        a = engine.measure_contraction_rate(trace)
        assert a == pytest.approx(1 - rho**2, rel=1e-6)


def test_pooled_sweep_uses_replaced_run(monkeypatch):
    # pool workers look engine.run up by name, so a replacement that is a
    # local closure (which pickle refuses) still runs in every worker
    cfg = small_config(sigma=0.1, plan_mode="fixed", fixed_rounds=4, epsilon=0.0)
    monkeypatch.setenv("SRPFL_THREADS", "1")
    serial = engine.run_sweep(cfg, [1, 2])
    original = engine.run

    def wrapped(config):
        trace = original(config)
        trace.wrapped = True
        return trace

    monkeypatch.setattr(engine, "run", wrapped)
    monkeypatch.setenv("SRPFL_THREADS", "2")
    pooled = engine.run_sweep(cfg, [1, 2])
    for alg, traces in serial.items():
        assert [t.records for t in pooled[alg]] == [t.records for t in traces]
        assert all(getattr(t, "wrapped", False) for t in pooled[alg])


@pytest.mark.parametrize("n0", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_subset_spectrum_bounds_hold_for_every_subset(k, n0):
    # every subset of every ladder size of N = 10 heads, enumerated
    w = gen_ground_truth(6, k, 10, 0.0, seed=k).w_star
    lower, upper = engine.subset_spectrum_bounds(w, n0)
    for n in participant_ladder(10, n0):
        for subset in itertools.combinations(range(10), n):
            sv = engine.head_spectrum(w, list(subset))
            assert lower <= sv[-1] ** 2 + 1e-12 and sv[0] ** 2 <= upper + 1e-12
    spectrum = engine.head_spectrum(w, np.arange(10))
    if n0 == 10:
        assert (lower, upper) == (spectrum[-1] ** 2, spectrum[0] ** 2)
    if k == 1:  # every head is +-1, so every subset's one singular value is 1
        assert (lower, upper) == (1.0, 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: engine.analytic_speedup_bound(1, 1.2, 0.1, 0.0, 1.0), "bounds need N >= 2, got 1"),
    (lambda: engine.analytic_speedup_bound(256, 1.2, 0.1, 1.0, 0.0), "lam must be positive, got 0.0"),
    (lambda: engine.analytic_speedup_bound(256, 1.2, 0.1, 1.0, math.nan), "lam must be positive, got nan"),
    (lambda: engine.analytic_speedup_bound(256, 1.2, 0.1, -5, 1.0), "comm_cost must be >= 0, got -5"),
    (lambda: engine.analytic_speedup_bound(256.5, 1.2, 0.1, 1.0, 1.0), "need at least one client slot, got 256.5"),
    (lambda: straggler.target_accuracy(0.1, 8, 0, 1.2), "need 1 <= n0 <= N, got n0=0, N=8"),
    (lambda: straggler.target_accuracy(0.1, -8, 1, 1.2), "need 1 <= n0 <= N, got n0=1, N=-8"),
    (lambda: straggler.target_accuracy(0.1, 8, 16, 1.2), "need 1 <= n0 <= N, got n0=16, N=8"),
    (lambda: engine.measure_contraction_rate(synthetic_trace([0.5])),
     "trace too short to measure a contraction rate"),
], ids=["one_client", "zero_lam", "nan_lam", "negative_comm_cost", "fractional_n", "target_n0_zero",
        "target_negative_n", "target_n0_above_n", "one_record"])
def test_typed_errors(call, message):
    with pytest.raises(ConfigError, match=message):
        call()


def test_sweep_threads_rejects_a_non_integer(monkeypatch):
    monkeypatch.setenv("SRPFL_THREADS", "abc")
    with pytest.raises(ConfigError, match="SRPFL_THREADS must be an integer, got 'abc'"):
        engine.sweep_threads()


@pytest.mark.parametrize("value", ["0", "-2"])
def test_sweep_threads_rejects_fewer_than_one(monkeypatch, value):
    monkeypatch.setenv("SRPFL_THREADS", value)
    with pytest.raises(ConfigError, match=f"SRPFL_THREADS must be >= 1, got '{value}'"):
        engine.sweep_threads()


def test_sweep_threads_counts_the_cpus_this_process_may_use(monkeypatch):
    # under taskset or a cpuset, cpu_count still counts the whole host
    monkeypatch.delenv("SRPFL_THREADS", raising=False)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert engine.sweep_threads() == 1
    monkeypatch.delattr(engine.os, "sched_getaffinity")  # hosts without it fall back
    assert engine.sweep_threads() == 64


class TestFrozenConfig:
    @pytest.fixture
    def base(self):
        return RunConfig(d=8, k=2, n_total=8, n0=2, m=30, sigma=0.1)

    def test_replace_over_n_keeps_m_equal_to_n(self, base):
        cfg = dataclasses.replace(base, n_total=16)
        assert cfg.population == 16
        assert engine.run(cfg).records

    def test_fields_cannot_be_assigned(self, base):
        with pytest.raises(dataclasses.FrozenInstanceError):
            base.seed = 1

    def test_sweep_refuses_a_bad_seed_before_any_run(self, base, monkeypatch):
        calls = []
        monkeypatch.setattr(engine, "run", calls.append)
        monkeypatch.setenv("SRPFL_THREADS", "1")
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            engine.run_sweep(base, [-1])
        assert calls == []

    def test_digest_hashes_the_resolved_population(self, base):
        assert base.digest() == "07ec0d10aa10"
        assert dataclasses.replace(base, n_clients=8).digest() == base.digest()

    def test_equal_configs_built_from_numpy_scalars_hash_alike(self, base):
        numpy_built = RunConfig(d=np.int64(8), k=np.int32(2), n_total=8, n0=2, m=np.int64(30), sigma=np.float64(0.1),
                                lam=np.float64(1.0), eta=np.float64(0.05), seed=np.int64(0))
        python_built = dataclasses.replace(base, eta=0.05)
        assert numpy_built == python_built
        assert numpy_built.digest() == python_built.digest()
        assert dataclasses.replace(base, sigma=1).digest() == dataclasses.replace(base, sigma=1.0).digest()
        assert dataclasses.replace(base, seed=np.int64(3)).digest() != base.digest()


@pytest.mark.parametrize("key, value, message, layer_calls", [
    ("k", 30, "need 1 <= k <= d, got k=30, d=20", [lambda: gen_ground_truth(20, 30, 64, 0.1, 0)]),
    ("sigma", -1.0, "sigma must be finite and >= 0, got -1.0", [lambda: gen_ground_truth(20, 2, 64, -1.0, 0)]),
    ("seed", -1, "seed must be >= 0, got -1", [lambda: gen_ground_truth(20, 2, 64, 0.1, -1)]),
    ("n0", 100, "need 1 <= n0 <= N, got n0=100, N=64", [lambda: participant_ladder(64, 100)]),
    ("lam", 0.0, "lam must be positive, got 0.0",
     [lambda: straggler.SpeedModel.fixed(64, lam=0.0), lambda: straggler.expected_order_stat(4, 2, 0.0)]),
    ("comm_cost", -1.0, "comm_cost must be >= 0, got -1.0",
     [lambda: straggler.SpeedModel.fixed(64, comm_cost=-1.0),
      lambda: straggler.SpeedModel.dynamic(64, comm_cost=-1.0)]),
    ("m", 2, "need m > k, got m=2, k=2",
     [lambda: fedrep.check_batch_size(2, 2),
      lambda: fedrep.fedrep_round(np.eye(20, 2), gen_ground_truth(20, 2, 64, 0.1, 0), [0], 2, 0.1, NoDraw())]),
    ("eta", -1.0, "eta must be positive, got -1.0",
     [lambda: fedrep.check_step_size(-1.0),
      lambda: fedrep.fedrep_round(np.eye(20, 2), gen_ground_truth(20, 2, 64, 0.1, 0), [0], 100, -1.0, NoDraw())]),
    ("plan_mode", "bogus", "plan_mode must be one of ('analytic', 'distance_threshold', 'fixed'), got 'bogus'",
     [lambda: straggler.build_stage_plan(64, 4, 0.2, straggler.SpeedModel.fixed(64), 1.2, "bogus")]),
    ("fixed_rounds", 0, "fixed_rounds must be >= 1, got 0",
     [lambda: straggler.build_stage_plan(64, 4, 0.2, straggler.SpeedModel.fixed(64), 1.2, straggler.MODE_FIXED, 0)]),
], ids=["k", "sigma", "seed", "n0", "lam", "comm_cost", "m", "eta", "plan_mode", "fixed_rounds"])
def test_config_and_layer_refuse_a_value_in_the_same_words(key, value, message, layer_calls):
    # each rule is the check of the layer that reads the value; RunConfig calls that check
    def config():
        RunConfig(**{"d": 20, "k": 2, "n_total": 64, "n0": 4, "m": 100, "sigma": 0.1, key: value})

    for call in (config, *layer_calls):
        with pytest.raises(ConfigError) as refused:
            call()
        assert str(refused.value) == message


@pytest.mark.parametrize("call, error, message", [
    (lambda gt, q, speed: fedrep.fedrep_round(q, gt, range(6), 2.5, 0.1, NoDraw()), ConfigError,
     "need m > k, got m=2.5, k=2"),
    (lambda gt, q, speed: fedrep.method_of_moments_init(gt, range(6), 2.5, NoDraw()), ConfigError,
     "batch size must be >= 1, got 2.5"),
    (lambda gt, q, speed: synthesis.sample_batch(gt, 0, 2.5, 1, 1), ConfigError, "batch size must be >= 1, got 2.5"),
    (lambda gt, q, speed: straggler.build_stage_plan(8, 2, 0.1, speed, 1.2, straggler.MODE_FIXED, 2.5), ConfigError,
     "fixed_rounds must be >= 1, got 2.5"),
    (lambda gt, q, speed: participant_ladder(8, 2.5), ConfigError, "need 1 <= n0 <= N, got n0=2.5, N=8"),
    (lambda gt, q, speed: participant_ladder(8.0, 2), ConfigError, "need 1 <= n0 <= N, got n0=2, N=8.0"),
    (lambda gt, q, speed: gen_ground_truth(8.0, 2, 6, 0.3, 1), ConfigError, "need 1 <= k <= d, got k=2, d=8.0"),
    (lambda gt, q, speed: gen_ground_truth(8, 2.0, 6, 0.3, 1), ConfigError, "need 1 <= k <= d, got k=2.0, d=8"),
    (lambda gt, q, speed: gen_ground_truth(8, 2, 6.5, 0.3, 1), ConfigError, "need at least one client, got 6.5"),
    (lambda gt, q, speed: gen_ground_truth(8, 2, 6, 0.3, 1.5), ConfigError, "seed must be >= 0, got 1.5"),
    (lambda gt, q, speed: straggler.SpeedModel.fixed(2.5), ConfigError, "need at least one client slot, got 2.5"),
    (lambda gt, q, speed: straggler.select_fastest(speed, 1, 2.5), SrpflError, "cannot select 2.5 of 8 clients"),
    (lambda gt, q, speed: straggler.expected_order_stat(8, 2.5, 1.0), SrpflError, "order statistic j=2.5 outside 1..8"),
    (lambda gt, q, speed: straggler.expected_order_stat(8.0, 2, 1.0), SrpflError,
     "order statistic j=2 outside 1..8.0"),
], ids=["fedrep_round", "warm_start", "sample_batch", "fixed_rounds", "ladder_n0", "ladder_n_total", "gt_d", "gt_k",
        "gt_clients", "gt_seed", "speed_slots", "select_fastest", "order_stat_j", "order_stat_n"])
def test_layer_checks_refuse_a_fractional_count_before_any_draw(monkeypatch, call, error, message):
    # a config refused m = 2.5, but the round drew at 1.5 and 0.5 degrees of freedom and the fixed plan
    # ran 2 rounds a stage; the other calls ended in a raw TypeError
    gt = gen_ground_truth(8, 2, 6, 0.3, 1)
    q, _ = span_basis(fedrep.random_init(gt, substream(1, TAG_RANDOM_INIT)), gt.b_star)
    speed = straggler.SpeedModel.dynamic(8, seed=1)  # draws its times in select_fastest
    for module in (synthesis, straggler):  # the round and the warm start draw from the NoDraw they are given
        monkeypatch.setattr(module, "substream", lambda *key: pytest.fail(f"drew {key}"))
    with pytest.raises(error) as refused:
        call(gt, q, speed)
    assert str(refused.value) == message


KEY_MESSAGE = "substream key must hold integers >= 0, got {}"
ROUND_MESSAGE = "round index must be an integer >= 0, got {}"
# a fixed model built by hand, so that building it draws nothing; its times are the same every round
FIXED_SPEED = straggler.SpeedModel(lam=1.0, comm_cost=0.0, seed=1, times=np.arange(1.0, 9.0), order=np.arange(8))


@pytest.mark.parametrize("call, message", [
    # engine.run keys the round's and the starts' streams, so substream refuses their bad seeds and rounds
    (lambda gt, q, speed: fedrep.fedrep_round(q, gt, range(6), 30, 0.1, substream(-1, TAG_ROUND, 1)),
     "seed must be >= 0, got -1"),
    (lambda gt, q, speed: fedrep.fedrep_round(q, gt, range(6), 30, 0.1, substream(1.5, TAG_ROUND, 1)),
     "seed must be >= 0, got 1.5"),
    (lambda gt, q, speed: fedrep.fedrep_round(q, gt, range(6), 30, 0.1, substream(1, TAG_ROUND, 1.5)),
     KEY_MESSAGE.format(1.5)),
    (lambda gt, q, speed: fedrep.fedrep_round(q, gt, range(6), 30, 0.1, substream(1, TAG_ROUND, -1)),
     KEY_MESSAGE.format(-1)),
    (lambda gt, q, speed: straggler.SpeedModel.fixed(8, seed=-1), "seed must be >= 0, got -1"),
    (lambda gt, q, speed: straggler.SpeedModel.dynamic(8, seed=np.int64(-1)), "seed must be >= 0, got -1"),
    (lambda gt, q, speed: fedrep.random_init(gt, substream(-1, TAG_RANDOM_INIT)), "seed must be >= 0, got -1"),
    (lambda gt, q, speed: fedrep.method_of_moments_init(gt, range(6), 30, substream(-1, TAG_WARM_START)),
     "seed must be >= 0, got -1"),
    (lambda gt, q, speed: synthesis.sample_batch(gt, 0, 5, 1, -1), "seed must be >= 0, got -1"),
    (lambda gt, q, speed: synthesis.sample_batch(gt, 0, 5, np.float64(2.0), 1), KEY_MESSAGE.format(2.0)),
    (lambda gt, q, speed: straggler.draw_round_times(speed, -1), ROUND_MESSAGE.format(-1)),
    (lambda gt, q, speed: straggler.select_fastest(speed, 0.5, 2), ROUND_MESSAGE.format(0.5)),
    (lambda gt, q, speed: straggler.draw_round_times(FIXED_SPEED, -1), ROUND_MESSAGE.format(-1)),
    (lambda gt, q, speed: straggler.draw_round_times(FIXED_SPEED, np.float64(2.0)), ROUND_MESSAGE.format(2.0)),
    (lambda gt, q, speed: straggler.select_fastest(FIXED_SPEED, 1.5, 2), ROUND_MESSAGE.format(1.5)),
    (lambda gt, q, speed: synthesis.substream(None, synthesis.TAG_ROUND), "seed must be >= 0, got None"),
], ids=["round_seed", "round_seed_fraction", "round_index_fraction", "round_index_negative", "fixed_speed",
        "dynamic_speed_numpy", "random_init", "warm_start", "sample_batch_seed", "sample_batch_round",
        "round_times", "select_fastest_round", "fixed_round_times", "fixed_round_times_numpy_float",
        "fixed_select_fastest_round", "substream_seed_none"])
def test_draws_refuse_a_bad_seed_or_key_before_any_draw(monkeypatch, call, message):
    # numpy's SeedSequence refused these with its own ValueError or TypeError
    gt = gen_ground_truth(8, 2, 6, 0.3, 1)
    q, _ = span_basis(fedrep.random_init(gt, substream(1, TAG_RANDOM_INIT)), gt.b_star)
    speed = straggler.SpeedModel.dynamic(8, seed=1)  # draws its times in select_fastest
    monkeypatch.setattr(np.random, "PCG64", lambda *args: pytest.fail("built a bit generator"))
    with pytest.raises(ConfigError) as refused:
        call(gt, q, speed)
    assert str(refused.value) == message


def test_a_run_builds_no_seed_sequence(monkeypatch):
    # substream hashes numpy's SeedSequence pool itself: building one per draw was most of a draw's cost
    built, generators, real = [], [], (np.random.SeedSequence, np.random.PCG64)
    monkeypatch.setattr(np.random, "SeedSequence", lambda *args, **kwargs: built.append(args) or real[0](*args, **kwargs))
    monkeypatch.setattr(np.random, "PCG64", lambda *args: generators.append(args) or real[1](*args))
    trace = engine.run(small_config(n_clients=12, speed_kind="dynamic", resample_scope="per_round",
                                    init_mode="moments", sigma=0.2, plan_mode="fixed", fixed_rounds=4, epsilon=0.0))
    # the model, the slot rates, the warm start and its active set, then per round its active set, times and draw
    assert len(generators) == 4 + 3 * len(trace.records) == 40
    assert built == []


@pytest.mark.parametrize("overrides, per_round_prefixes", [
    ({}, 1),
    (dict(plan_mode="fixed", fixed_rounds=40), 1),
    (dict(plan_mode="fixed", fixed_rounds=40, speed_kind="dynamic", n_clients=32, resample_scope="per_round"), 3),
], ids=["guard", "guard_160_rounds", "dynamic_160_rounds"])
def test_a_run_hashes_each_block_of_stream_states_once(overrides, per_round_prefixes):
    # rounds 1..R fall in R // 64 + 1 blocks of each per-round prefix (rounds, and with a dynamic model
    # and a sampled active set also timing draws and active sets), and every single-tag key in one block;
    # hashing each call, or a cache too small for the prefixes a run draws from in turn, misses more often
    synthesis._block_states.cache_clear()
    trace = engine.run(RunConfig(**{**GUARD_CONFIG, **overrides}))
    rounds = len(trace.records)
    assert synthesis._block_states.cache_info().misses == 1 + per_round_prefixes * (rounds // 64 + 1)


def test_layer_checks_take_numpy_integer_counts():
    i = np.int64
    assert participant_ladder(i(8), i(2)) == [2, 4, 8]
    assert straggler.expected_order_stat(i(8), i(2), 1.0) == straggler.expected_order_stat(8, 2, 1.0)
    gt = gen_ground_truth(i(8), i(2), i(6), 0.3, i(1))
    np.testing.assert_array_equal(gt.w_star, gen_ground_truth(8, 2, 6, 0.3, 1).w_star)
    q, _ = span_basis(fedrep.random_init(gt, substream(1, TAG_RANDOM_INIT)), gt.b_star)
    _, dist = fedrep.fedrep_round(q, gt, range(6), 30, 0.1, substream(1, TAG_ROUND, 1))
    assert fedrep.fedrep_round(q, gt, range(6), i(30), 0.1, substream(1, TAG_ROUND, 1))[1] == dist
    assert fedrep.fedrep_round(q, gt, range(6), 30, 0.1, substream(i(1), TAG_ROUND, np.uint8(1)))[1] == dist
    speed = straggler.SpeedModel.fixed(i(8), seed=1)
    assert straggler.select_fastest(speed, 1, i(3))[1] == straggler.select_fastest(speed, 1, 3)[1]
    assert straggler.build_stage_plan(8, 2, 0.1, speed, 1.2, straggler.MODE_FIXED, i(4))[0][1] == 4


@pytest.mark.parametrize("key, value", [
    ("fixed_rounds", 2.5), ("max_rounds", 3.5), ("sweep_seeds", 2.5), ("d", 8.0), ("n_total", 8.5), ("m", 30.5),
])
def test_integer_fields_refuse_a_fraction(key, value):
    # unchecked, the fixed plan truncated 2.5 rounds to 2, and d = 8.0 failed as a bare TypeError
    with pytest.raises(ConfigError) as refused:
        RunConfig(**{"d": 8, "k": 2, "n_total": 8, "n0": 2, "m": 30, "sigma": 0.1, "plan_mode": "fixed", key: value})
    assert str(refused.value) == f"{key} must be an integer, got {value!r}"


def test_integer_fields_accept_numpy_integers():
    kw = dict(d=8, k=2, n_total=8, n0=2, m=30, sigma=0.1, seed=3, plan_mode="fixed", fixed_rounds=2, epsilon=0.0)
    as_numpy = RunConfig(**{key: np.int64(v) if type(v) is int else v for key, v in kw.items()})
    assert cli.trace_to_csv(engine.run(as_numpy)) == cli.trace_to_csv(engine.run(RunConfig(**kw)))


def test_every_field_has_a_type_both_readers_know():
    # RunConfig's construction pass and config.py's parser read these four types; a field of
    # another type would be stored and parsed by a rule written for one of them
    assert {f.name: f.type for f in dataclasses.fields(RunConfig)
            if f.type not in (int, float, float | None, str)} == {}


MOTIVATION = dict(d=8, k=2, n_total=8, n0=2, m=30, sigma=0.2, seed=1)


def as_numpy(kw, floats=np.float32, ints=np.int32):
    return {key: ints(v) if type(v) is int else floats(v) if type(v) is float else v for key, v in kw.items()}


def as_python(kw):
    return {key: int(v) if isinstance(v, np.integer) else float(v) if isinstance(v, np.floating) else v
            for key, v in kw.items()}


@pytest.mark.parametrize("kw", [
    dict(MOTIVATION, plan_mode="fixed", fixed_rounds=6, epsilon=0.0, eta=0.05),
    dict(MOTIVATION, plan_mode="fixed", fixed_rounds=6, epsilon=0.0, lam=1.5),
    dict(MOTIVATION, c_hat=1.2),
], ids=["eta", "lam", "c_hat"])
def test_configs_with_equal_digests_run_alike(kw):
    # numpy values were kept as given, so float32 eta, lam and c_hat moved the trace or epsilon under one digest
    numpy_built = RunConfig(**as_numpy(kw))
    python_built = RunConfig(**as_python(as_numpy(kw)))
    assert numpy_built == python_built and numpy_built.digest() == python_built.digest()
    assert all(type(getattr(numpy_built, f.name)) in (int, float, str, type(None))
               for f in dataclasses.fields(RunConfig))
    numpy_trace, python_trace = engine.run(numpy_built), engine.run(python_built)
    assert cli.trace_to_csv(numpy_trace) == cli.trace_to_csv(python_trace)
    assert cli.summary_block(numpy_trace) == cli.summary_block(python_trace)


@pytest.mark.parametrize("key, value, message", [
    ("epsilon", np.float32("inf"), "epsilon must be finite, got inf"),
    ("lam", np.float32("inf"), "lam must be finite, got inf"),
    ("comm_cost", np.float32("-inf"), "comm_cost must be finite, got -inf"),
    ("sigma", -10**400, "sigma must be finite, got -inf"),
    ("sigma", "0.1", "sigma must be a number, got '0.1'"),
    ("lam", "1", "lam must be a number, got '1'"),
    ("eta", "auto", "eta must be a number, got 'auto'"),
    ("d", np.float64(8.0), f"d must be an integer, got {np.float64(8.0)!r}"),
    ("algorithm", None, "algorithm must be a string, got None"),
], ids=["epsilon_inf", "lam_inf", "comm_cost_inf", "sigma_huge_int", "sigma_text", "lam_text", "eta_text",
        "d_numpy_float", "algorithm_none"])
def test_config_refuses_a_value_of_another_kind_naming_its_field(key, value, message):
    with pytest.raises(ConfigError) as refused:
        RunConfig(**dict(MOTIVATION, **{key: value}))
    assert str(refused.value) == message


def optional(*values):
    return st.sampled_from((None, *values))


@st.composite
def config_kwargs(draw):
    n_total = draw(st.integers(1, 24))
    return dict(
        d=draw(st.integers(1, 8)), k=draw(st.integers(1, 4)), n0=draw(st.integers(1, 8)),
        n_total=n_total, n_clients=draw(st.sampled_from((0, n_total, n_total + 5))),
        m=draw(st.integers(1, 60)), sigma=draw(st.sampled_from((0.0, 0.05, 0.5, 2.0))),
        eta=draw(optional(0.01, 0.1, 1.0)), a=draw(optional(0.01, 0.05, 0.25)),
        epsilon=draw(optional(0.0, 0.05, 0.5)),
        algorithm=draw(st.sampled_from(engine.ALGORITHMS)),
        plan_mode=draw(st.sampled_from(straggler.PLAN_MODES)),
        init_mode=draw(st.sampled_from(engine.INIT_MODES)),
        speed_kind=draw(st.sampled_from(straggler.SPEED_KINDS)),
        resample_scope=draw(st.sampled_from(engine.RESAMPLE_SCOPES)),
        seed=draw(st.integers(0, 50)), max_rounds=draw(st.integers(1, 150)),
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(config_kwargs(), st.data())
def test_random_config_built_from_numpy_scalars_is_the_python_config(kw, data):
    numpy_kw = {
        key: data.draw(st.sampled_from((np.int32, np.int64)))(v) if type(v) is int
        else data.draw(st.sampled_from((np.float32, np.float64)))(v) if type(v) is float else v
        for key, v in kw.items()
    }
    try:
        expected = RunConfig(**as_python(numpy_kw))
    except ConfigError as exc:
        with pytest.raises(ConfigError) as refused:
            RunConfig(**numpy_kw)
        assert str(refused.value) == str(exc)
        return
    cfg = RunConfig(**numpy_kw)
    assert cfg == expected and cfg.digest() == expected.digest()
    assert all(type(getattr(cfg, key)) in (int, float) for key, v in numpy_kw.items() if isinstance(v, np.generic))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(config_kwargs())
def test_random_config_is_refused_or_gives_a_sound_trace(kw):
    try:
        cfg = RunConfig(**kw)
    except ConfigError:
        return
    try:
        trace = engine.run(cfg)
    except SrpflError:
        return
    assert trace.records
    assert all(0.0 <= r.dist <= 1.0 for r in trace.records)
    times = [r.cumulative_time for r in trace.records]
    assert all(b > a for a, b in zip(times, times[1:]))
    ns = [r.n for r in trace.records]
    assert all(b >= a for a, b in zip(ns, ns[1:]))
    for r in trace.records:  # each row holds its round's n distinct participants out of M
        assert len(set(r.ids.tolist())) == len(r.ids) == r.n
        assert 0 <= r.ids.min() and r.ids.max() < cfg.population
    last = trace.records[-1]
    assert trace.final_dist == last.dist
    assert trace.reached_target == (last.dist <= trace.epsilon)
    assert cli.trace_to_csv(engine.run(cfg)) == cli.trace_to_csv(trace)
