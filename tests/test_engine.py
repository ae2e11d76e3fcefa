import dataclasses
import hashlib
import math

import numpy as np
import pytest

from srpfl import checks, cli, engine, straggler
from srpfl.engine import RunConfig
from srpfl.errors import ConfigError, NonConvergence, SrpflError
from srpfl.straggler import participant_ladder
from srpfl.synthesis import TAG_SUBSET_PROBE, gen_ground_truth, substream


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
        model = (straggler.SpeedModel.fixed(cfg.n_total, cfg.lam, cfg.comm_cost, cfg.seed) if speed_kind == "fixed"
                 else straggler.SpeedModel.dynamic(cfg.n_total, cfg.comm_cost, cfg.seed))
        for record, ids in zip(trace.records, trace.participants):
            times = straggler.draw_round_times(model, record.round_index)
            np.testing.assert_array_equal(ids, straggler.select_fastest(times, record.n))
            assert record.round_time == float(np.max(times[ids])) + 0.7

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
        monkeypatch.setattr(engine, "fedrep_round", lambda b, gt, ids, m, *rest: real_round(b, gt, ids, 1, *rest))
        cfg = small_config(plan_mode="fixed", fixed_rounds=3, epsilon=0.0)
        with pytest.raises(SrpflError, match=r"stage 0, round 1: projected Gram matrix singular"):
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
        assert all(p.max() < 20 for p in per_round.participants)
        # per-round resampling draws different client sets round to round
        sets = {tuple(sorted(p.tolist())) for p in per_round.participants}
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
# config, recorded when rounds began drawing in a basis that starts with b,
# so that each head is a back-substitution on its client's Bartlett factor.
# A change that moves one of them changes what a run computes and must say why.
GUARD_CONFIG = dict(
    d=8, k=2, n_total=16, n0=2, m=40, sigma=0.1, seed=5, comm_cost=1.0,
    fixed_rounds=10, init_mode="random", a=0.1, epsilon=0.1,
)
TRACE_SHA256 = {
    ("srpfl", "analytic"): "c887b57352485110e00c0f3251d9b9cbd76d25e398536c03cdd8c28b9f54ae8f",
    ("srpfl", "distance_threshold"): "aa67727d27da1b2a92ef87d3c9f80bd2c4f1e943f1575fb2721d250b8f57791a",
    ("srpfl", "fixed"): "b4f8bc2fb2ec3761755b93a71182de580475a37fe8360795273e391e06700b35",
    ("fedrep_full", "analytic"): "42246200167f2a6b0c3ea0dce552c4d563a3e09b51ccbe5bf7dd576f9127131d",
    ("fedrep_full", "distance_threshold"): "42246200167f2a6b0c3ea0dce552c4d563a3e09b51ccbe5bf7dd576f9127131d",
    ("fedrep_full", "fixed"): "fba5d0450d6542cecfd728fc5a17863dc4d7c89e888f7181488fc2ca75749e09",
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
    """Round indices passed to ``engine.fedrep_round``, looked up by name as perfbench's clock patches it."""
    calls = []
    real_round = engine.fedrep_round

    def counted(*args):
        calls.append(args[-1])
        return real_round(*args)

    monkeypatch.setattr(engine, "fedrep_round", counted)
    return calls


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
    assert calls == [r.round_index for r in trace.records]
    assert sorted({r.stage for r in trace.records}) == stages
    assert trace.reached_target == reached


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
    assert calls == list(range(1, max_rounds + 1))


class TestContractionCheck:
    # the exact (ok, detail) that `srpfl verify` reports for each config
    @pytest.mark.parametrize("cfg, verdict", [
        (dict(d=12, k=2, n_total=16, n0=4, m=80, sigma=0.0),
         (True, "60/60 rounds satisfied (1.000), worst violation 0.0000")),
        # the grossly oversized step of test_cli's verify_bad config
        (dict(d=10, k=2, n_total=8, n0=2, m=40, sigma=0.3, fixed_rounds=15, eta=8.0),
         (False, "40/45 rounds satisfied (0.889), worst violation 0.0467")),
        # with n0 = 4 the noise floor's ratio n/n0 differs from n/2: 35/45 rounds hold with n/2
        (dict(d=10, k=2, n_total=16, n0=4, m=40, sigma=0.3, fixed_rounds=15, eta=8.0),
         (False, "42/45 rounds satisfied (0.933), worst violation 0.2281")),
    ], ids=["noiseless", "oversized_step", "oversized_step_n0_4"])
    def test_verdict(self, cfg, verdict):
        config = RunConfig(**{"seed": 4, "plan_mode": "fixed", "fixed_rounds": 20, "epsilon": 0.0, **cfg})
        assert checks.contraction(config) == verdict

    def test_margin_inside_tolerance_holds(self, monkeypatch):
        # the last round of a real trace is moved to a margin of 5e-13,
        # inside the 1e-12 hold tolerance, so every round still holds
        config = RunConfig(d=12, k=2, n_total=16, n0=4, m=80, sigma=0.0, seed=4,
                           plan_mode="fixed", fixed_rounds=20, epsilon=0.0)
        trace = engine.run(config)
        w_star = gen_ground_truth(config.d, config.k, config.n_clients, config.sigma, config.seed).w_star
        last, ids = trace.records[-1], trace.participants[-1]
        s_min = float(np.linalg.svd(w_star[ids] / math.sqrt(len(ids)), compute_uv=False)[-1])
        a_t = straggler.contraction_factor(trace.eta, 1.0 - trace.init_dist**2, s_min)
        shrink = math.sqrt(1.0 - a_t)
        rhs = shrink * trace.records[-2].dist + (1.0 - shrink) * straggler.noise_floor(a_t, last.n / config.n0)
        trace.records[-1] = dataclasses.replace(last, dist=rhs + 5e-13)
        monkeypatch.setattr(checks.engine, "run", lambda cfg: trace)
        assert checks.contraction(config) == (True, "60/60 rounds satisfied (1.000), worst violation 0.0000")


class TestAnalyticBound:
    def test_plug_in_values(self):
        # frozen from an independent evaluation at N=256, c=1, c_hat=1.2, a=0.25;
        # at lam = 2 the same c = comm_cost * lam halves both times
        for comm_cost, lam in ((1.0, 1.0), (0.5, 2.0)):
            upper, lower, ratio = engine.analytic_speedup_bound(256, 1.2, 0.25, comm_cost, lam)
            assert upper == pytest.approx(355.39442448980185 / lam, rel=1e-12)
            assert lower == pytest.approx(168.93034069597874 / lam, rel=1e-12)
            assert ratio == pytest.approx(2.1037927409937542, rel=1e-12)

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


def synthetic_trace(dists):
    """A trace with one round of unit time per distance and no participant sets."""
    records = [engine.RoundRecord(0, t, 4, 1.0, float(t), dist) for t, dist in enumerate(dists, start=1)]
    return engine.RunTrace(
        records=records, config_digest="x", final_dist=records[-1].dist,
        init_dist=0.9, epsilon=1e-6, eta=0.1, a=0.05, lam=1.0,
        sigma_min_star=1.0, sigma_max_star=1.0, reached_target=False,
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


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_singular_extremes_match_per_subset_loop(seed):
    w = gen_ground_truth(6, 3, 40, 0.0, seed).w_star
    # 64 uniform permutations of the 40 clients; size n takes the first n
    # entries of each, and the full set is taken once, exactly
    order = substream(seed, TAG_SUBSET_PROBE).random((64, 40)).argsort(axis=1)
    assert all(np.array_equal(np.sort(row), np.arange(40)) for row in order)
    s_min, s_max = math.inf, 0.0
    for n in participant_ladder(40, 3):
        subsets = [np.arange(40)] if n == 40 else [row[:n] for row in order]
        for idx in subsets:
            sv = np.linalg.svd(w[idx] / math.sqrt(n), compute_uv=False)
            s_min, s_max = min(s_min, float(sv[-1])), max(s_max, float(sv[0]))
    assert engine.measure_singular_extremes(w, 3, seed) == (s_min, s_max)


@pytest.mark.parametrize("call, message", [
    (lambda: engine.analytic_speedup_bound(1, 1.2, 0.1, 0.0, 1.0), "bounds need N >= 2, got 1"),
    (lambda: engine.measure_contraction_rate(synthetic_trace([0.5])),
     "trace too short to measure a contraction rate"),
], ids=["one_client", "one_record"])
def test_typed_errors(call, message):
    with pytest.raises(ConfigError, match=message):
        call()


def test_sweep_threads_rejects_a_non_integer(monkeypatch):
    monkeypatch.setenv("SRPFL_THREADS", "abc")
    with pytest.raises(ConfigError, match="SRPFL_THREADS must be an integer, got 'abc'"):
        engine.sweep_threads()
