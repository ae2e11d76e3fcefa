import dataclasses
import hashlib
import math

import numpy as np
import pytest

from srpfl import cli, engine
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
        with pytest.raises(NonConvergence):
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
# config, recorded when rounds began drawing each client's batch as the
# Bartlett factor of its Gram matrix.  A change that moves one of them
# changes what a run computes and must say why.
GUARD_CONFIG = dict(
    d=8, k=2, n_total=16, n0=2, m=40, sigma=0.1, seed=5, comm_cost=1.0,
    fixed_rounds=10, init_mode="random", a=0.1, epsilon=0.1,
)
TRACE_SHA256 = {
    ("srpfl", "analytic"): "ac4c1cbe121e9fdf34b4282bc55b208a11050e25c78b10a22eda2dd558f4c8ed",
    ("srpfl", "distance_threshold"): "41e6c6c92ccc9e5ebaee243d3372c7d42e3bf973c9b81959515082eb046e6ed9",
    ("srpfl", "fixed"): "e9e8a4bcb6dbc1a31ad4e5285501a3a88b5616645324676b6763d05a6b585626",
    ("fedrep_full", "analytic"): "8730c7aa83c8fcac2b279f0c15cb2076d20594e11805dbf2fe30436ecd7bfb05",
    ("fedrep_full", "distance_threshold"): "8730c7aa83c8fcac2b279f0c15cb2076d20594e11805dbf2fe30436ecd7bfb05",
    ("fedrep_full", "fixed"): "ca0a03c4d97cdf21d695fb506e3f61342014ddc8e425314846de1a153357106d",
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


def test_fixed_plan_cap_ends_the_run(monkeypatch):
    # the cap falls in stage 0; no later stage draws an active set
    scopes = []
    real_sample = engine._sample_active

    def spy(config, scope_index):
        scopes.append(scope_index)
        return real_sample(config, scope_index)

    monkeypatch.setattr(engine, "_sample_active", spy)
    cfg = RunConfig(
        d=6, k=2, n_clients=40, n_total=32, n0=2, m=20, sigma=0.1, a=0.1, epsilon=0.0,
        plan_mode="fixed", fixed_rounds=5, max_rounds=3,
    )
    trace = engine.run(cfg)
    assert len(trace.records) == 3
    assert scopes == [0]


def test_analytic_plan_cap_names_the_stage_it_is_hit_in():
    # the cap falls inside stage 0's budget, so the error names stage 0
    # rather than the last stage
    with pytest.raises(NonConvergence, match=r"round cap 5 hit at stage 0 "):
        engine.run(RunConfig(**GUARD_CONFIG, plan_mode="analytic", max_rounds=5))


class TestVerifyContraction:
    def test_noiseless_regime_satisfied(self):
        cfg = RunConfig(
            d=12, k=2, n_total=16, n0=4, m=80, sigma=0.0, seed=4,
            plan_mode="fixed", fixed_rounds=20, epsilon=0.0,
        )
        trace = engine.run(cfg)
        gt = gen_ground_truth(12, 2, 16, 0.0, 4)
        report = engine.verify_contraction(trace, gt, 4)
        assert report.n_rounds == len(trace.records)
        assert report.fraction_satisfied >= 0.95

    def test_report_fields_consistent(self):
        cfg = RunConfig(
            d=10, k=2, n_total=8, n0=2, m=60, sigma=0.3, seed=6,
            plan_mode="fixed", fixed_rounds=10, epsilon=0.0,
        )
        trace = engine.run(cfg)
        gt = gen_ground_truth(10, 2, 8, 0.3, 6)
        report = engine.verify_contraction(trace, gt, 2)
        assert len(report.margins) == report.n_rounds
        assert report.n_satisfied == int((report.margins <= 1e-12).sum())
        assert report.worst_violation >= 0.0
        assert np.all(report.a_values >= 0.0)


class TestSpeedup:
    def test_identical_traces_ratio_one(self):
        cfg = small_config(n_total=4, n0=4, sigma=0.0, seed=3)
        t1 = engine.run(cfg)
        t2 = engine.run(small_config(n_total=4, n0=4, sigma=0.0, seed=3))
        report = engine.speedup_report(t1, t2, t1.epsilon)
        assert report.ratio == pytest.approx(1.0, abs=1e-12)

    def test_target_not_reached_names_trace(self):
        cfg = small_config(sigma=0.0, seed=3, plan_mode="fixed", fixed_rounds=3, epsilon=0.0)
        short = engine.run(cfg)
        with pytest.raises(NonConvergence, match="srpfl trace never reached epsilon=0"):
            engine.speedup_report(short, short, 0.0)
        # a level only the longer trace reaches names the baseline trace
        long = engine.run(small_config(sigma=0.0, seed=3, plan_mode="fixed", fixed_rounds=12, epsilon=0.0))
        level = (long.dists().min() + short.dists().min()) / 2
        assert long.dists().min() < level < short.dists().min()
        with pytest.raises(NonConvergence, match="baseline trace never reached epsilon="):
            engine.speedup_report(long, short, level)

    def test_crossing_time_first_record(self):
        cfg = small_config(sigma=0.0, seed=3, plan_mode="fixed", fixed_rounds=6, epsilon=0.0)
        trace = engine.run(cfg)
        eps = trace.records[2].dist
        t = engine.crossing_time(trace, eps)
        expected = next(r.cumulative_time for r in trace.records if r.dist <= eps)
        assert t == expected


class TestAnalyticBound:
    def test_plug_in_values(self):
        # frozen from an independent evaluation at N=256, c=1, c_hat=1.2, a=0.25
        upper, lower, ratio = engine.analytic_speedup_bound(256, 1.2, 0.25, 1.0)
        assert upper == pytest.approx(355.39442448980185, rel=1e-12)
        assert lower == pytest.approx(168.93034069597874, rel=1e-12)
        assert ratio == pytest.approx(2.1037927409937542, rel=1e-12)

    def test_ratio_bound_vanishes_with_n(self):
        values = [
            engine.analytic_speedup_bound(n, 1.2, 0.2, 1.0)[2]
            for n in (2**8, 2**16, 2**32, 2**64)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.5

    def test_ratio_bound_grows_as_c_hat_drops(self):
        # monotone in c_hat -> 1+ whenever 2 log N > 6 (c + 1); c = 0 here
        hard = engine.analytic_speedup_bound(256, 1.001, 0.2, 0.0)[2]
        easy = engine.analytic_speedup_bound(256, 1.4, 0.2, 0.0)[2]
        assert hard > easy

    def test_c_hat_range(self):
        with pytest.raises(ConfigError, match=r"c_hat must lie strictly between 1 and sqrt\(2\), got 1.0"):
            engine.analytic_speedup_bound(256, 1.0, 0.2, 1.0)


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
    (lambda: engine.verify_contraction(synthetic_trace([0.5, 0.4]), None, 2),
     "trace does not carry realized participant sets"),
    (lambda: engine.analytic_speedup_bound(1, 1.2, 0.1, 0.0), "bounds need N >= 2, got 1"),
    (lambda: engine.measure_contraction_rate(synthetic_trace([0.5])),
     "trace too short to measure a contraction rate"),
], ids=["no_participants", "one_client", "one_record"])
def test_typed_errors(call, message):
    with pytest.raises(ConfigError, match=message):
        call()


def test_sweep_threads_rejects_a_non_integer(monkeypatch):
    monkeypatch.setenv("SRPFL_THREADS", "abc")
    with pytest.raises(ConfigError, match="SRPFL_THREADS must be an integer, got 'abc'"):
        engine.sweep_threads()
