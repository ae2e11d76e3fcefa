"""Tests of the benchmark's own arithmetic and inputs.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
from tracing import END, NAME, PARENT, START  # noqa: E402


def span(name, start, end, parent=None, pid=1):
    return [name, start, end, parent, None, pid, 0]


def test_self_time_subtracts_nested_children():
    spans = [
        span("engine.run", 0.0, 10.0),
        span("fedrep.fedrep_round", 1.0, 6.0, parent=0),
        span("synthesis.sample_batch", 2.0, 3.0, parent=1),
        span("fedrep.head_update", 3.5, 5.0, parent=1),
        span("linalg.principal_angle_dist", 7.0, 8.0, parent=0),
        span("engine.run", 11.0, 12.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.5, 1.0, 1.5, 1.0, 1.0])
    wall = 13.0
    unattributed = tracing.unattributed_seconds(spans, wall)
    assert unattributed == pytest.approx(2.0)
    assert sum(tracing.self_times(spans)) + unattributed == pytest.approx(wall)


def test_self_time_counts_overlapping_children_once():
    # two pool workers run in parallel under one sweep span
    spans = [
        span("engine.run_sweep", 0.0, 10.0),
        span("engine.run", 1.0, 6.0, parent=0, pid=2),
        span("engine.run", 2.0, 8.0, parent=0, pid=3),
        span("engine.run", 12.0, 13.0, parent=0, pid=2),  # clipped to the parent
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_layer_stats_per_name():
    spans = [span("engine.run", 0.0, 4.0), span("linalg.thin_qr", 1.0, 2.0, parent=0),
             span("linalg.thin_qr", 2.0, 4.0, parent=0)]
    spans[1][tracing.COUNT] = 5
    stats = tracing.layer_stats(spans)
    assert stats["linalg.thin_qr"]["calls"] == 2
    assert stats["linalg.thin_qr"]["self_s"] == pytest.approx(3.0)
    assert stats["linalg.thin_qr"]["count"] == 5
    assert stats["engine.run"]["self_s"] == pytest.approx(1.0)


@pytest.mark.parametrize("n, value, q_used", [
    (1000, 990, 99.0),   # p99 itself has ten samples beyond it
    (2000, 1980, 99.0),
    (100, 90, 90.0),     # lowered to the highest percentile with ten beyond
    (11, 1, 100.0 / 11),
    (7, 4, 50.0),        # no percentile has ten beyond: the median
])
def test_tail_percentile_keeps_ten_samples_beyond(n, value, q_used):
    samples = list(range(n, 0, -1))
    got, q = tracing.tail_percentile(samples)
    assert got == value
    assert q == pytest.approx(q_used)
    if n > 10:
        assert sum(x > got for x in samples) >= 10


def test_traced_patches_every_lookup_site_and_restores():
    from srpfl import engine, fedrep, linalg

    originals = (engine.fedrep_round, fedrep.thin_qr, linalg.thin_qr, engine.run)
    recorder = tracing.Recorder()
    with tracing.traced(recorder):
        assert engine.fedrep_round is not originals[0]
        assert fedrep.thin_qr is not originals[1]
        fedrep.thin_qr([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert (engine.fedrep_round, fedrep.thin_qr, linalg.thin_qr, engine.run) == originals
    assert [s[NAME] for s in recorder.spans] == ["linalg.thin_qr"]
    assert recorder.spans[0][END] >= recorder.spans[0][START]
    assert recorder.spans[0][PARENT] is None


def record(n, t, dist):
    return SimpleNamespace(n=n, cumulative_time=t, dist=dist)


def fake_trace(records, epsilon=0.2, init_dist=0.9, reached=True):
    return SimpleNamespace(records=records, epsilon=epsilon, init_dist=init_dist,
                           reached_target=reached)


def test_trace_problems_flag_vacuous_and_malformed_runs():
    good = [record(2, 1.0, 0.8), record(4, 2.0, 0.5), record(4, 3.0, 0.1)]
    assert checks.trace_problems(fake_trace(good)) == []
    assert checks.trace_problems(fake_trace(good[:1]))
    assert checks.trace_problems(fake_trace(good, epsilon=1.2))
    assert checks.trace_problems(fake_trace(good, reached=False))
    assert checks.trace_problems(fake_trace([record(2, 1.0, 0.8), record(4, 1.0, 0.1)]))
    assert checks.trace_problems(fake_trace([record(4, 1.0, 0.8), record(2, 2.0, 0.1)]))
    assert checks.trace_problems(fake_trace([record(2, 1.0, 1.5), record(2, 2.0, 0.1)]))


def test_compare_problems():
    summary = "seeds = 10\nmean_time_srpfl = 90\nmean_time_fedrep_full = 120\n"
    assert checks.compare_problems(0, summary) == []
    assert checks.compare_problems(1, "")
    assert checks.compare_problems(0, summary.replace("= 90", "= 130"))


@pytest.mark.parametrize("workload", [w for w in spec.WORKLOADS if w.kind == "runs"])
def test_workload_configs_validate(workload):
    configs = workload.build(7)
    assert [c.seed for c in configs] == workload.seeds(7)
    for config in configs:
        config.validate()
    assert workload.build(7) == configs
    assert set(workload.seeds(7)).isdisjoint(workload.seeds(8))


@pytest.mark.parametrize("name", ["ladder_n256", "dynamic_wide"])
def test_workload_first_run_is_non_vacuous(name):
    from srpfl import engine

    trace = engine.run(spec.BY_NAME[name].build(3)[0])
    assert checks.trace_problems(trace) == []


def test_full_workload_shares_the_ladder_targets():
    # same seeds, same init and epsilon: the ladder run shows the target is not vacuous
    full, ladder = (spec.BY_NAME[n].build(3) for n in ("full_n256", "ladder_n256"))
    for f, l in zip(full, ladder):
        assert (f.algorithm, l.algorithm) == ("fedrep_full", "srpfl")
        assert {**vars(f), "algorithm": None} == {**vars(l), "algorithm": None}


def test_compare_workload_config_is_non_vacuous():
    import dataclasses

    from srpfl import engine
    from srpfl.config import load_config

    workload = spec.BY_NAME["compare_cli"]
    argv = workload.build(3)
    overrides = [argv[i + 1] for i, arg in enumerate(argv) if arg == "--override"]
    config = load_config(ROOT / spec.COMPARE_CONFIG, overrides, seed=workload.seeds(3)[0])
    assert config.sweep_seeds == workload.n_seeds
    for algorithm in engine.ALGORITHMS:
        trace = engine.run(dataclasses.replace(config, algorithm=algorithm))
        assert checks.trace_problems(trace) == []


def test_benchmark_json_is_generated_from_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert set(committed) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert any(m["name"] == "setup_s" and m["bound"] == max(e["bound"] for e in committed["end_to_end"])
               for m in committed["end_to_end"])
