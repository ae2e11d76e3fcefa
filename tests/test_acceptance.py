"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 5 checks both closed-form wall-clock bounds against simulation
with the contraction factor measured from the runs themselves.  The
baseline lower-bound half is a known red: on its fixture the baseline's
mean time lies below the lower bound, by the figures its failure message
states.  The cause is the target the runs are timed to, which asks for a smaller shrink than the bound counts
(ROADMAP item 1).  Its assertion states the criterion as written rather
than a loosened version.
"""

import dataclasses
import statistics
import time

import numpy as np
import pytest

from srpfl import checks, cli, engine, fedrep, linalg, synthesis

from criteria import CRITERION_1, CRITERION_2, CRITERION_5, mean_speedup_ratio


def report(name, ok, detail, budget_s, elapsed_s):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail}; {elapsed_s:.1f}s of {budget_s:.0f}s budget)")
    assert elapsed_s < budget_s, f"{name} exceeded its runtime budget"
    assert ok, f"{name}: {detail}"


def test_criterion_1_contraction():
    start = time.perf_counter()
    ok, detail = checks.contraction(CRITERION_1)  # eta = 1/(8 sigma_max^2), bounded from W*'s spectrum
    report("criterion 1 (contraction inequality)", ok, detail, 30, time.perf_counter() - start)


def test_criterion_2_noiseless_exact_recovery():
    start = time.perf_counter()
    trace = engine.run(CRITERION_2)
    dists = trace.dists()
    reached = trace.reached_target and len(dists) <= 200
    # log-linear fit after round 10
    y = np.log(dists[10:])
    x = np.arange(10, len(dists), dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())
    ok = reached and trace.final_dist <= 1e-6 and r2 >= 0.99
    report(
        "criterion 2 (noiseless exact recovery)", ok,
        f"dist {trace.final_dist:.2e} in {len(dists)} rounds, log-dist R^2 {r2:.5f}",
        10, time.perf_counter() - start,
    )


def test_criterion_3_order_statistics():
    start = time.perf_counter()
    ok, detail = checks.order_statistics()
    report("criterion 3 (exponential order statistics)", ok, detail, 5, time.perf_counter() - start)


def test_criterion_4_speedup_trend():
    start = time.perf_counter()
    seeds = list(range(20))
    mean_64 = mean_speedup_ratio(64, seeds)
    mean_256 = mean_speedup_ratio(256, seeds)
    ok = mean_256 < mean_64 < 1.0
    report(
        "criterion 4 (speedup trend in N)", ok,
        f"mean ratio N=64: {mean_64:.3f}, N=256: {mean_256:.3f}",
        600, time.perf_counter() - start,
    )


@pytest.fixture(scope="module")
def bracket_runs():
    """Shared 50-seed sweep for criterion 5, with a measured from the runs.

    Phase 1 fits the realized contraction factor from three pilot
    baseline trajectories; phase 2 reruns both algorithms with that
    factor as the configured a (so schedule budgets and the target
    accuracy are consistent with the realized dynamics), then re-measures
    a from the 50 baseline trajectories for the bound evaluation.
    """
    start = time.perf_counter()
    pilots = [
        engine.run(dataclasses.replace(CRITERION_5, algorithm=engine.ALGO_FEDREP_FULL, seed=s))
        for s in (9001, 9002, 9003)
    ]
    a0 = statistics.median(engine.measure_contraction_rate(t) for t in pilots)
    cfg = dataclasses.replace(CRITERION_5, a=a0)
    seeds = list(range(50))
    results = engine.run_sweep(cfg, seeds)
    a_measured = statistics.median(
        engine.measure_contraction_rate(t) for t in results[engine.ALGO_FEDREP_FULL]
    )
    upper, lower, _ = engine.analytic_speedup_bound(
        cfg.n_total, cfg.c_hat, a_measured, cfg.comm_cost, cfg.lam
    )
    return {
        "mean_srpfl": statistics.fmean(t.total_time() for t in results[engine.ALGO_SRPFL]),
        "mean_fedrep": statistics.fmean(t.total_time() for t in results[engine.ALGO_FEDREP_FULL]),
        "upper": upper,
        "lower": lower,
        "a": a_measured,
        "elapsed": time.perf_counter() - start,
    }


def test_criterion_5a_srpfl_upper_bound(bracket_runs):
    r = bracket_runs
    ok = r["mean_srpfl"] <= r["upper"]
    report(
        "criterion 5a (adaptive run under analytic upper bound)", ok,
        f"mean {r['mean_srpfl']:.0f} vs upper {r['upper']:.0f} at a={r['a']:.4f}",
        900, r["elapsed"],
    )


def test_criterion_5b_fedrep_lower_bound(bracket_runs):
    r = bracket_runs
    ok = r["mean_fedrep"] >= r["lower"]
    report(
        "criterion 5b (baseline run over analytic lower bound)", ok,
        f"mean {r['mean_fedrep']:.0f} vs lower {r['lower']:.0f} at a={r['a']:.4f}",
        900, r["elapsed"],
    )


def test_criterion_6_method_of_moments():
    start = time.perf_counter()
    gt_a = synthesis.gen_ground_truth(5, 1, 1, 0.0, seed=42)
    init_a = fedrep.method_of_moments_init(gt_a, [0], 100_000, seed=42)
    dist_a = linalg.principal_angle_dist(init_a, gt_a.b_star)

    gt_b = synthesis.gen_ground_truth(10, 2, 50, 0.5, seed=43)
    init_b = fedrep.method_of_moments_init(gt_b, range(50), 2000, seed=43)
    dist_b = linalg.principal_angle_dist(init_b, gt_b.b_star)

    ok = dist_a <= 0.1 and dist_b <= 1.0 - 0.05
    report(
        "criterion 6 (method-of-moments warm start)", ok,
        f"single-client dist {dist_a:.4f} (<= 0.1), noisy multi-client dist {dist_b:.4f} (<= 0.95)",
        30, time.perf_counter() - start,
    )


def test_criterion_7_kernel_invariants():
    start = time.perf_counter()
    ok, detail = checks.kernel_invariants()
    report("criterion 7 (kernel invariant suite)", ok, detail, 60, time.perf_counter() - start)


def test_criterion_8_determinism(tmp_path, monkeypatch):
    start = time.perf_counter()
    cfg_text = (
        "d = 10\nk = 2\nN = 8\nn0 = 2\nm = 40\nsigma = 0.1\nseed = 3\n"
        "plan_mode = analytic\ncomm_cost = 0.5\nsweep_seeds = 3\n"
    )
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text)

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    run_identical = (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    out_c, out_d = tmp_path / "c", tmp_path / "d"
    monkeypatch.setenv("SRPFL_THREADS", "2")
    assert cli.main(["compare", "--config", str(cfg_path), "--out", str(out_c)]) == 0
    assert cli.main(["compare", "--config", str(cfg_path), "--out", str(out_d)]) == 0
    monkeypatch.setenv("SRPFL_THREADS", "1")
    assert cli.main(["compare", "--config", str(cfg_path), "--out", str(out_e := tmp_path / "e")]) == 0
    sweep_identical = (
        (out_c / "compare.csv").read_bytes() == (out_d / "compare.csv").read_bytes()
        and (out_c / "compare.csv").read_bytes() == (out_e / "compare.csv").read_bytes()
    )

    ok = run_identical and sweep_identical
    report(
        "criterion 8 (byte-identical traces)", ok,
        f"run identical: {run_identical}, parallel sweep identical: {sweep_identical}",
        120, time.perf_counter() - start,
    )
