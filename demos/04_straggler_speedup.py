#!/usr/bin/env python3
"""Adaptive participation vs full participation under exponential stragglers.

Runs both schemes on shared seeds, reports first-crossing wall-clock
times, and prints the closed-form bounds evaluated at the contraction
factor measured from the baseline trajectories.  Takes a few seconds.

Run:  python3 demos/04_straggler_speedup.py
"""

import dataclasses
import statistics

from srpfl import (
    ALGO_FEDREP_FULL,
    ALGO_SRPFL,
    RunConfig,
    analytic_speedup_bound,
    crossing_time,
    measure_contraction_rate,
    run,
    run_sweep,
    speedup_report,
)

base = RunConfig(
    d=20, k=2, n_total=128, n0=2, m=100, sigma=0.3, seed=0,
    comm_cost=1.0, lam=1.0, c_hat=1.2, init_mode="random", plan_mode="analytic",
)

# fit the realized contraction factor from two pilot baseline runs, then
# rerun with it so budgets and the target match the dynamics
pilot = [run(dataclasses.replace(base, algorithm=ALGO_FEDREP_FULL, seed=s)) for s in (901, 902)]
a_fit = statistics.median(measure_contraction_rate(t) for t in pilot)
cfg = dataclasses.replace(base, a=a_fit)
print(f"fitted contraction factor a = {a_fit:.4f}")
print(f"target accuracy eps         = {run(dataclasses.replace(cfg, seed=901)).epsilon:.4f}\n")

seeds = list(range(8))
results = run_sweep(cfg, seeds)
print(f"{'seed':>5} {'t_adaptive':>11} {'t_full':>8} {'ratio':>7}")
ratios, t_s_all, t_f_all = [], [], []
for seed, tr_s, tr_f in zip(seeds, results[ALGO_SRPFL], results[ALGO_FEDREP_FULL]):
    rep = speedup_report(tr_s, tr_f, tr_s.epsilon)
    ratios.append(rep.ratio)
    t_s_all.append(rep.t_srpfl)
    t_f_all.append(rep.t_baseline)
    print(f"{seed:>5} {rep.t_srpfl:>11.1f} {rep.t_baseline:>8.1f} {rep.ratio:>7.3f}")

a_meas = statistics.median(measure_contraction_rate(t) for t in results[ALGO_FEDREP_FULL])
upper, lower, ratio_bound = analytic_speedup_bound(cfg.n_total, cfg.c_hat, a_meas, 1.0)
print(f"\nmean ratio                = {statistics.fmean(ratios):.3f}")
print(f"ratio of mean times       = {statistics.fmean(t_s_all) / statistics.fmean(t_f_all):.3f}")
print(f"closed-form upper (adapt) = {upper:.0f} vs measured mean {statistics.fmean(t_s_all):.0f}")
print(f"closed-form lower (full)  = {lower:.0f} vs measured mean {statistics.fmean(t_f_all):.0f}")
print("(the lower bound's constants overstate any realized run; see README)")
