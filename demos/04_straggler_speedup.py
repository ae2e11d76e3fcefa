#!/usr/bin/env python3
"""Adaptive participation vs full participation under exponential stragglers.

Runs both schemes on shared seeds, reports the simulated wall-clock
time each takes to reach the target, and prints the closed-form bounds
evaluated at the contraction factor measured from the baseline
trajectories.  Takes a few seconds.

Run:  python3 demos/04_straggler_speedup.py
"""

import dataclasses
import statistics

from srpfl import (
    ALGO_FEDREP_FULL,
    ALGO_SRPFL,
    RunConfig,
    analytic_speedup_bound,
    measure_contraction_rate,
    run,
    run_sweep,
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
# an analytic plan runs until the target, so a run's total time is its time to it
t_s_all = [tr.total_time() for tr in results[ALGO_SRPFL]]
t_f_all = [tr.total_time() for tr in results[ALGO_FEDREP_FULL]]
ratios = [t_s / t_f for t_s, t_f in zip(t_s_all, t_f_all)]
for seed, t_s, t_f, ratio in zip(seeds, t_s_all, t_f_all, ratios):
    print(f"{seed:>5} {t_s:>11.1f} {t_f:>8.1f} {ratio:>7.3f}")

a_meas = statistics.median(measure_contraction_rate(t) for t in results[ALGO_FEDREP_FULL])
upper, lower, _ = analytic_speedup_bound(cfg.n_total, cfg.c_hat, a_meas, cfg.comm_cost, cfg.lam)
print(f"\nmean ratio                = {statistics.fmean(ratios):.3f}")
print(f"ratio of mean times       = {statistics.fmean(t_s_all) / statistics.fmean(t_f_all):.3f}")
print(f"closed-form upper (adapt) = {upper:.0f} vs measured mean {statistics.fmean(t_s_all):.0f}")
print(f"closed-form lower (full)  = {lower:.0f} vs measured mean {statistics.fmean(t_f_all):.0f}")
print("(the lower bound counts the rounds of a sqrt(N)/(c_hat-1)-fold shrink, more than")
print(" the target asks for; see README and ROADMAP item 1)")
