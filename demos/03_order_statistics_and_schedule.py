#!/usr/bin/env python3
"""Exponential order statistics and the doubling schedule they induce.

The expected time to collect the j fastest of N exponential clients has
the closed form (1/lam) * sum_{i=N-j+1}^N 1/i.  The schedule formulas
turn those order statistics into distance thresholds for doubling the
participant count and per-stage round budgets.

Run:  python3 demos/03_order_statistics_and_schedule.py
"""

import numpy as np

from srpfl import (
    SpeedModel,
    build_stage_plan,
    expected_order_stat,
    target_accuracy,
)

N, lam = 64, 1.0
rng = np.random.default_rng(5)

print(f"== waiting for the j fastest of N={N} Exp({lam}) clients ==")
print(f"{'j':>4} {'analytic':>10} {'monte carlo':>12} {'rel err':>9}")
draws = rng.exponential(1.0 / lam, size=(100_000, N))
ordered = np.sort(draws, axis=1)
for j in (1, 2, 4, 8, 16, 32, 64):
    analytic = expected_order_stat(N, j, lam)
    observed = ordered[:, j - 1].mean()
    print(f"{j:>4} {analytic:>10.4f} {observed:>12.4f} {abs(observed - analytic) / analytic:>9.4f}")

print("\n== doubling schedule at a=0.1, n0=2, C=1 ==")
model = SpeedModel.fixed(N, lam=lam, comm_cost=1.0)
a, n0, c_hat = 0.1, 2, 1.2
plan = build_stage_plan(N, n0, a, model, c_hat, "analytic")
# X_r, the point to switch into stage r, ends stage r-1 of a threshold plan
points = (None, *(x for _, _, x in build_stage_plan(N, n0, a, model, c_hat, "distance_threshold")))
print(f"target accuracy eps = {target_accuracy(a, N, n0, c_hat):.4f}")
print(f"{'stage':>6} {'n_r':>5} {'budget':>7} {'switch below X_r':>17}")
for r, ((n_r, tau, _), x_r) in enumerate(zip(plan, points)):
    x_txt = "inf" if x_r is None else f"{x_r:.4f}"
    tau_txt = "to ε" if tau is None else tau
    print(f"{r:>6} {n_r:>5} {tau_txt:>7} {x_txt:>17}")
