"""The run configs of acceptance criteria 1, 2, 4 and 5, and criterion 4's
statistic, written once for the acceptance suite and the mutation module."""

import dataclasses
import statistics

from srpfl import engine
from srpfl.engine import RunConfig

CRITERION_1 = RunConfig(
    d=20, k=2, n_total=64, n0=4, m=100, sigma=0.1, seed=11,
    plan_mode="fixed", fixed_rounds=40, epsilon=0.0, comm_cost=1.0,
)

# it passes only when the run reaches 1e-6 within 200 rounds
CRITERION_2 = RunConfig(
    d=20, k=2, n_total=40, n0=40, m=50, sigma=0.0, seed=2,
    algorithm="fedrep_full", plan_mode="fixed", fixed_rounds=200, epsilon=1e-6,
)

# at N = 64; the criterion also runs it with n_total = 256, and M follows N
CRITERION_4 = RunConfig(
    d=20, k=2, n_total=64, n0=2, m=100, sigma=0.05, seed=0,
    comm_cost=1.0, lam=1.0, c_hat=1.2, plan_mode="analytic",
)


def mean_speedup_ratio(n_total, seeds):
    """Criterion 4's statistic at N = n_total: the mean over seeds of srpfl's time over fedrep_full's."""
    results = engine.run_sweep(dataclasses.replace(CRITERION_4, n_total=n_total), seeds)
    # an analytic plan runs until epsilon, so each run's completion time is its total time
    return statistics.fmean(
        s.total_time() / f.total_time()
        for s, f in zip(results[engine.ALGO_SRPFL], results[engine.ALGO_FEDREP_FULL])
    )


# the base of criterion 5's 50-seed sweep; the criterion sets its a from pilot runs
CRITERION_5 = RunConfig(
    d=20, k=2, n_total=256, n0=2, m=100, sigma=0.5, seed=0,
    comm_cost=1.0, lam=1.0, c_hat=1.2, init_mode="random", plan_mode="analytic",
)
