"""Client timing models, fastest-n selection, and the doubling schedule.

Round times come from exponential laws: either one fixed draw per client
reused every round, or fresh per-round draws with per-client rates.  The
schedule formulas are exact closed forms for the fixed exponential model:
:func:`build_stage_plan` computes the expected order statistic of each
rung of the participant ladder once and derives every doubling point and
round budget from that list; :func:`target_accuracy` gives the target.
Logarithms in the budget and bound formulas are natural logs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SrpflError
from .synthesis import TAG_CLIENT_RATES, TAG_DYNAMIC_TIMES, TAG_FIXED_TIMES, substream

MODE_ANALYTIC = "analytic"
MODE_THRESHOLD = "distance_threshold"
MODE_FIXED = "fixed"
PLAN_MODES = (MODE_ANALYTIC, MODE_THRESHOLD, MODE_FIXED)

SPEED_FIXED = "fixed"
SPEED_DYNAMIC = "dynamic"
SPEED_KINDS = (SPEED_FIXED, SPEED_DYNAMIC)

# range of the contraction factor: A_MAX is the largest the schedule
# formulas accept, A_MIN the floor for a measured factor
A_MIN = 1e-6
A_MAX = 0.25


def _check_slots(n_slots, comm_cost):
    if n_slots < 1:
        raise ConfigError(f"need at least one client slot, got {n_slots}")
    if comm_cost < 0:
        raise ConfigError(f"communication cost must be >= 0, got {comm_cost}")


@dataclass(frozen=True)
class SpeedModel:
    """Straggler timing law over ``n_slots`` client slots, plus the
    per-round communication cost.

    :meth:`fixed` draws one Exp(lam) time per slot once and holds it,
    read-only, in ``times``, reused every round.  :meth:`dynamic` draws
    slot rates once from Uniform[1/n_slots, 1] into ``per_client_rates``
    and fresh Exp(rate_i) times each round.  ``lam`` is the rate the
    closed-form schedule formulas use; for the dynamic model it is the
    mean slot rate.
    """

    lam: float
    comm_cost: float
    seed: int
    times: np.ndarray | None = None
    per_client_rates: np.ndarray | None = None

    @staticmethod
    def fixed(n_slots, lam=1.0, comm_cost=0.0, seed=0):
        _check_slots(n_slots, comm_cost)
        if lam <= 0:
            raise ConfigError(f"exponential rate must be positive, got {lam}")
        times = substream(seed, TAG_FIXED_TIMES).exponential(1.0 / lam, size=n_slots)
        times.setflags(write=False)  # every round shares this array
        return SpeedModel(lam=float(lam), comm_cost=float(comm_cost), seed=seed, times=times)

    @staticmethod
    def dynamic(n_slots, comm_cost=0.0, seed=0):
        _check_slots(n_slots, comm_cost)
        rates = substream(seed, TAG_CLIENT_RATES).uniform(1.0 / n_slots, 1.0, size=n_slots)
        return SpeedModel(
            lam=float(np.mean(rates)), comm_cost=float(comm_cost), seed=seed, per_client_rates=rates,
        )


@dataclass(frozen=True)
class StagePlan:
    """Doubling schedule: per stage, the participant count, round budget
    and exit threshold; a run follows it and nothing else.

    ``stages[r] = (n_r, tau_r)`` with ``n_r`` the r-th rung of
    :func:`participant_ladder`, ``min(N, n0 * 2^r)``.  A ``None`` budget
    leaves the stage open: it runs until its threshold or the target
    accuracy (every stage in distance-threshold mode, the last stage in
    analytic mode).  ``thresholds[r]`` is the doubling point X_{r+1} that
    ends stage r once the measured distance falls to it, or ``None`` where
    the stage has no distance exit (every stage outside distance-threshold
    mode, and the last stage in it).  :func:`build_stage_plan` gives the
    formulas for both.
    """

    stages: tuple
    thresholds: tuple


def draw_round_times(model, round_index):
    """Per-slot computation times for one round.

    Fixed model: its read-only ``times``, the same every round.  Dynamic
    model: fresh Exp(rate_i) draws, deterministic in ``(seed, round_index)``.
    """
    if model.times is not None:
        return model.times
    rng = substream(model.seed, TAG_DYNAMIC_TIMES, round_index)
    return rng.exponential(1.0, size=model.per_client_rates.size) / model.per_client_rates


def select_fastest(times, n):
    """Indices of the ``n`` smallest times, fastest first, ties by lowest index."""
    times = np.asarray(times, dtype=float)
    if not 1 <= n <= times.size:
        raise SrpflError(f"cannot select {n} of {times.size} clients")
    return np.argsort(times, kind="stable")[:n]


def round_time(times, comm_cost):
    """Wall-clock cost of one round: slowest participant plus communication."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise SrpflError("round_time needs at least one participant")
    return float(np.max(times)) + float(comm_cost)


def expected_order_stat(n, j, lam):
    """Mean of the j-th smallest of n i.i.d. Exp(lam) variables.

    Equals ``(1/lam) * sum_{i=n-j+1}^{n} 1/i``; strictly increasing in j.
    """
    if not 1 <= j <= n:
        raise SrpflError(f"order statistic j={j} outside 1..{n}")
    if lam <= 0:
        raise ConfigError(f"exponential rate must be positive, got {lam}")
    return sum(1.0 / i for i in range(n - j + 1, n + 1)) / lam


def contraction_factor(eta, e0, s_min):
    """(1/2) eta E0 sigma_min^2, clamped into [A_MIN, A_MAX]."""
    return min(max(0.5 * eta * e0 * s_min**2, A_MIN), A_MAX)


def check_contraction_factor(a):
    """Raise :class:`ConfigError` unless 0 < a <= 1/4."""
    if not 0.0 < a <= A_MAX:
        raise ConfigError(f"contraction factor a must lie in (0, 1/4], got {a}")


def check_c_hat(c_hat):
    """Raise :class:`ConfigError` unless 1 < c_hat < sqrt(2)."""
    if not 1.0 < c_hat < math.sqrt(2.0):
        raise ConfigError(f"c_hat must lie strictly between 1 and sqrt(2), got {c_hat}")


def _gap(t_hi, t_lo):
    gap = t_hi - t_lo
    if not math.isfinite(gap) or gap <= 0:
        raise SrpflError(f"order-statistic gap {gap!r} is not positive")
    return gap


def noise_floor(a, ratio):
    """a / (sqrt(ratio (1-a)) (1 - sqrt(1-a))), the fixed point of the contraction
    recursion d' <= sqrt(1-a) d + (1 - sqrt(1-a)) noise_floor(a, n/n0)."""
    return a / (math.sqrt(ratio * (1.0 - a)) * (1.0 - math.sqrt(1.0 - a)))


def _rounds_to_shrink(a, factor):
    """Rounds at per-round factor sqrt(1-a) to shrink a distance ``factor``-fold,
    2 log(factor) / log(1/(1-a)) rounded up and floored at one."""
    t = 2.0 * math.log(factor) / math.log(1.0 / (1.0 - a))
    return max(1, math.ceil(t))


def target_accuracy(a, n_total, n0, c_hat):
    """Target distance eps = c_hat * noise_floor(a, N/n0): c_hat times the contraction
    bound's fixed point at n = N, not the realized plateau, which fewer clients can reach."""
    check_c_hat(c_hat)
    check_contraction_factor(a)
    return c_hat * noise_floor(a, n_total / n0)


def participant_ladder(n_total, n0):
    """Doubling ladder n0, 2*n0, ... capped at n_total."""
    if not 1 <= n0 <= n_total:
        raise ConfigError(f"need 1 <= n0 <= N, got n0={n0}, N={n_total}")
    ladder = [n0]
    while ladder[-1] < n_total:
        ladder.append(min(2 * ladder[-1], n_total))
    return ladder


def build_stage_plan(n_total, n0, a, model, c_hat, mode, fixed_rounds=None):
    """Assemble the doubling schedule for one run.

    With rungs n_r from :func:`participant_ladder`, t_r the expected n_r-th
    order statistic of the N exponential times, g_r = t_{r+1} - t_r and C
    the communication cost:

    - Analytic mode gives stage r (0 < r < last) the budget
      2 log(sqrt(2) g_r / g_{r-1}) / log(1/(1-a)), rounded up and floored
      at one, and leaves the last stage open, to run until the target
      accuracy.  The first stage copies the second (the formula needs a
      predecessor stage the first one lacks; the first gap is also the
      cheapest), or, when the second is the last, takes the
      full-participation budget 2 log(1/(c_hat-1)) / log(1/(1-a)).
    - Distance-threshold mode leaves every budget open; every stage but
      the last ends once the measured distance falls to the doubling point

          X_{r+1} = noise_floor(a, n_r/n0) * (1 + (t_r + C) (1 - 1/sqrt(2)) / g_r).

    - Fixed mode uses a constant budget.

    Each rung's order statistic is computed once, and only where a formula
    reads it.  A gap that is not positive and finite (the times overflowed)
    raises :class:`SrpflError`.  The full-participation baseline is the plan
    with ``n0 = n_total``, a single stage.
    """
    check_contraction_factor(a)
    check_c_hat(c_hat)
    ladder = participant_ladder(n_total, n0)
    last = len(ladder) - 1
    budgets = [None] * len(ladder)
    thresholds = [None] * len(ladder)
    if mode == MODE_FIXED:
        if fixed_rounds is None or fixed_rounds < 1:
            raise ConfigError(f"fixed plan mode needs a positive round budget, got {fixed_rounds}")
        budgets = [int(fixed_rounds)] * len(ladder)
    elif mode not in PLAN_MODES:
        raise ConfigError(f"unknown plan mode {mode!r}")
    elif mode == MODE_ANALYTIC and last == 1:
        budgets[0] = _rounds_to_shrink(a, 1.0 / (c_hat - 1.0))
    elif last >= 1:
        t = [expected_order_stat(n_total, n, model.lam) for n in ladder]
        gaps = [_gap(hi, lo) for lo, hi in zip(t, t[1:])]
        if mode == MODE_THRESHOLD:
            for r in range(last):
                boost = (t[r] + model.comm_cost) * (1.0 - 1.0 / math.sqrt(2.0)) / gaps[r]
                thresholds[r] = noise_floor(a, ladder[r] / n0) * (1.0 + boost)
        else:
            for r in range(1, last):
                budgets[r] = _rounds_to_shrink(a, math.sqrt(2.0) * gaps[r] / gaps[r - 1])
            budgets[0] = budgets[1]
    return StagePlan(stages=tuple(zip(ladder, budgets)), thresholds=tuple(thresholds))
