"""Client timing models and the one check of their arguments, fastest-n selection, and the doubling schedule and its checks.

Round times come from exponential laws of rate ``lam``: either one fixed draw per
client reused every round, or fresh per-round draws with slot rates
``lam * Uniform[1/N, 1]``; one call, :func:`select_fastest`, selects a round's slots
and prices the round.  The schedule formulas are exact closed forms for the fixed
exponential model: :func:`build_stage_plan` computes the expected order statistic of
each rung of the participant ladder once and derives every doubling point and round
budget from that list; :func:`target_accuracy` gives the target.  Budget logarithms
are natural logs; the wall-clock bounds live in :mod:`srpfl.engine`.
"""

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ConfigError, SrpflError
from .synthesis import TAG_CLIENT_RATES, TAG_DYNAMIC_TIMES, TAG_FIXED_TIMES, _is_natural, substream

MODE_ANALYTIC = "analytic"
MODE_THRESHOLD = "distance_threshold"
MODE_FIXED = "fixed"
PLAN_MODES = (MODE_ANALYTIC, MODE_THRESHOLD, MODE_FIXED)

SPEED_FIXED = "fixed"
SPEED_DYNAMIC = "dynamic"
SPEED_KINDS = (SPEED_FIXED, SPEED_DYNAMIC)  # each names the SpeedModel constructor of its law

# range of the contraction factor: A_MAX is the largest the schedule
# formulas accept, A_MIN the floor for a measured factor
A_MIN = 1e-6
A_MAX = 0.25


@dataclass(frozen=True)
class SpeedModel:
    """Straggler timing law over ``n_slots`` client slots, plus the
    per-round communication cost.

    :meth:`fixed` draws one Exp(lam) time per slot once and holds it,
    read-only, in ``times`` and its stable fastest-first ``order``, reused
    every round.  :meth:`dynamic` draws slot rates once from
    ``lam * Uniform[1/n_slots, 1]`` into ``per_client_rates`` and fresh
    Exp(rate_i) times each round.  ``lam`` is the rate the closed-form
    schedule formulas use; for the dynamic model it is the mean slot rate.
    """

    lam: float
    comm_cost: float
    seed: int
    times: np.ndarray | None = None
    order: np.ndarray | None = None
    per_client_rates: np.ndarray | None = None

    @staticmethod
    def check(n_slots, lam=1.0, comm_cost=0.0):
        """Raise :class:`ConfigError` unless n_slots >= 1, lam > 0 and comm_cost >= 0, with n_slots
        an integer (numpy's included)."""
        if not (isinstance(n_slots, Integral) and n_slots >= 1):
            raise ConfigError(f"need at least one client slot, got {n_slots}")
        if not lam > 0:
            raise ConfigError(f"lam must be positive, got {lam}")
        if not comm_cost >= 0:
            raise ConfigError(f"comm_cost must be >= 0, got {comm_cost}")

    @staticmethod
    def fixed(n_slots, lam=1.0, comm_cost=0.0, seed=0):
        SpeedModel.check(n_slots, lam, comm_cost)
        times = substream(seed, TAG_FIXED_TIMES).exponential(1.0 / lam, size=n_slots)
        order = _fastest_first(times)
        times.setflags(write=False)  # every round shares these arrays
        order.setflags(write=False)
        return SpeedModel(lam=float(lam), comm_cost=float(comm_cost), seed=seed, times=times, order=order)

    @staticmethod
    def dynamic(n_slots, lam=1.0, comm_cost=0.0, seed=0):
        SpeedModel.check(n_slots, lam, comm_cost)
        rates = lam * substream(seed, TAG_CLIENT_RATES).uniform(1.0 / n_slots, 1.0, size=n_slots)
        return SpeedModel(lam=float(np.mean(rates)), comm_cost=float(comm_cost), seed=seed, per_client_rates=rates)


def draw_round_times(model, round_index):
    """Per-slot computation times for one round.

    Fixed model: its read-only ``times``, the same every round.  Dynamic
    model: fresh Exp(rate_i) draws, deterministic in ``(seed, round_index)``.
    Both refuse a round index that is not an integer >= 0 (numpy's included)
    with :class:`ConfigError`, before any draw.
    """
    if not _is_natural(round_index):
        raise ConfigError(f"round index must be an integer >= 0, got {round_index}")
    if model.times is not None:
        return model.times
    rng = substream(model.seed, TAG_DYNAMIC_TIMES, round_index)
    return rng.exponential(1.0, size=model.per_client_rates.size) / model.per_client_rates


def _fastest_first(times):
    return np.argsort(times, kind="stable")  # ties by lowest index


def select_fastest(model, round_index, n):
    """``(slots, round_time)`` of the times :func:`draw_round_times` draws: the
    ``n`` fastest slots, fastest first, ties by lowest index (a prefix of a
    fixed model's ``order``), and the slowest one's time plus ``comm_cost``.
    An ``n`` that is not an integer in 1..slots is refused before the draw, and
    so is a round index that :func:`draw_round_times` refuses."""
    n_slots = (model.times if model.times is not None else model.per_client_rates).size
    if not (isinstance(n, Integral) and 1 <= n <= n_slots):
        raise SrpflError(f"cannot select {n} of {n_slots} clients")
    times = draw_round_times(model, round_index)
    slots = (model.order if model.order is not None else _fastest_first(times))[:n]
    return slots, float(times[slots[-1]]) + model.comm_cost


def expected_order_stat(n, j, lam):
    """Mean of the j-th smallest of n i.i.d. Exp(lam) variables.

    Equals ``(1/lam) * sum_{i=n-j+1}^{n} 1/i``; strictly increasing in j.
    Refuses a j or n that is not an integer (numpy's included).
    """
    if not (isinstance(j, Integral) and isinstance(n, Integral) and 1 <= j <= n):
        raise SrpflError(f"order statistic j={j} outside 1..{n}")
    SpeedModel.check(n, lam)
    return sum(1.0 / i for i in range(n - j + 1, n + 1)) / lam


def contraction_factor(eta, init_dist, s_min):
    """(1/2) eta E0 sigma_min^2 with E0 = 1 - init_dist^2, clamped into [A_MIN, A_MAX]."""
    return min(max(0.5 * eta * (1.0 - init_dist**2) * s_min**2, A_MIN), A_MAX)


def check_contraction_factor(a):
    """Raise :class:`ConfigError` unless 0 < a <= 1/4."""
    if not 0.0 < a <= A_MAX:
        raise ConfigError(f"contraction factor a must lie in (0, 1/4], got {a}")


def check_plan_mode(mode):
    """Raise :class:`ConfigError` unless ``mode`` is one of :data:`PLAN_MODES`."""
    if not mode in PLAN_MODES:
        raise ConfigError(f"plan_mode must be one of {PLAN_MODES}, got {mode!r}")


def check_fixed_rounds(fixed_rounds):
    """Raise :class:`ConfigError` unless fixed mode's round budget is an integer (numpy's included)
    of at least one; None is refused too."""
    if not (isinstance(fixed_rounds, Integral) and fixed_rounds >= 1):
        raise ConfigError(f"fixed_rounds must be >= 1, got {fixed_rounds}")


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
    bound's fixed point at n = N, not the realized plateau, which fewer clients can reach.
    N and n0 are checked as the ladder's are (:func:`participant_ladder`)."""
    check_c_hat(c_hat)
    check_contraction_factor(a)
    participant_ladder(n_total, n0)
    return c_hat * noise_floor(a, n_total / n0)


def participant_ladder(n_total, n0):
    """Doubling ladder n0, 2*n0, ... capped at n_total; both must be integers (numpy's included)."""
    if not (isinstance(n0, Integral) and isinstance(n_total, Integral) and 1 <= n0 <= n_total):
        raise ConfigError(f"need 1 <= n0 <= N, got n0={n0}, N={n_total}")
    ladder = [n0]
    while ladder[-1] < n_total:
        ladder.append(min(2 * ladder[-1], n_total))
    return ladder


def build_stage_plan(n_total, n0, a, model, c_hat, mode, fixed_rounds=None):
    """The doubling schedule for one run: one ``(n_r, tau_r, x_r)`` row per stage.

    A run follows the rows and nothing else.  ``n_r`` is the r-th rung of
    :func:`participant_ladder`, ``min(N, n0 * 2^r)``; ``tau_r`` the stage's
    round budget, where ``None`` leaves it open, to run until its
    threshold or the target accuracy; ``x_r`` the doubling point X_{r+1}
    that ends the stage once the measured distance falls to it, or ``None``
    where the stage has no distance exit.

    With t_r the expected n_r-th order statistic of the N exponential
    times, g_r = t_{r+1} - t_r and C the communication cost:

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

    - Fixed mode uses a constant budget, ``fixed_rounds``, checked only in that mode.

    Each rung's order statistic is computed once, and only where a formula
    reads it.  A gap that is not positive and finite (the times overflowed)
    raises :class:`SrpflError`.  The full-participation baseline is the plan
    with ``n0 = n_total``, a single stage.
    """
    check_contraction_factor(a)
    check_c_hat(c_hat)
    check_plan_mode(mode)
    ladder = participant_ladder(n_total, n0)
    last = len(ladder) - 1
    budgets = [None] * len(ladder)
    thresholds = [None] * len(ladder)
    if mode == MODE_FIXED:
        check_fixed_rounds(fixed_rounds)
        budgets = [int(fixed_rounds)] * len(ladder)
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
    return tuple(zip(ladder, budgets, thresholds))
