"""Client timing models, fastest-n selection, and the doubling schedule.

Round times come from exponential laws: either one fixed draw per client
reused every round, or fresh per-round draws with per-client rates.  The
schedule formulas (expected order statistics, optimal doubling points,
per-stage round budgets, target accuracy) are exact closed forms for the
fixed exponential model.  Logarithms in the budget and bound formulas
are natural logs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CHatOutOfRange,
    ConfigError,
    EmptyParticipants,
    IndexOutOfRange,
    NTooLarge,
    ZeroGap,
)
from .synthesis import substream

_TAG_FIXED_TIMES = 0x11
_TAG_DYNAMIC_TIMES = 0x12
_TAG_CLIENT_RATES = 0x13

MODE_ANALYTIC = "analytic"
MODE_THRESHOLD = "distance_threshold"
MODE_FIXED = "fixed"
PLAN_MODES = (MODE_ANALYTIC, MODE_THRESHOLD, MODE_FIXED)

# range of the contraction factor: A_MAX is the largest the schedule
# formulas accept, A_MIN the floor for a measured factor
A_MIN = 1e-6
A_MAX = 0.25


@dataclass(frozen=True)
class SpeedModel:
    """Straggler timing law plus the per-round communication cost.

    ``kind`` is ``"fixed"`` (one Exp(lam) draw per client slot, reused
    every round) or ``"dynamic"`` (fresh Exp(rate_i) draws each round,
    with slot rates drawn once from Uniform[1/n_slots, 1]).  ``lam`` is
    the rate the closed-form schedule formulas use; for the dynamic
    model it is the mean slot rate.
    """

    kind: str
    lam: float
    comm_cost: float
    seed: int
    per_client_rates: np.ndarray | None = None

    @staticmethod
    def fixed(lam=1.0, comm_cost=0.0, seed=0):
        if lam <= 0:
            raise ConfigError(f"exponential rate must be positive, got {lam}")
        if comm_cost < 0:
            raise ConfigError(f"communication cost must be >= 0, got {comm_cost}")
        return SpeedModel(kind="fixed", lam=float(lam), comm_cost=float(comm_cost), seed=seed)

    @staticmethod
    def dynamic(n_slots, comm_cost=0.0, seed=0):
        if n_slots < 1:
            raise ConfigError(f"need at least one client slot, got {n_slots}")
        if comm_cost < 0:
            raise ConfigError(f"communication cost must be >= 0, got {comm_cost}")
        rates = substream(seed, _TAG_CLIENT_RATES).uniform(1.0 / n_slots, 1.0, size=n_slots)
        return SpeedModel(
            kind="dynamic",
            lam=float(np.mean(rates)),
            comm_cost=float(comm_cost),
            seed=seed,
            per_client_rates=rates,
        )


@dataclass(frozen=True)
class StagePlan:
    """Doubling schedule: per stage, the participant count, round budget
    and exit threshold.

    ``stages[r] = (n_r, tau_r)`` with ``n_r = min(N, n0 * 2^r)``; a
    ``None`` budget means the stage has no round budget
    (distance-threshold mode).  ``thresholds[r]`` is the doubling point
    X_{r+1} that ends stage r once the measured distance falls to it, or
    ``None`` where the stage has no distance exit (every stage outside
    distance-threshold mode, and the last stage in it).  Outside fixed
    mode the run ignores the last stage's budget and pursues the target
    accuracy there instead.
    """

    stages: tuple
    mode: str
    thresholds: tuple


def draw_round_times(model, round_index, n):
    """Per-slot computation times for one round.

    Fixed model: the same Exp(lam) vector every round (drawn once from
    the model seed).  Dynamic model: fresh Exp(rate_i) draws,
    deterministic in ``(seed, round_index)``.
    """
    if n < 1:
        raise EmptyParticipants("need at least one timed client")
    if model.kind == "fixed":
        rng = substream(model.seed, _TAG_FIXED_TIMES)
        return rng.exponential(1.0 / model.lam, size=n)
    rates = model.per_client_rates
    if rates is None or len(rates) < n:
        raise ConfigError(f"dynamic model has rates for {0 if rates is None else len(rates)} slots, need {n}")
    rng = substream(model.seed, _TAG_DYNAMIC_TIMES, round_index)
    return rng.exponential(1.0, size=n) / rates[:n]


def select_fastest(times, n):
    """Indices of the ``n`` smallest times, fastest first, ties by lowest index."""
    times = np.asarray(times, dtype=float)
    if not 1 <= n <= times.size:
        raise NTooLarge(f"cannot select {n} of {times.size} clients")
    return np.argsort(times, kind="stable")[:n]


def round_time(times, comm_cost):
    """Wall-clock cost of one round: slowest participant plus communication."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise EmptyParticipants("round_time needs at least one participant")
    return float(np.max(times)) + float(comm_cost)


def expected_order_stat(n, j, lam):
    """Mean of the j-th smallest of n i.i.d. Exp(lam) variables.

    Equals ``(1/lam) * sum_{i=n-j+1}^{n} 1/i``; strictly increasing in j.
    """
    if not 1 <= j <= n:
        raise IndexOutOfRange(f"order statistic j={j} outside 1..{n}")
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
    """Raise :class:`CHatOutOfRange` unless 1 < c_hat < sqrt(2)."""
    if not 1.0 < c_hat < math.sqrt(2.0):
        raise CHatOutOfRange(f"c_hat must lie strictly between 1 and sqrt(2), got {c_hat}")


def _gap(t_hi, t_lo):
    gap = t_hi - t_lo
    if not math.isfinite(gap) or gap <= 0:
        raise ZeroGap(f"order-statistic gap {gap!r} is not positive")
    return gap


def optimal_doubling_point(r, a, n0, model, n_total):
    """Distance threshold X_r below which stage r (n0 * 2^r participants,
    capped at N) pays off.

    ``X_0`` is +inf by convention; for r >= 1,

        X_r = a / (sqrt(2^(r-1) (1-a)) (1 - sqrt(1-a)))
              * (1 + (E[T_lo] + C) (1 - 1/sqrt(2)) / (E[T_hi] - E[T_lo]))

    with lo = n0 2^(r-1), hi = min(N, n0 2^r), E[T_j] the expected j-th
    order statistic of the n_total exponential times and C the
    communication cost.  Raises :class:`IndexOutOfRange` when stage r
    does not exist, i.e. n0 2^(r-1) >= N.
    """
    check_contraction_factor(a)
    if r < 0:
        raise IndexOutOfRange(f"stage index must be >= 0, got {r}")
    if r == 0:
        return math.inf
    lo = n0 * 2 ** (r - 1)
    if lo >= n_total:
        raise IndexOutOfRange(f"stage {r} does not exist: n0 * 2^{r - 1} = {lo} >= N = {n_total}")
    hi = min(n0 * 2**r, n_total)
    t_lo = expected_order_stat(n_total, lo, model.lam)
    t_hi = expected_order_stat(n_total, hi, model.lam)
    base = a / (math.sqrt(2 ** (r - 1) * (1.0 - a)) * (1.0 - math.sqrt(1.0 - a)))
    boost = (t_lo + model.comm_cost) * (1.0 - 1.0 / math.sqrt(2.0)) / _gap(t_hi, t_lo)
    return base * (1.0 + boost)


def _budget_from_gaps(gap_prev, gap_next, a):
    t = 2.0 * math.log(math.sqrt(2.0) * gap_next / gap_prev) / math.log(1.0 / (1.0 - a))
    return max(1, math.ceil(t))


def rounds_per_stage(r, a, n0, model, n_total):
    """Round budget for stage r >= 1 of the doubling schedule.

    With ladder sizes n_i = min(N, n0 2^i), the smallest integer at least

        2 log( sqrt(2) (E[T_{n_(r+1)}] - E[T_{n_r}])
               / (E[T_{n_r}] - E[T_{n_(r-1)}]) ) / log(1/(1-a)),

    floored at one round.  Raises :class:`IndexOutOfRange` when stage r
    has no successor, i.e. n0 2^r >= N.
    """
    check_contraction_factor(a)
    if r < 1:
        raise IndexOutOfRange(f"stage budgets are defined for r >= 1, got {r}")
    if n0 * 2**r >= n_total:
        raise IndexOutOfRange(f"stage {r} has no successor: n0 * 2^{r} = {n0 * 2**r} >= N = {n_total}")
    t = [expected_order_stat(n_total, min(n_total, n0 * 2**i), model.lam) for i in (r - 1, r, r + 1)]
    return _budget_from_gaps(_gap(t[1], t[0]), _gap(t[2], t[1]), a)


def final_stage_rounds(a, c_hat):
    """Rounds needed at full participation to finish: 2 log(1/(c_hat-1)) / log(1/(1-a))."""
    check_c_hat(c_hat)
    check_contraction_factor(a)
    t = 2.0 * math.log(1.0 / (c_hat - 1.0)) / math.log(1.0 / (1.0 - a))
    return max(1, math.ceil(t))


def target_accuracy(a, n_total, n0, c_hat):
    """Target distance eps = c_hat * a / (sqrt((N/n0)(1-a)) (1 - sqrt(1-a))).

    This is c_hat times the full-participation noise floor of the
    contraction recursion, so reaching it requires the final doubling
    stage; doubling N/n0 scales eps by 1/sqrt(2).
    """
    check_c_hat(c_hat)
    check_contraction_factor(a)
    ratio = n_total / n0
    return c_hat * a / (math.sqrt(ratio * (1.0 - a)) * (1.0 - math.sqrt(1.0 - a)))


def participant_ladder(n_total, n0):
    """Doubling ladder n0, 2*n0, ... capped at n_total."""
    if not 1 <= n0 <= n_total:
        raise ConfigError(f"need 1 <= n0 <= N, got n0={n0}, N={n_total}")
    ladder = []
    n = n0
    while True:
        ladder.append(min(n, n_total))
        if ladder[-1] >= n_total:
            return ladder
        n *= 2


def build_stage_plan(n_total, n0, a, model, c_hat, mode, fixed_rounds=None):
    """Assemble the doubling schedule for one run.

    Analytic mode fills middle-stage budgets from :func:`rounds_per_stage`,
    the final stage from :func:`final_stage_rounds`, and the first stage
    copies the second (the analytic formula needs a predecessor stage the
    first one lacks; the first gap is also the cheapest).  Fixed mode
    uses a constant budget.  Distance-threshold mode leaves budgets
    open-ended; every stage but the last ends once the measured distance
    falls to the next doubling point, :func:`optimal_doubling_point`.
    The full-participation baseline is the plan with ``n0 = n_total``, a
    single stage.
    """
    ladder = participant_ladder(n_total, n0)
    last = len(ladder) - 1
    budgets = [None] * len(ladder)
    thresholds = [None] * len(ladder)
    if mode == MODE_THRESHOLD:
        for r in range(last):
            thresholds[r] = optimal_doubling_point(r + 1, a, n0, model, n_total)
    elif mode == MODE_FIXED:
        if fixed_rounds is None or fixed_rounds < 1:
            raise ConfigError(f"fixed plan mode needs a positive round budget, got {fixed_rounds}")
        budgets = [int(fixed_rounds)] * len(ladder)
    elif mode == MODE_ANALYTIC:
        budgets[last] = final_stage_rounds(a, c_hat)
        for r in range(1, last):
            budgets[r] = rounds_per_stage(r, a, n0, model, n_total)
        if last >= 1:
            budgets[0] = budgets[1]
    else:
        raise ConfigError(f"unknown plan mode {mode!r}")
    return StagePlan(stages=tuple(zip(ladder, budgets)), mode=mode, thresholds=tuple(thresholds))
