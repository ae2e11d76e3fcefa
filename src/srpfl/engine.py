"""Full-run orchestration and what is computed from runs.

A run initializes the shared representation (spectral warm start by
default), then iterates communication rounds grouped into doubling
stages: keep the fastest n slots, update the model, accumulate the
round's simulated wall-clock, and measure the true subspace distance
with oracle access to the hidden representation.  The full-participation
baseline is the same loop with a single stage of size N.

Also here: the closed-form wall-clock bounds, the contraction rate
fitted from a trace, and a deterministic multi-seed sweep helper.
"""

import hashlib
import math
import os
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError, NonConvergence, SrpflError
from .fedrep import check_batch_size, check_step_size, fedrep_round, method_of_moments_init, random_init
from .linalg import span_basis
from .straggler import (
    A_MAX,
    A_MIN,
    MODE_ANALYTIC,
    SPEED_FIXED,
    SPEED_KINDS,
    SpeedModel,
    build_stage_plan,
    check_c_hat,
    check_contraction_factor,
    check_fixed_rounds,
    check_plan_mode,
    contraction_factor,
    participant_ladder,
    select_fastest,
    target_accuracy,
)
from .synthesis import (TAG_ACTIVE_SET, TAG_RANDOM_INIT, TAG_ROUND, TAG_WARM_START, GroundTruthModel,
                        gen_ground_truth, substream)

ALGO_SRPFL = "srpfl"
ALGO_FEDREP_FULL = "fedrep_full"
ALGORITHMS = (ALGO_SRPFL, ALGO_FEDREP_FULL)

INIT_MOMENTS = "moments"
INIT_RANDOM = "random"
INIT_MODES = (INIT_MOMENTS, INIT_RANDOM)

RESAMPLE_PER_STAGE = "per_stage"
RESAMPLE_PER_ROUND = "per_round"
RESAMPLE_SCOPES = (RESAMPLE_PER_STAGE, RESAMPLE_PER_ROUND)

# field type -> (the values it takes, the Python type it stores them as, what a refused value must be);
# numpy scalars are Integral and Real
_FIELD_KINDS = {int: (Integral, int, "an integer"), float: (Real, float, "a number"),
                float | None: (Real, float, "a number"), str: (str, str, "a string")}


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run: checked once, when built (also by ``replace``), and frozen.

    ``eta``, ``a`` and ``epsilon`` may be None, in which case they are
    derived from the ground truth with oracle access: eta as
    1/(8 sigma_max^2), a as (1/2) eta E0 sigma_min^2, E0 = 1 - init_dist^2,
    clamped into [A_MIN, A_MAX] (:func:`contraction_factor`), epsilon from
    the target-accuracy formula.  The sigma extremes are bounds that hold for every participant
    subset of every ladder size, see :func:`subset_spectrum_bounds`.  Each field holds the
    Python value of its type: a number of any numeric type (numpy scalars included) is stored as
    the ``int`` or ``float`` it equals, a ``str`` subclass as a ``str``.  Any other kind of value,
    a fraction in an int field or a float that is not finite is refused, naming the field.  A
    value a layer reads is refused by that layer's check (``m > k`` by the round's
    :func:`check_batch_size`, ``eta > 0`` by its :func:`check_step_size`), in the words a
    library call gives.
    """

    d: int
    k: int
    n_total: int            # N: clients sampled per stage
    n0: int
    m: int
    sigma: float
    n_clients: int = 0      # M: population size; 0 means "same as N"
    eta: float | None = None
    a: float | None = None
    epsilon: float | None = None
    c_hat: float = 1.2
    algorithm: str = ALGO_SRPFL
    plan_mode: str = MODE_ANALYTIC
    fixed_rounds: int = 50
    init_mode: str = INIT_MOMENTS
    speed_kind: str = SPEED_FIXED
    lam: float = 1.0
    comm_cost: float = 0.0
    resample_scope: str = RESAMPLE_PER_STAGE
    seed: int = 0
    sweep_seeds: int = 20
    max_rounds: int = 10_000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.type == float | None:
                continue
            takes, kind, noun = _FIELD_KINDS[f.type]
            if not isinstance(value, takes):
                raise ConfigError(f"{f.name} must be {noun}, got {value!r}")
            try:
                value = kind(value)
            except OverflowError:  # an integer beyond the float range
                value = math.inf if value > 0 else -math.inf
            if kind is float and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            object.__setattr__(self, f.name, value)
        self.validate()

    @property
    def population(self):  # M, with n_clients = 0 read as N
        return self.n_clients or self.n_total

    def validate(self):
        participant_ladder(self.n_total, self.n0)
        GroundTruthModel.check(self.d, self.k, self.population, self.sigma, self.seed)
        SpeedModel.check(self.n_total, self.lam, self.comm_cost)
        check_batch_size(self.m, self.k)
        check_plan_mode(self.plan_mode)
        check_fixed_rounds(self.fixed_rounds)  # in every mode, though only the fixed plan reads it
        checks = [
            (self.n_total <= self.population, f"need N <= M, got N={self.n_total}, M={self.population}"),
            # fewer than k heads leave part of B* out of every label
            (self.population >= self.k, f"need M >= k, got M={self.population}, k={self.k}"),
            (self.epsilon is None or self.epsilon >= 0, f"epsilon must be >= 0, got {self.epsilon}"),
            (self.algorithm in ALGORITHMS, f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"),
            (self.init_mode in INIT_MODES, f"init_mode must be one of {INIT_MODES}, got {self.init_mode!r}"),
            (self.speed_kind in SPEED_KINDS, f"speed_kind must be one of {SPEED_KINDS}, got {self.speed_kind!r}"),
            (self.resample_scope in RESAMPLE_SCOPES,
             f"resample_scope must be one of {RESAMPLE_SCOPES}, got {self.resample_scope!r}"),
            (self.sweep_seeds >= 1, f"sweep_seeds must be >= 1, got {self.sweep_seeds}"),
            (self.max_rounds >= 1, f"max_rounds must be >= 1, got {self.max_rounds}"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        if self.eta is not None:
            check_step_size(self.eta)
        if self.a is not None:
            check_contraction_factor(self.a)
        check_c_hat(self.c_hat)

    def digest(self):
        """12 hex digits of sha256 over the stored fields, with ``n_clients`` read as ``population``.
        Construction stores each value as the Python value of its field's type, so equal configs
        hash alike however their numbers were built (numpy scalars included)."""
        values = {f.name: getattr(self, f.name) for f in fields(self)} | {"n_clients": self.population}
        text = "\n".join(f"{name}={value!r}" for name, value in sorted(values.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class RoundRecord:
    stage: int
    round_index: int
    n: int
    round_time: float
    cumulative_time: float
    dist: float
    ids: np.ndarray | None = field(default=None, compare=False, repr=False)  # the round's participants


@dataclass
class RunTrace:
    """Per-round log of one run, what the run fixed before its first round, and the models it drew
    from its config.  The last row is the run's result: ``final_dist`` and ``reached_target`` read it."""

    records: list
    config_digest: str
    init_dist: float
    epsilon: float
    eta: float
    a: float
    ground_truth: GroundTruthModel  # B* and every client's head W*
    speed: SpeedModel               # selected and priced each round; its lam is the bounds' rate
    sigma_min_star: float
    sigma_max_star: float

    @property
    def final_dist(self):
        return self.records[-1].dist if self.records else self.init_dist

    @property
    def reached_target(self):
        return bool(self.records) and self.records[-1].dist <= self.epsilon

    def total_time(self):
        return self.records[-1].cumulative_time if self.records else 0.0

    def dists(self):
        return np.array([r.dist for r in self.records])


def head_spectrum(w, ids):
    """Singular values, largest first, of (1/sqrt(n)) W_S: the rows ``ids`` of ``w``,
    n of them.  There are always k of them: below n = k the last k - n are zero."""
    sv = np.linalg.svd(w[ids] / math.sqrt(len(ids)), compute_uv=False)
    return np.pad(sv, (0, w.shape[1] - len(sv)))


def subset_spectrum_bounds(w_active, n0):
    """Bounds ``(lower, upper)`` on the extreme squared singular values of (1/sqrt(n)) W_S over
    every subset S of n >= n0 of the N active heads, from their one :func:`head_spectrum`.

    Every head has squared norm k and W_S^T W_S <= W^T W, so with the active set's
    extremes s_min and s_max,

        sigma_max^2(S) <= min(k, (N/n0) s_max^2)
        sigma_min^2(S) >= max(0, s_min^2 - ((N - n0)/n0) (k - s_min^2)),

    the heads left out taking at most (N - n0) k off the Gram's least eigenvalue.  Both
    bounds are loosest at n = n0.  At n0 = N they are the active set's own extremes.
    """
    n_active, k = w_active.shape
    s_min2, s_max2 = head_spectrum(w_active, np.arange(n_active))[[-1, 0]] ** 2
    left_out = (n_active - n0) / n0
    return float(max(0.0, s_min2 - left_out * (k - s_min2))), float(min(k, (n_active / n0) * s_max2))


def _sample_active(config, scope_index):
    """Ids of the N clients connected for one stage (or round)."""
    if config.population == config.n_total:
        return np.arange(config.n_total)
    rng = substream(config.seed, TAG_ACTIVE_SET, scope_index)
    return rng.choice(config.population, size=config.n_total, replace=False)


def run(config):
    """Execute one run and return its trace; pure function of the config.

    Stages follow :func:`build_stage_plan`; the full-participation
    baseline is the plan with n0 = N, a single stage.  Each round:
    :func:`select_fastest` keeps the fastest n slots and prices the round,
    one communication round runs on the run's basis (:func:`span_basis` of the
    start and ``B*``) and returns the next basis with its oracle distance, and
    the wall-clock accumulates.  Before each round one rule decides, in this order:

    1. the last round reached epsilon: the run ends;
    2. the stage is over, its distance at its exit threshold or its round
       budget spent: the run moves to the next stage, or ends after the
       plan's last one;
    3. ``max_rounds`` rounds have run: when the plan's last stage has no
       budget this raises :class:`NonConvergence` naming the stage of the
       round that was due, otherwise the run ends with the unreached trace;
    4. otherwise the round runs.

    The start, each round and each active set draw from a stream keyed here
    (a round's on its 1-based index).  With the ``per_stage`` resample scope
    a stage draws its active set when its first round runs.  A failed round
    or an overflowed clock raises an :class:`SrpflError` naming the stage
    and round; a failed warm start, one that says so.
    """
    gt = gen_ground_truth(config.d, config.k, config.population, config.sigma, config.seed)
    speed = getattr(SpeedModel, config.speed_kind)(config.n_total, config.lam, config.comm_cost, config.seed)

    active = _sample_active(config, 0)
    lower, upper = subset_spectrum_bounds(gt.w_star[active], config.n0)
    s_min, s_max = math.sqrt(lower), math.sqrt(upper)
    eta = config.eta if config.eta is not None else 1.0 / (8.0 * upper)

    if config.init_mode == INIT_MOMENTS:
        try:
            b0 = method_of_moments_init(gt, active, config.m, substream(config.seed, TAG_WARM_START))
        except SrpflError as exc:
            raise type(exc)(f"warm start: {exc}") from exc
    else:
        b0 = random_init(gt, substream(config.seed, TAG_RANDOM_INIT))
    q, init_dist = span_basis(b0, gt.b_star)  # the first round's basis
    a = config.a if config.a is not None else contraction_factor(eta, init_dist, s_min)
    epsilon = (
        config.epsilon
        if config.epsilon is not None
        else target_accuracy(a, config.n_total, config.n0, config.c_hat)
    )

    n0 = config.n_total if config.algorithm == ALGO_FEDREP_FULL else config.n0
    plan = build_stage_plan(
        config.n_total, n0, a, speed, config.c_hat, config.plan_mode, config.fixed_rounds,
    )

    trace = RunTrace(
        records=[], config_digest=config.digest(), init_dist=init_dist, epsilon=epsilon,
        eta=eta, a=a, ground_truth=gt, speed=speed, sigma_min_star=s_min, sigma_max_star=s_max,
    )
    cumulative, stage, first = 0.0, 0, 0  # first: the rounds run before this stage
    while not trace.reached_target:
        done = len(trace.records)
        n_r, tau_r, threshold = plan[stage]
        if (threshold is not None and trace.final_dist <= threshold
                or tau_r is not None and done - first >= tau_r):
            stage, first = stage + 1, done
            if stage == len(plan):
                break
            continue
        if done == config.max_rounds:
            if plan[-1][1] is None:  # the plan ends only at epsilon
                raise NonConvergence(
                    f"round cap {config.max_rounds} hit at stage {stage} "
                    f"with dist {trace.final_dist:.6g} > epsilon {epsilon:.6g}"
                )
            break
        round_index = done + 1
        if config.resample_scope == RESAMPLE_PER_ROUND:
            active = _sample_active(config, round_index)
        elif stage > 0 and done == first:
            active = _sample_active(config, stage)
        slots, elapsed = select_fastest(speed, round_index, n_r)
        ids = active[slots]
        try:
            q, dist = fedrep_round(q, gt, ids, config.m, eta, substream(config.seed, TAG_ROUND, round_index))
        except SrpflError as exc:
            raise type(exc)(f"stage {stage}, round {round_index}: {exc}") from exc
        cumulative += elapsed
        if not math.isfinite(cumulative):
            raise SrpflError(
                f"stage {stage}, round {round_index}: simulated time {cumulative!r} "
                f"is not finite (round time {elapsed!r})"
            )
        trace.records.append(RoundRecord(
            stage=stage, round_index=round_index, n=int(n_r), round_time=elapsed,
            cumulative_time=cumulative, dist=dist, ids=ids,
        ))
    return trace


def check_bound_n_total(n_total):
    """Raise :class:`ConfigError` unless N >= 2: at N = 1, log N = 0 and the ratio bound is 0/0."""
    if not n_total >= 2:
        raise ConfigError(f"bounds need N >= 2, got {n_total}")


def analytic_speedup_bound(n_total, c_hat, a, comm_cost, lam):
    """Closed-form wall-clock bounds, in simulated time.

    Upper bound on the adaptive scheme's time, lower bound on the
    full-participation baseline's, both for client times of rate ``lam``
    and ``comm_cost`` per round, and their quotient, the ratio bound

        (6(c+1) + 4 log(1/(c_hat-1))) / (log N + 2 log(1/(c_hat-1)))

    with natural logarithms and c = comm_cost * lam the communication
    cost in units of the mean client time 1/lam.  N, lam and comm_cost are
    checked as a speed model's are (:meth:`SpeedModel.check`), and N >= 2.
    """
    check_c_hat(c_hat)
    check_contraction_factor(a)
    check_bound_n_total(n_total)
    SpeedModel.check(n_total, lam, comm_cost)
    c = comm_cost * lam
    log_n = math.log(n_total)
    hardness = math.log(1.0 / (c_hat - 1.0))
    rate = math.log(1.0 / (1.0 - a))
    upper_srpfl = log_n * (6.0 * (c + 1.0) + 4.0 * hardness) / rate
    lower_fedrep = log_n * (log_n + 2.0 * hardness) / rate
    return upper_srpfl / lam, lower_fedrep / lam, upper_srpfl / lower_fedrep


def measure_contraction_rate(trace):
    """Realized per-round contraction factor a fitted from a trace.

    Least-squares slope of log dist over the mid-trajectory window
    (below ``0.85 * init_dist``, above ``1.3 * epsilon``), so the slow
    early rounds and the noise plateau are excluded; with fewer than 4
    rounds in that window, over every round with a positive distance.
    Returns the ``a`` with per-round factor sqrt(1-a), clamped into
    [A_MIN, A_MAX].
    """
    d = trace.dists()
    t = np.arange(1, len(d) + 1, dtype=float)
    mask = (d <= 0.85 * trace.init_dist) & (d >= 1.3 * trace.epsilon) & (d > 0)
    if mask.sum() < 4:  # window too narrow; fall back to the whole descent
        mask = d > 0
    if mask.sum() < 2:
        raise ConfigError("trace too short to measure a contraction rate")
    slope = np.polyfit(t[mask], np.log(d[mask]), 1)[0]
    a = 1.0 - math.exp(2.0 * slope)
    return min(max(a, A_MIN), A_MAX)


def _sweep_worker(config):
    # Not ``pool.map(run, ...)``: the pool pickles the callable by name,
    # and a ``run`` replaced by a local closure (perfbench's timed passes
    # do this) cannot be pickled.  This worker pickles by name and looks
    # ``run`` up when it executes, so such a replacement still applies.
    return run(config)


def sweep_threads():
    """Worker cap for seed sweeps: the CPUs this process may run on.

    The SRPFL_THREADS env var overrides; it must be an integer >= 1.
    """
    env = os.environ.get("SRPFL_THREADS", "").strip()
    if env:
        try:
            threads = int(env)
        except ValueError as exc:
            raise ConfigError(f"SRPFL_THREADS must be an integer, got {env!r}") from exc
        if threads < 1:
            raise ConfigError(f"SRPFL_THREADS must be >= 1, got {env!r}")
        return threads
    if hasattr(os, "sched_getaffinity"):  # counts a taskset or cpuset, unlike cpu_count
        return len(os.sched_getaffinity(0))
    return max(1, os.cpu_count() or 1)


def run_sweep(config, seeds):
    """Run every seed under both :data:`ALGORITHMS`; deterministic in the inputs.

    Results are returned keyed by algorithm, in seed order, regardless
    of how many worker processes execute them.
    """
    jobs = [replace(config, seed=s, algorithm=alg) for alg in ALGORITHMS for s in seeds]
    workers = min(sweep_threads(), len(jobs))
    if workers <= 1:
        traces = [run(job) for job in jobs]
    else:
        # only a pooled sweep (``srpfl compare``) needs the process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(_sweep_worker, jobs, chunksize=1))
    out = {}
    for alg_index, alg in enumerate(ALGORITHMS):
        start = alg_index * len(seeds)
        out[alg] = traces[start:start + len(seeds)]
    return out
