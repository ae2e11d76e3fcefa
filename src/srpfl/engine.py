"""Full-run orchestration and what is computed from runs.

A run initializes the shared representation (spectral warm start by
default), then iterates communication rounds grouped into doubling
stages: draw per-client times, keep the fastest n, update the model,
accumulate simulated wall-clock, and measure the true subspace distance
with oracle access to the hidden representation.  The full-participation
baseline is the same loop with a single stage of size N.

Also here: the closed-form wall-clock bounds, the contraction rate
fitted from a trace, and a deterministic multi-seed sweep helper.
"""

import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, NonConvergence, SrpflError
from .fedrep import fedrep_round, method_of_moments_init
from .linalg import principal_angle_dist, thin_qr
from .straggler import (
    A_MAX,
    A_MIN,
    MODE_ANALYTIC,
    PLAN_MODES,
    SPEED_FIXED,
    SPEED_KINDS,
    SpeedModel,
    build_stage_plan,
    check_c_hat,
    check_contraction_factor,
    contraction_factor,
    draw_round_times,
    fastest_first,
    participant_ladder,
    target_accuracy,
)
from .synthesis import TAG_ACTIVE_SET, TAG_RANDOM_INIT, TAG_SUBSET_PROBE, gen_ground_truth, substream

ALGO_SRPFL = "srpfl"
ALGO_FEDREP_FULL = "fedrep_full"
ALGORITHMS = (ALGO_SRPFL, ALGO_FEDREP_FULL)

INIT_MOMENTS = "moments"
INIT_RANDOM = "random"
INIT_MODES = (INIT_MOMENTS, INIT_RANDOM)

RESAMPLE_PER_STAGE = "per_stage"
RESAMPLE_PER_ROUND = "per_round"
RESAMPLE_SCOPES = (RESAMPLE_PER_STAGE, RESAMPLE_PER_ROUND)

PROBE_SUBSETS = 64  # sampled subsets per ladder size in the spectrum probe


@dataclass
class RunConfig:
    """Everything that determines a run; a run is a pure function of this.

    ``eta``, ``a`` and ``epsilon`` may be None, in which case they are
    derived from the ground truth with oracle access: eta as
    1/(8 sigma_max^2), a as (1/2) eta E0 sigma_min^2 clamped into
    [A_MIN, A_MAX] (:func:`contraction_factor`), epsilon from the
    target-accuracy formula.  The sigma extremes are measured over
    sampled participant subsets of every ladder size, see
    :func:`measure_singular_extremes`.  Every float must be finite.
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
        if self.n_clients == 0:
            self.n_clients = self.n_total

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        checks = [
            (1 <= self.k <= self.d, f"need 1 <= k <= d, got k={self.k}, d={self.d}"),
            (1 <= self.n0 <= self.n_total, f"need 1 <= n0 <= N, got n0={self.n0}, N={self.n_total}"),
            (self.n_total <= self.n_clients, f"need N <= M, got N={self.n_total}, M={self.n_clients}"),
            # with m = k each head fits its batch exactly and the representation never moves
            (self.m > self.k, f"need m > k, got m={self.m}, k={self.k}"),
            # fewer than k heads leave part of B* out of every label
            (self.n_clients >= self.k, f"need M >= k, got M={self.n_clients}, k={self.k}"),
            (self.sigma >= 0, f"sigma must be >= 0, got {self.sigma}"),
            (self.eta is None or self.eta > 0, f"eta must be positive, got {self.eta}"),
            (self.epsilon is None or self.epsilon >= 0, f"epsilon must be >= 0, got {self.epsilon}"),
            (self.algorithm in ALGORITHMS, f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"),
            (self.plan_mode in PLAN_MODES, f"plan_mode must be one of {PLAN_MODES}, got {self.plan_mode!r}"),
            (self.fixed_rounds >= 1, f"fixed_rounds must be >= 1, got {self.fixed_rounds}"),
            (self.init_mode in INIT_MODES, f"init_mode must be one of {INIT_MODES}, got {self.init_mode!r}"),
            (self.speed_kind in SPEED_KINDS, f"speed_kind must be one of {SPEED_KINDS}, got {self.speed_kind!r}"),
            (self.lam > 0, f"lam must be positive, got {self.lam}"),
            (self.comm_cost >= 0, f"comm_cost must be >= 0, got {self.comm_cost}"),
            (self.resample_scope in RESAMPLE_SCOPES,
             f"resample_scope must be one of {RESAMPLE_SCOPES}, got {self.resample_scope!r}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (self.sweep_seeds >= 1, f"sweep_seeds must be >= 1, got {self.sweep_seeds}"),
            (self.max_rounds >= 1, f"max_rounds must be >= 1, got {self.max_rounds}"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        if self.a is not None:
            check_contraction_factor(self.a)
        check_c_hat(self.c_hat)

    def digest(self):
        canonical = "\n".join(f"{k}={v!r}" for k, v in sorted(vars(self).items()))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class RoundRecord:
    stage: int
    round_index: int
    n: int
    round_time: float
    cumulative_time: float
    dist: float


@dataclass
class RunTrace:
    """Per-round log of one run plus the derived run-level quantities."""

    records: list
    config_digest: str
    final_dist: float
    init_dist: float
    epsilon: float
    eta: float
    a: float
    lam: float              # the speed model's rate; the mean slot rate when dynamic
    sigma_min_star: float
    sigma_max_star: float
    reached_target: bool
    participants: list = field(default_factory=list)

    def total_time(self):
        return self.records[-1].cumulative_time if self.records else 0.0

    def dists(self):
        return np.array([r.dist for r in self.records])


def measure_singular_extremes(w_active, n0, seed):
    """Sampled extremes of the singular values of (1/sqrt(n)) W restricted to subsets.

    Scans every ladder size from n0 up to the full active set; the full
    set is evaluated exactly, smaller sizes over :data:`PROBE_SUBSETS`
    random subsets, stacked into one SVD call per size.  The subsets
    come from one draw: :data:`PROBE_SUBSETS` uniform permutations of the
    active clients (an argsort of uniform variates), and size n takes
    the first n entries of each, so each size's subsets are uniform
    n-subsets, nested across sizes.  The exact extremes range over all
    subsets, which is combinatorially out of reach; the sampled values
    are what the automatic step size and contraction factor use.
    """
    n_active = w_active.shape[0]
    order = substream(seed, TAG_SUBSET_PROBE).random((PROBE_SUBSETS, n_active)).argsort(axis=1)
    s_min, s_max = math.inf, 0.0
    for n in participant_ladder(n_active, n0):
        subsets = np.arange(n_active)[None] if n == n_active else order[:, :n]
        sv = np.linalg.svd(w_active[subsets] / math.sqrt(n), compute_uv=False)
        s_min = min(s_min, float(sv[:, -1].min()))
        s_max = max(s_max, float(sv[:, 0].max()))
    return s_min, s_max


def _sample_active(config, scope_index):
    """Ids of the N clients connected for one stage (or round)."""
    if config.n_clients == config.n_total:
        return np.arange(config.n_total)
    rng = substream(config.seed, TAG_ACTIVE_SET, scope_index)
    return rng.choice(config.n_clients, size=config.n_total, replace=False)


def run(config):
    """Execute one run and return its trace; pure function of the config.

    Stages follow :func:`build_stage_plan`; the full-participation
    baseline is the plan with n0 = N, a single stage.  Each round: draw
    slot times, keep the fastest n, run one communication round,
    accumulate wall-clock, measure the oracle distance.  Before each
    round one rule decides, in this order:

    1. the last round reached epsilon: the run ends;
    2. the stage is over, its distance at its exit threshold or its round
       budget spent: the run moves to the next stage, or ends after the
       plan's last one;
    3. ``max_rounds`` rounds have run: when the plan's last stage has no
       budget this raises :class:`NonConvergence` naming the stage of the
       round that was due, otherwise the run ends with the unreached trace;
    4. otherwise the round runs.

    With the ``per_stage`` resample scope a stage draws its active set
    when its first round runs.  A failed round or an overflowed clock
    raises an :class:`SrpflError` naming the stage and round; a failed
    warm start, one that says so.
    """
    config.validate()
    gt = gen_ground_truth(config.d, config.k, config.n_clients, config.sigma, config.seed)
    if config.speed_kind == SPEED_FIXED:
        speed = SpeedModel.fixed(config.n_total, config.lam, config.comm_cost, config.seed)
    else:
        speed = SpeedModel.dynamic(config.n_total, config.comm_cost, config.seed)

    active = _sample_active(config, 0)
    s_min, s_max = measure_singular_extremes(gt.w_star[active], config.n0, config.seed)
    eta = config.eta if config.eta is not None else 1.0 / (8.0 * s_max**2)

    if config.init_mode == INIT_MOMENTS:
        try:
            b0 = method_of_moments_init(gt, active, config.m, config.seed)
        except SrpflError as exc:
            raise type(exc)(f"warm start: {exc}") from exc
    else:
        b0, _ = thin_qr(substream(config.seed, TAG_RANDOM_INIT).standard_normal((gt.d, gt.k)))
    init_dist = principal_angle_dist(b0, gt.b_star)
    a = config.a if config.a is not None else contraction_factor(eta, 1.0 - init_dist**2, s_min)
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
        records=[], config_digest=config.digest(), final_dist=init_dist, init_dist=init_dist,
        epsilon=epsilon, eta=eta, a=a, lam=speed.lam, sigma_min_star=s_min, sigma_max_star=s_max,
        reached_target=False,
    )
    b, cumulative, stage, first = b0, 0.0, 0, 0  # first: the rounds run before this stage
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
        times = draw_round_times(speed, round_index)
        order = fastest_first(speed, times)
        ids = active[order[:n_r]]
        try:
            b = fedrep_round(b, gt, ids, config.m, eta, config.seed, round_index)
        except SrpflError as exc:
            raise type(exc)(f"stage {stage}, round {round_index}: {exc}") from exc
        elapsed = float(times[order[n_r - 1]]) + speed.comm_cost  # the slowest chosen
        cumulative += elapsed
        if not math.isfinite(cumulative):
            raise SrpflError(
                f"stage {stage}, round {round_index}: simulated time {cumulative!r} "
                f"is not finite (round time {elapsed!r})"
            )
        dist = principal_angle_dist(b, gt.b_star)
        trace.records.append(RoundRecord(
            stage=stage, round_index=round_index, n=int(n_r),
            round_time=elapsed, cumulative_time=cumulative, dist=dist,
        ))
        trace.participants.append(ids)
        trace.final_dist, trace.reached_target = dist, dist <= epsilon
    return trace


def analytic_speedup_bound(n_total, c_hat, a, comm_cost, lam):
    """Closed-form wall-clock bounds, in simulated time.

    Upper bound on the adaptive scheme's time, lower bound on the
    full-participation baseline's, both for client times of rate ``lam``
    and ``comm_cost`` per round, and their ratio bound

        (6(c+1) + 4 log(1/(c_hat-1))) / (log N + 2 log(1/(c_hat-1)))

    with natural logarithms and c = comm_cost * lam the communication
    cost in units of the mean client time 1/lam.
    """
    check_c_hat(c_hat)
    check_contraction_factor(a)
    if n_total < 2:
        raise ConfigError(f"bounds need N >= 2, got {n_total}")
    c = comm_cost * lam
    log_n = math.log(n_total)
    hardness = math.log(1.0 / (c_hat - 1.0))
    rate = math.log(1.0 / (1.0 - a))
    upper_srpfl = log_n * (6.0 * (c + 1.0) + 4.0 * hardness) / rate
    lower_fedrep = log_n * (log_n + 2.0 * hardness) / rate
    ratio_bound = (6.0 * (c + 1.0) + 4.0 * hardness) / (log_n + 2.0 * hardness)
    return upper_srpfl / lam, lower_fedrep / lam, ratio_bound


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
    """Worker cap for seed sweeps; the SRPFL_THREADS env var overrides."""
    env = os.environ.get("SRPFL_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"SRPFL_THREADS must be an integer, got {env!r}") from exc
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(_sweep_worker, jobs, chunksize=1))
    out = {}
    for alg_index, alg in enumerate(ALGORITHMS):
        start = alg_index * len(seeds)
        out[alg] = traces[start:start + len(seeds)]
    return out
