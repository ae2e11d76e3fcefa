"""Simulation laboratory for straggler-resilient personalized federated
learning with a shared linear representation.

Core layers: matrix kernels (:mod:`srpfl.linalg`), synthetic data
(:mod:`srpfl.synthesis`), the alternating update round
(:mod:`srpfl.fedrep`), timing models and the doubling schedule
(:mod:`srpfl.straggler`), run orchestration, bounds and sweeps
(:mod:`srpfl.engine`), and the command-line surface (:mod:`srpfl.cli`).
"""

from .engine import (
    ALGO_FEDREP_FULL,
    ALGO_SRPFL,
    RunConfig,
    RunTrace,
    analytic_speedup_bound,
    measure_contraction_rate,
    measure_singular_extremes,
    run,
    run_sweep,
)
from .fedrep import (
    fedrep_round,
    head_update,
    method_of_moments_init,
    reduced_rep_step,
    rep_gradient_step,
)
from .linalg import (
    is_orthonormal,
    principal_angle_dist,
    rank_k_eig,
    span_basis,
    thin_qr,
)
from .straggler import (
    SpeedModel,
    build_stage_plan,
    draw_round_times,
    expected_order_stat,
    noise_floor,
    participant_ladder,
    select_fastest,
    target_accuracy,
)
from .synthesis import Batch, GroundTruthModel, gen_ground_truth, sample_batch

__version__ = "0.1.0"

__all__ = [
    "ALGO_FEDREP_FULL",
    "ALGO_SRPFL",
    "Batch",
    "GroundTruthModel",
    "RunConfig",
    "RunTrace",
    "SpeedModel",
    "analytic_speedup_bound",
    "build_stage_plan",
    "draw_round_times",
    "expected_order_stat",
    "fedrep_round",
    "gen_ground_truth",
    "head_update",
    "is_orthonormal",
    "measure_contraction_rate",
    "measure_singular_extremes",
    "method_of_moments_init",
    "noise_floor",
    "participant_ladder",
    "principal_angle_dist",
    "rank_k_eig",
    "reduced_rep_step",
    "rep_gradient_step",
    "run",
    "run_sweep",
    "sample_batch",
    "select_fastest",
    "span_basis",
    "target_accuracy",
    "thin_qr",
]
