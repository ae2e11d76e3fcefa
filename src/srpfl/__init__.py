"""Simulation laboratory for straggler-resilient personalized federated
learning with a shared linear representation.

Core layers: matrix kernels (:mod:`srpfl.linalg`), synthetic data
(:mod:`srpfl.synthesis`), the alternating update round
(:mod:`srpfl.fedrep`), timing models and the doubling schedule
(:mod:`srpfl.straggler`), run orchestration, bounds and sweeps
(:mod:`srpfl.engine`), and the command-line surface (:mod:`srpfl.cli`).
"""

from types import ModuleType as _ModuleType

from .engine import (
    ALGO_FEDREP_FULL,
    ALGO_SRPFL,
    RunConfig,
    RunTrace,
    analytic_speedup_bound,
    measure_contraction_rate,
    run,
    run_sweep,
)
from .fedrep import (
    fedrep_round,
    head_update,
    method_of_moments_init,
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
from .synthesis import GroundTruthModel, gen_ground_truth, sample_batch

__version__ = "0.1.0"

# the names the imports above bind, without the submodules they load
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
