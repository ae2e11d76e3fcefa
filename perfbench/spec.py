"""Workloads and metric definitions of the srpfl benchmark.

This file is the single source of ``BENCHMARK.json``: run
``python3 perfbench/spec.py > BENCHMARK.json`` from the repository root
after changing anything here, and ``test_perfbench.py`` checks that the
committed file still matches.

Every workload turns a benchmark seed into the inputs of one pass: a
list of ``RunConfig`` objects for ``engine.run``, or the argument vector
of ``cli.main``.  The seeds of the simulated runs derive from the
benchmark seed alone, so the same seed always yields the same inputs.
"""

import dataclasses
import json
import sys

RUN_SECONDS = 22

# Criterion-5 configuration of the acceptance suite with the pilot-fitted
# contraction factor written in, so no pilot runs inside a pass.
CRITERION_5 = dict(
    d=20, k=2, n_total=256, n0=2, m=100, sigma=0.5, a=0.0775,
    comm_cost=1.0, lam=1.0, c_hat=1.2, init_mode="random", plan_mode="analytic",
)

DYNAMIC_WIDE = dict(
    d=40, k=4, n_clients=512, n_total=128, n0=4, m=30, sigma=0.1, a=0.05, epsilon=0.1,
    speed_kind="dynamic", resample_scope="per_round", init_mode="moments",
    plan_mode="distance_threshold",
)

COMPARE_CONFIG = "demos/reference.cfg"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str            # "runs": engine.run per config; "cli": one cli.main call
    n_seeds: int
    config: dict

    def seeds(self, bench_seed):
        """Seeds of the simulated runs; disjoint blocks for distinct bench seeds."""
        base = 1000 * bench_seed
        return [base + i for i in range(self.n_seeds)]

    def build(self, bench_seed, out_dir=".perfbench_out"):
        """Inputs of one pass: RunConfigs, or the cli.main argument vector."""
        if self.kind == "cli":
            return ["compare", "--config", COMPARE_CONFIG, "--override", f"sweep_seeds={self.n_seeds}",
                    "--seed", str(self.seeds(bench_seed)[0]), "--out", f"{out_dir}/compare"]
        from srpfl.engine import RunConfig

        return [RunConfig(**self.config, seed=s) for s in self.seeds(bench_seed)]


WORKLOADS = (
    Workload(
        "full_n256",
        "fedrep_full on the criterion-5 config: per-client sampling, head solve and rep step "
        "take over 90% of the time",
        "runs", 3, dict(CRITERION_5, algorithm="fedrep_full"),
    ),
    Workload(
        "ladder_n256",
        "srpfl on the criterion-5 config: participation stays near n0, so per-round and "
        "per-run costs (QR, distance, timing draws, spectrum probe) show",
        "runs", 40, dict(CRITERION_5, algorithm="srpfl"),
    ),
    Workload(
        "dynamic_wide",
        "m < d, fresh timing draws and active-set sampling every round, moments warm start, "
        "threshold plan, n=128 from round one",
        "runs", 6, dict(DYNAMIC_WIDE, algorithm="srpfl"),
    ),
    Workload(
        "compare_cli",
        "srpfl compare on the reference config, 20 seeds: the only path through the CLI "
        "parser and writer and run_sweep's process pool",
        "cli", 20, {"config_file": COMPARE_CONFIG, "sweep_seeds": 20},
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

# (name, unit, better, bound)
END_TO_END = (
    ("us_per_client_round", "us", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)


# per-function fields: calls and self seconds per traced pass, call-duration percentiles
TIMED = ("calls", "self_s", "us_p50", "us_p99")


def _layer(prefix, fields):
    units = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
             "us_p50": ("us", "lower"), "us_p99": ("us", "lower")}
    return [(f"{prefix}.{f}", *units[f]) for f in fields]

# (name, unit, better); one traced run reports every one of them
PER_LAYER = (
    *_layer("synthesis.sample_batch", TIMED),
    ("synthesis.normal_draws", "count", "lower"),
    *_layer("synthesis.substream", ("calls", "self_s")),
    *_layer("synthesis.gen_ground_truth", ("self_s",)),
    *_layer("fedrep.head_update", TIMED),
    *_layer("fedrep.rep_gradient_step", ("self_s", "us_p50", "us_p99")),
    *_layer("fedrep.server_aggregate", ("self_s",)),
    *_layer("fedrep.fedrep_round", ("calls", "self_s")),
    ("fedrep.client_rounds", "count", "lower"),
    *_layer("fedrep.method_of_moments_init", ("self_s",)),
    *_layer("linalg.thin_qr", TIMED),
    *_layer("linalg.principal_angle_dist", TIMED),
    *_layer("linalg.rank_k_eig", ("self_s",)),
    *_layer("straggler.draw_round_times", TIMED),
    *_layer("straggler.select_fastest", ("self_s",)),
    *_layer("straggler.build_stage_plan", ("self_s",)),
    *_layer("straggler.optimal_doubling_point", ("calls",)),
    ("straggler.draw_utilization", "ratio", "higher"),
    *_layer("engine.run", ("calls", "self_s")),
    ("engine.rounds", "count", "lower"),
    *_layer("engine.measure_singular_extremes", ("self_s",)),
    ("engine.setup_share", "ratio", "lower"),
    *_layer("engine.run_sweep", ("self_s",)),
    ("engine.run_sweep.parallel_efficiency", "ratio", "higher"),
    ("engine.sim_time_mean", "sim_time", "lower"),
    *_layer("cli.main", ("self_s",)),
    *_layer("config.load_config", ("self_s",)),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def benchmark_json():
    """The BENCHMARK.json document, as a dict."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    sys.stdout.write(json.dumps(benchmark_json(), indent=2) + "\n")
