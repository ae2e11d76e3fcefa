"""Command-line surface: run, compare, verify.

Exit codes are a stable contract: 0 success, 1 configuration or usage error
or any other ``SrpflError``, 2 non-convergence, 3 verification failure.
Trace CSVs use the frozen schema ``stage,round,n,round_time,cumulative_time,dist``
with 12 significant digits and LF line endings so byte-level diffing
detects any nondeterminism.
"""

import argparse
import sys
from pathlib import Path

from . import engine
from .config import load_config
from .errors import ConfigError, NonConvergence, SrpflError

CSV_HEADER = "stage,round,n,round_time,cumulative_time,dist"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGENCE = 2
EXIT_VERIFY = 3


def _fmt(x):
    return f"{float(x):.12g}"


def trace_to_csv(trace):
    lines = [CSV_HEADER]
    for r in trace.records:
        lines.append(
            f"{r.stage},{r.round_index},{r.n},{_fmt(r.round_time)},"
            f"{_fmt(r.cumulative_time)},{_fmt(r.dist)}"
        )
    return "\n".join(lines) + "\n"


def _write(path, text):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def summary_block(trace):
    lines = [
        f"rounds          = {len(trace.records)}",
        f"total_time      = {_fmt(trace.total_time())}",
        f"init_dist       = {_fmt(trace.init_dist)}",
        f"final_dist      = {_fmt(trace.final_dist)}",
        f"epsilon         = {_fmt(trace.epsilon)}",
        f"eta             = {_fmt(trace.eta)}",
        f"a               = {_fmt(trace.a)}",
        f"sigma_min_star  = {_fmt(trace.sigma_min_star)}",
        f"sigma_max_star  = {_fmt(trace.sigma_max_star)}",
        f"reached_target  = {'yes' if trace.reached_target else 'no'}",
        f"config_digest   = {trace.config_digest}",
    ]
    return "\n".join(lines) + "\n"


def cmd_run(config, out):
    trace = engine.run(config)
    _write(out / "trace.csv", trace_to_csv(trace))
    _write(out / "summary.txt", summary_block(trace))
    sys.stdout.write(summary_block(trace))
    return EXIT_OK


def cmd_compare(config, out):
    import statistics  # only compare's summary needs it

    engine.check_bound_n_total(config.n_total)  # before any seed runs
    seeds = [config.seed + i for i in range(config.sweep_seeds)]
    results = engine.run_sweep(config, seeds)
    rows = ["seed,algorithm,rounds,completion_time,final_dist,epsilon,a"]
    t_srpfl, t_base = [], []
    for i, seed in enumerate(seeds):
        for name, label, times in (
            (engine.ALGO_SRPFL, "srpfl", t_srpfl), (engine.ALGO_FEDREP_FULL, "baseline", t_base),
        ):
            trace = results[name][i]
            if not trace.reached_target:  # a fixed plan ends unreached at its last round
                raise NonConvergence(
                    f"{label} trace never reached epsilon={trace.epsilon:.6g} "
                    f"(final dist {trace.final_dist:.6g})"
                )
            times.append(trace.total_time())
            rows.append(
                f"{seed},{name},{len(trace.records)},{_fmt(times[-1])},"
                f"{_fmt(trace.final_dist)},{_fmt(trace.epsilon)},{_fmt(trace.a)}"
            )
    ratios = [t_s / t_b if t_b > 0 else 1.0 for t_s, t_b in zip(t_srpfl, t_base)]
    # the bound takes the runs' speed-model rate: for a dynamic model, lam times its mean Uniform[1/N, 1] draw
    mean_a = statistics.fmean(tr.a for tr in results[engine.ALGO_SRPFL])
    lam = statistics.fmean(tr.speed.lam for tr in results[engine.ALGO_SRPFL])
    upper, lower, ratio_bound = engine.analytic_speedup_bound(
        config.n_total, config.c_hat, mean_a, config.comm_cost, lam,
    )
    mean_s, mean_b = statistics.fmean(t_srpfl), statistics.fmean(t_base)
    block = [
        f"seeds                 = {len(seeds)}",
        f"mean_time_srpfl       = {_fmt(mean_s)}",
        f"mean_time_fedrep_full = {_fmt(mean_b)}",
        f"mean_ratio            = {_fmt(statistics.fmean(ratios))}",
        f"ratio_of_means        = {_fmt(mean_s / mean_b)}",
        f"mean_a                = {_fmt(mean_a)}",
        f"mean_lam              = {_fmt(lam)}",
        f"analytic_upper_srpfl  = {_fmt(upper)}",
        f"analytic_lower_fedrep = {_fmt(lower)}",
        f"analytic_ratio_bound  = {_fmt(ratio_bound)}",
    ]
    _write(out / "compare.csv", "\n".join(rows) + "\n")
    _write(out / "compare_summary.txt", "\n".join(block) + "\n")
    sys.stdout.write("\n".join(block) + "\n")
    return EXIT_OK


def cmd_verify(config, out):
    from . import checks  # only verify runs the self-checks

    named = [
        ("order_statistics_monte_carlo", checks.order_statistics),
        ("kernel_invariants", checks.kernel_invariants),
        ("contraction_inequality", lambda: checks.contraction(config)),
    ]
    failed = None
    for name, check in named:
        ok, detail = check()
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
        if not ok and failed is None:
            failed = name
    if failed is not None:
        sys.stderr.write(f"verification failed: {failed}\n")
        return EXIT_VERIFY
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="srpfl",
        description="Simulation laboratory for straggler-resilient shared-representation learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("compare", cmd_compare), ("verify", cmd_verify)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--override", action="append", default=[], metavar="KEY=VALUE",
            help="override a config field; repeatable",
        )
        p.set_defaults(handler=fn)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        config = load_config(args.config, args.override, args.seed)
        return args.handler(config, Path(args.out))
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except NonConvergence as exc:
        sys.stderr.write(f"non-convergence: {exc}\n")
        return EXIT_NONCONVERGENCE
    except SrpflError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


def console_main():
    raise SystemExit(main())
