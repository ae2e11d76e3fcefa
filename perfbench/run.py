"""Time-to-target benchmark of srpfl.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``.  A
pass runs every seed of the workload to its target (or one ``srpfl
compare`` call); passes repeat until ``--seconds`` have gone by.  With
``--trace 0`` only the public entry points ``engine.run`` and
``cli.main`` are timed and the end-to-end metrics are reported.  With
``--trace 1`` untraced and traced passes alternate, and the traced ones
give the per-layer metrics (see ``tracing.py``).

The host this was built on changes speed by up to ~40% over minutes,
because other tenants share its cores, and CPU time follows wall time.
So a fixed numpy kernel (``probe_kernel``) is timed between rounds,
outside the timed stretches, and every pass time is scaled to the
speed at which that kernel takes ``PROBE_REF_S``; pool workers probe too,
so a sweep is scaled by the speed the host gives all its cores.  Set-up
time is scaled instead by a fresh interpreter that imports numpy alone
(see ``measure_setup``).  Unscaled times are printed beside the scaled
ones.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result (machine block, workload config and seeds, every pass,
fingerprints, all traced layers) goes to ``.perfbench_out/``, and traced
runs also write their spans there as JSON lines.
"""

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spec
import tracing

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = Path(".perfbench_out")
SETUP_REPEATS = 9
SETUP_CODE = (
    "import sys; sys.path[:0] = ['src', 'perfbench']; import spec, srpfl, srpfl.cli; "
    "spec.BY_NAME[sys.argv[1]].build(int(sys.argv[2]))"
)
# a fresh interpreter that imports numpy alone: the part of set-up no change
# to srpfl can move, timed around every set-up to track the host's speed
BASELINE_CODE = "import numpy"
# BASELINE_CODE seconds on the reference host
BASELINE_REF_S = 0.18
# a short run that loads every lazily initialised path before timing starts
WARM_UP = dict(d=20, k=2, n_total=16, n0=2, m=100, sigma=0.5, a=0.0775, init_mode="random")
# probe_kernel seconds on the reference host (2-core Xeon VM, numpy 2.4, one BLAS thread)
PROBE_REF_S = 0.0225
PROBE_REPS = 120
PROBE_EVERY_S = 0.25


@dataclasses.dataclass
class Pass:
    wall: float
    scaled: float        # wall at the reference host speed
    probe: float         # median probe_kernel seconds during the pass
    traced: bool
    runs: int
    failed: int
    problems: list
    fingerprint: str
    traces: list


def nproc():
    return len(os.sched_getaffinity(0))


def machine_block():
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):  # show_config(mode=...) needs numpy >= 2
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "srpfl_threads": os.environ.get("SRPFL_THREADS"),
        "git_commit": git_commit(),
        "loadavg": os.getloadavg(),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = Path(".git") / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def fresh_interpreter(*args):
    """Wall seconds of ``python -c *args`` in a new process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", *args], check=True)
    return time.perf_counter() - start


def measure_setup(workload, seed):
    """(seconds, seconds at the reference host speed) a fresh interpreter takes
    to import srpfl and build the inputs; medians over SETUP_REPEATS set-ups.

    Start-up and imports follow the host's file and memory speed, which
    probe_kernel does not track, so each set-up is scaled by the mean of the
    BASELINE_CODE interpreters timed just before and just after it.
    """
    times, ratios = [], []
    before = fresh_interpreter(BASELINE_CODE)
    for _ in range(SETUP_REPEATS):
        seconds = fresh_interpreter(SETUP_CODE, workload.name, str(seed))
        after = fresh_interpreter(BASELINE_CODE)
        times.append(seconds)
        ratios.append(seconds * 2 / (before + after))
        before = after
    return statistics.median(times), BASELINE_REF_S * statistics.median(ratios)


def probe_kernel(reps=PROBE_REPS):
    """Seconds for a fixed mix of the small numpy operations srpfl's rounds are made of.

    It uses numpy alone, so no change to srpfl moves it; only the host's
    speed does.
    """
    import numpy as np

    b = np.linalg.qr(np.random.default_rng(0).standard_normal((20, 2)))[0]
    start = time.perf_counter()
    for i in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(i,)))
        x = rng.standard_normal((100, 20))
        y = x @ b[:, 0] + 0.5 * rng.standard_normal(100)
        xb = x @ b
        gram = xb.T @ xb / 100
        np.linalg.svd(gram, compute_uv=False)
        w = np.linalg.solve(gram, xb.T @ y / 100)
        np.linalg.qr(b - 0.01 * (x.T @ np.outer(x @ (b @ w) - y, w)))
    return time.perf_counter() - start


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@contextlib.contextmanager
def patched(module, name, replacement):
    """Replace ``module.name`` by ``replacement(original)`` for the block."""
    original = getattr(module, name)
    setattr(module, name, functools.wraps(original)(replacement(original)))
    try:
        yield
    finally:
        setattr(module, name, original)


_STRETCHES = "_perfbench_stretches"  # trace attribute carrying a worker's stretches


class ProbedClock:
    """Times work in stretches of about PROBE_EVERY_S with a host probe between
    stretches; the probes themselves fall outside the timed stretches.

    A forked pool worker inherits the clock and starts stretches of its own
    at its first tick, so the probes there see the host while every core
    is busy with the sweep.
    """

    def __init__(self):
        self.owner = os.getpid()

    def start(self):
        self.pid = os.getpid()
        self.segments = []  # (seconds, probe before, probe after)
        self._probe = probe_kernel()
        self._start = time.perf_counter()

    def tick(self):
        if os.getpid() != self.pid:
            self.start()
        elif time.perf_counter() - self._start >= PROBE_EVERY_S:
            self.stop()

    def stop(self):
        end = time.perf_counter()
        after = probe_kernel()
        self.segments.append((end - self._start, self._probe, after))
        self._probe = after
        self._start = time.perf_counter()

    def ticking(self, fedrep_round):
        """``fedrep_round`` with a tick first; engine.run calls it once per round."""
        def fedrep_round_after_tick(*args, **kwargs):
            self.tick()
            return fedrep_round(*args, **kwargs)
        return fedrep_round_after_tick

    def shipping(self, run):
        """``run`` that, in a pool worker, hands the worker's stretches back on the trace."""
        def run_and_ship(*args, **kwargs):
            trace = run(*args, **kwargs)
            if os.getpid() != self.owner:
                self.stop()
                setattr(trace, _STRETCHES, self.segments)
                self.segments = []
            return trace
        return run_and_ship


def scaled(segments):
    """Seconds of the stretches at the reference host speed: each stretch
    scaled by the mean of the probes taken just before and just after it."""
    return sum(wall * 2 * PROBE_REF_S / (before + after) for wall, before, after in segments)


def pass_seconds(segments, worker_stretches, workers):
    """(seconds, seconds at the reference host speed) of one pass.

    Without pool workers the stretches cover the pass.  With them, the
    parent's one stretch is the sweep's wall time: the workers' own probes
    are taken out of it, and it is scaled by the workers' own stretches.
    """
    wall = sum(seg[0] for seg in segments)
    jobs = [seg for stretches in worker_stretches for seg in stretches]
    if not jobs:
        return wall, scaled(segments)
    busy = wall - sum(after for _, _, after in jobs) / workers
    return busy, busy * scaled(jobs) / sum(seg[0] for seg in jobs)


class Bench:
    def __init__(self, workload, seed):
        from srpfl import cli, engine

        self.workload, self.seed = workload, seed
        self.cli, self.engine = cli, engine
        self.inputs = workload.build(seed, str(OUT_DIR))
        self.passes = []
        self.recorder = tracing.Recorder()

    def _runs_pass(self):
        results = []
        for config in self.inputs:
            try:
                results.append(self.engine.run(config))
            except Exception as exc:  # a failed run is counted, never fatal
                results.append(exc)
        return results, []

    def _cli_pass(self, captured):
        captured.clear()
        summary = OUT_DIR / "compare" / "compare_summary.txt"
        summary.unlink(missing_ok=True)
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(self.inputs)
        except Exception as exc:  # a crashing CLI is counted, never fatal
            code = exc
        results = [t for sweep in captured for traces in sweep.values() for t in traces]
        summary_text = summary.read_text() if summary.is_file() else ""
        return results, checks.compare_problems(code, summary_text)

    def run_pass(self, traced, captured):
        clock = ProbedClock()
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracing.traced(self.recorder))
            else:  # in traced passes the probes would land in the spans
                stack.enter_context(patched(self.engine, "fedrep_round", clock.ticking))
                stack.enter_context(patched(self.engine, "run", clock.shipping))
            clock.start()
            if self.workload.kind == "cli":
                results, pass_problems = self._cli_pass(captured)
            else:
                results, pass_problems = self._runs_pass()
            clock.stop()
        stretches = [vars(t).pop(_STRETCHES) for t in results if _STRETCHES in vars(t)]
        wall, wall_scaled = pass_seconds(clock.segments, stretches, self.engine.sweep_threads())
        probes = [seg[2] for seg in clock.segments] + [seg[2] for job in stretches for seg in job]
        runs = 2 * self.workload.n_seeds if self.workload.kind == "cli" else len(results)
        problems = list(pass_problems)
        traces, failed = [], 0
        for result in results:
            found = [repr(result)] if isinstance(result, Exception) else checks.trace_problems(result)
            failed += bool(found)
            problems += found
            if not isinstance(result, Exception):
                traces.append(result)
        if pass_problems or len(results) < runs:
            failed = runs
        csvs = [self.cli.trace_to_csv(t) for t in traces]
        self.passes.append(Pass(wall, wall_scaled, statistics.median(probes), traced,
                                runs, failed, problems[:10],
                                checks.fingerprint(csvs),
                                traces if not self.passes else []))  # passes repeat the first

    def measure(self, seconds, trace):
        self.engine.run(self.engine.RunConfig(**WARM_UP))
        captured = []

        def keep(run_sweep):
            def run_sweep_kept(*args, **kwargs):
                captured.append(run_sweep(*args, **kwargs))
                return captured[-1]
            return run_sweep_kept

        with patched(self.engine, "run_sweep", keep):
            start = time.perf_counter()
            while True:
                traced_now = trace and self._count(True) < self._count(False)
                self.run_pass(traced_now, captured)
                walls = [p.wall for p in self.passes]
                enough = self._count(False) and (self._count(True) or not trace)
                if enough and time.perf_counter() - start + statistics.median(walls) / 2 >= seconds:
                    break

    def _count(self, traced):
        return sum(p.traced == traced for p in self.passes)

    def rerun_identical(self):
        """Whether one seed rerun outside the passes reproduces its trace CSV byte for byte."""
        first = self.first_traces
        if len(first) < self.passes[0].runs:  # a run of the first pass failed
            return False
        if self.workload.kind == "cli":
            from srpfl.config import load_config

            config = load_config(spec.COMPARE_CONFIG, seed=self.workload.seeds(self.seed)[0])
            config = dataclasses.replace(config, algorithm="srpfl")
        else:
            config = self.inputs[0]
        try:
            rerun = self.engine.run(config)
        except Exception:  # reported as not identical
            return False
        return self.cli.trace_to_csv(rerun) == self.cli.trace_to_csv(first[0])

    @property
    def first_traces(self):
        return self.passes[0].traces

    def client_rounds(self):
        return sum(r.n for t in self.first_traces for r in t.records)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end_metrics(bench, setup_s):
    wall = statistics.median(p.scaled for p in bench.passes if not p.traced)
    client_rounds = bench.client_rounds()
    return {
        "us_per_client_round": (1e6 * wall / client_rounds if client_rounds else 0.0, "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }


def timed_field(stat, field, passes):
    """calls and self seconds per traced pass, or a call-duration percentile in us."""
    if field == "calls":
        return stat["calls"] / passes
    if field == "self_s":
        return stat["self_s"] / passes
    if not stat["durations"]:
        return 0.0
    if field == "us_p50":
        return 1e6 * statistics.median(stat["durations"])
    return 1e6 * tracing.tail_percentile(stat["durations"])[0]


def layer_metrics(bench, stats):
    spans = bench.recorder.spans
    traced = [p.wall for p in bench.passes if p.traced]
    n = len(traced)
    scaled_traced = [p.scaled for p in bench.passes if p.traced]
    scaled_untraced = [p.scaled for p in bench.passes if not p.traced]
    empty = {"calls": 0, "self_s": 0.0, "durations": [], "count": 0}

    def stat(name):
        return stats.get(name, empty)

    metrics = {}
    for name, unit, _ in spec.PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in spec.TIMED:
            metrics[name] = (timed_field(stat(layer), field, n), unit)
    traces = bench.first_traces
    client_rounds = bench.client_rounds()
    slots = stat("straggler.draw_round_times")["count"] / n
    metrics.update({
        "synthesis.normal_draws": (stat("synthesis.sample_batch")["count"] / n, "count"),
        "fedrep.client_rounds": (client_rounds, "count"),
        "straggler.draw_utilization": (client_rounds / slots if slots else 0.0, "ratio"),
        "engine.rounds": (sum(len(t.records) for t in traces), "count"),
        "engine.setup_share": (setup_share(spans), "ratio"),
        "engine.run_sweep.parallel_efficiency": (parallel_efficiency(spans, bench.engine), "ratio"),
        "engine.sim_time_mean": (statistics.fmean(t.total_time() for t in traces) if traces else 0.0,
                                 "sim_time"),
        "trace.unattributed_s": (tracing.unattributed_seconds(spans, sum(traced)) / n, "s"),
        "trace.overhead_share": (
            statistics.median(scaled_traced) / statistics.median(scaled_untraced) - 1.0, "ratio"),
    })
    return {name: metrics[name] for name, _, _ in spec.PER_LAYER}


def setup_share(spans):
    """Share of engine.run wall time spent before its first communication round."""
    first_round = {}
    for span in spans:
        parent = span[tracing.PARENT]
        if span[tracing.NAME] == "fedrep.fedrep_round" and parent not in first_round:
            first_round[parent] = span[tracing.START]
    preamble = total = 0.0
    for index, span in enumerate(spans):
        if span[tracing.NAME] == "engine.run":
            start, end = span[tracing.START], span[tracing.END]
            preamble += first_round.get(index, end) - start
            total += end - start
    return preamble / total if total else 0.0


def parallel_efficiency(spans, engine):
    """Serial job seconds over workers x sweep wall, over every traced sweep."""
    jobs, capacity = 0.0, 0.0
    for index, span in enumerate(spans):
        if span[tracing.NAME] != "engine.run_sweep":
            continue
        runs = [s for s in spans if s[tracing.PARENT] == index and s[tracing.NAME] == "engine.run"]
        workers = min(engine.sweep_threads(), len(runs)) or 1
        jobs += sum(s[tracing.END] - s[tracing.START] for s in runs)
        capacity += workers * (span[tracing.END] - span[tracing.START])
    return jobs / capacity if capacity else 0.0


def layer_table(stats, passes):
    """Every traced function: calls, self seconds per pass and call-duration percentiles."""
    table = {}
    for name, stat in sorted(stats.items()):
        tail, q = tracing.tail_percentile(stat["durations"])
        table[name] = {
            "calls": stat["calls"] / passes,
            "self_s": stat["self_s"] / passes,
            "us_p50": 1e6 * statistics.median(stat["durations"]),
            "us_tail": 1e6 * tail,
            "tail_q": q,
        }
    return table


def accounting(spans, traced_walls, main_pid):
    """Seconds per traced pass: self time in this process, time covered by pool
    workers, and unattributed time; the three add up to the traced wall."""
    n = len(traced_walls)
    own = sum(t for s, t in zip(spans, tracing.self_times(spans)) if s[tracing.PID] == main_pid)
    unattributed = tracing.unattributed_seconds(spans, sum(traced_walls))
    workers = sum(traced_walls) - unattributed - own
    return {"self_s": own / n, "worker_covered_s": workers / n,
            "unattributed_s": unattributed / n, "wall_s": sum(traced_walls) / n}


def write_spans(path, spans):
    with open(path, "w", encoding="ascii") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not Path("src/srpfl/__init__.py").is_file():
        sys.exit("perfbench: src/srpfl not found; run from the repository root")
    for var in BLAS_THREAD_VARS:  # before numpy loads; pool workers inherit them
        os.environ[var] = "1"
    os.environ["SRPFL_THREADS"] = str(nproc())
    sys.path.insert(0, str(Path("src").resolve()))
    OUT_DIR.mkdir(exist_ok=True)

    workload = spec.BY_NAME[args.workload]
    setup_raw, setup_s = (None, None) if args.trace else measure_setup(workload, args.seed)
    bench = Bench(workload, args.seed)
    bench.measure(args.seconds, bool(args.trace))
    rerun = bench.rerun_identical()

    attempted = sum(p.runs for p in bench.passes)
    failed = sum(p.failed for p in bench.passes)
    untraced = [p.wall for p in bench.passes if not p.traced]
    q1, median, q3 = quartiles(untraced)
    probe = statistics.median(p.probe for p in bench.passes)
    fingerprints = sorted({p.fingerprint for p in bench.passes})
    result = {
        "workload": workload.name,
        "why": workload.why,
        "config": workload.config,
        "seeds": workload.seeds(args.seed),
        "machine": machine_block(),
        "wall_s": {"median": median, "q1": q1, "q3": q3, "passes": len(untraced)},
        "client_rounds": bench.client_rounds(),
        "host_probe_s": probe,
        "host_probe_ref_s": PROBE_REF_S,
        "setup_unscaled_s": setup_raw,
        "failed_share": failed / attempted,
        "problems": sorted({m for p in bench.passes for m in p.problems})[:20],
        "fingerprint": fingerprints[0],
        "passes_identical": len(fingerprints) == 1,
        "rerun_identical": rerun,
        "passes": [{"wall_s": p.wall, "traced": p.traced, "runs": p.runs, "failed": p.failed}
                   for p in bench.passes],
    }
    lines = [
        f"workload {workload.name}  seed {args.seed}  trace {args.trace}",
        f"machine  {json.dumps(result['machine'])}",
        f"wall_s = {median:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, {len(untraced)} passes, "
        f"{bench.client_rounds()} client-rounds each)",
        f"unscaled us_per_client_round = {1e6 * median / bench.client_rounds():.6g} us  "
        f"(host probe {1e3 * probe:.3f} ms, reference {1e3 * PROBE_REF_S:.3f} ms)",
        f"failed_share = {failed}/{attempted}",
        *([f"unscaled setup_s = {setup_raw:.4f} s  (reference import numpy {BASELINE_REF_S} s)"]
          if setup_raw is not None else []),
        f"fingerprint = {fingerprints[0]}  passes identical: {len(fingerprints) == 1}  "
        f"rerun identical: {rerun}",
    ]
    if args.trace:
        stats = tracing.layer_stats(bench.recorder.spans)
        metrics = layer_metrics(bench, stats)
        traced = [p.wall for p in bench.passes if p.traced]
        result["layers"] = layer_table(stats, len(traced))
        result["accounting"] = accounting(bench.recorder.spans, traced, os.getpid())
        lines.append("accounting per traced pass: " + ", ".join(
            f"{k} {v:.4f}" for k, v in result["accounting"].items()))
        spans_path = OUT_DIR / f"{workload.name}-seed{args.seed}-spans.jsonl"
        write_spans(spans_path, bench.recorder.spans)
    else:
        metrics = end_to_end_metrics(bench, setup_s)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))


if __name__ == "__main__":
    main()
