"""Spans around srpfl's public functions, recorded from outside the package.

:func:`traced` replaces every public function of the layer modules with a
wrapper that records a span, in every srpfl namespace that holds it:
``engine`` and ``fedrep`` import by name, so ``srpfl.engine.fedrep_round``
and ``srpfl.fedrep.thin_qr`` are patched alongside the definitions.  The
originals come back when the context exits.

A span is ``[name, start, end, parent, run_id, pid, count]``: ``parent``
indexes the enclosing span, ``run_id`` names the ``engine.run`` call the
span belongs to, and ``count`` holds a work count for the few layers that
have one (normal draws per batch, timing slots per draw).  Spans stay in
memory until the benchmark writes them out.

Pool workers of ``engine.run_sweep`` are forked with the patched
functions in place.  Each worker ships the spans of a run back as an
attribute of the returned trace, and the sweep's wrapper grafts them under
the sweep span, so parallel runs are traced too.  This relies on the fork
start method, the default for process pools on Linux before Python 3.14.
"""

import contextlib
import functools
import importlib
import inspect
import math
import os
import time

NAME, START, END, PARENT, RUN_ID, PID, COUNT = range(7)

LAYER_MODULES = ("linalg", "synthesis", "fedrep", "straggler", "engine", "config", "cli")

_SHIPPED = "_perfbench_spans"


def _normal_draws(args, result):
    gt = args[0]
    return result.x.size + (result.y.size if gt.sigma > 0 else 0)


def _slots(args, result):
    return len(result)


# span name -> count taken from the call's positional args and its result
COUNTERS = {
    "synthesis.sample_batch": _normal_draws,
    "straggler.draw_round_times": _slots,
}


class Recorder:
    """In-memory span log of one process."""

    def __init__(self):
        self.owner = self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._runs = 0

    def _adopt_fork(self):
        # a forked pool worker inherits the parent's log; it starts its own
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans, self._stack = [], []

    def call(self, name, fn, args, kwargs):
        self._adopt_fork()
        parent = self._stack[-1] if self._stack else None
        if name == "engine.run":
            run_id = f"{self.pid}:{self._runs}"
            self._runs += 1
        else:
            run_id = self.spans[parent][RUN_ID] if parent is not None else None
        span = [name, 0.0, 0.0, parent, run_id, self.pid, 0]
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            span[COUNT] = counter(args, result)
        if name == "engine.run" and not self._stack and self.pid != self.owner:
            setattr(result, _SHIPPED, self.spans)
            self.spans = []
        elif name == "engine.run_sweep":
            self._graft(index, result)
        return result

    def _graft(self, sweep_index, result):
        for traces in result.values():
            for trace in traces:
                shipped = trace.__dict__.pop(_SHIPPED, None)
                if not shipped:
                    continue
                offset = len(self.spans)
                for span in shipped:
                    span[PARENT] = sweep_index if span[PARENT] is None else span[PARENT] + offset
                    self.spans.append(span)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced_call


def public_functions(module):
    """Public functions defined (not merely imported) in ``module``."""
    return {
        attr: fn for attr, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_")
    }


@contextlib.contextmanager
def traced(recorder):
    """Patch every public layer function, wherever srpfl looks it up, for the block."""
    modules = [importlib.import_module(f"srpfl.{m}") for m in LAYER_MODULES]
    wrappers = {}
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[1]
        for attr, fn in public_functions(module).items():
            wrappers[id(fn)] = recorder.wrap(f"{layer}.{attr}", fn)
    patched = []
    for module in [importlib.import_module("srpfl"), *modules]:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
    try:
        yield recorder
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def covered_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span: its duration minus the time its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (s[END] - s[START]) - covered_length(children[i], s[START], s[END])
        for i, s in enumerate(spans)
    ]


def layer_stats(spans):
    """Per span name: calls, summed self seconds, call durations and summed counts."""
    stats = {}
    for span, own in zip(spans, self_times(spans)):
        entry = stats.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "durations": [], "count": 0})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["durations"].append(span[END] - span[START])
        entry["count"] += span[COUNT]
    return stats


def unattributed_seconds(spans, wall):
    """Part of ``wall`` that no top-level span of the recording process covers."""
    return wall - sum(s[END] - s[START] for s in spans if s[PARENT] is None)


def tail_percentile(samples, q=99.0):
    """Nearest-rank q-th percentile, lowered until ten samples lie beyond it.

    Returns ``(value, q_used)``.  With ten samples or fewer no percentile
    has ten beyond it, and the median is returned with ``q_used = 50``.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 0.0, q
    if n <= 10:
        return xs[math.ceil(n / 2) - 1], 50.0
    rank = min(math.ceil(q / 100.0 * n), n - 10)
    return xs[rank - 1], 100.0 * rank / n
