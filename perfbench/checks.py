"""Output checks and the behaviour fingerprint of a benchmark pass."""

import hashlib
import math


def trace_problems(trace):
    """What is wrong with one finished run; empty when it is a genuine success."""
    records = trace.records
    problems = []
    if not trace.reached_target:
        problems.append("target not reached")
    if len(records) <= 1:
        problems.append(f"target reached in {len(records)} round(s): vacuous")
    if not trace.epsilon < trace.init_dist:
        problems.append(f"epsilon {trace.epsilon:.6g} >= init_dist {trace.init_dist:.6g}: vacuous")
    if not all(math.isfinite(r.dist) and 0.0 <= r.dist <= 1.0 for r in records):
        problems.append("a distance left [0, 1]")
    if any(b.cumulative_time <= a.cumulative_time for a, b in zip(records, records[1:])):
        problems.append("cumulative time not strictly increasing")
    if any(b.n < a.n for a, b in zip(records, records[1:])):
        problems.append("participant ladder decreased")
    return problems


def parse_summary(text):
    """``key = value`` lines of a compare summary, as floats."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key.strip()] = float(value)
    return fields


def compare_problems(exit_code, summary_text):
    """What is wrong with one ``srpfl compare`` invocation."""
    if exit_code != 0:
        return [f"compare exited with {exit_code!r}"]
    summary = parse_summary(summary_text)
    if not summary["mean_time_srpfl"] < summary["mean_time_fedrep_full"]:
        return [
            f"mean srpfl time {summary['mean_time_srpfl']:.6g} does not beat "
            f"fedrep_full {summary['mean_time_fedrep_full']:.6g}"
        ]
    return []


def fingerprint(csv_texts):
    """sha256 of the concatenated trace CSVs of one pass, in run order."""
    digest = hashlib.sha256()
    for text in csv_texts:
        digest.update(text.encode("ascii"))
    return digest.hexdigest()
