"""Paper-pipeline benchmark: cold SalSSA, cold FMSA and an incremental edit
stream, with a traced run for per-layer attribution.

Run from the repository root:

    python3 perfbench/run.py --workload cold_salssa --seed 7 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Failures are
described on standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

Metrics = Dict[str, Tuple[float, str]]

#: How much longer an operation's wall time, measured around the call, may
#: be than its root span: the cost of opening and closing the span.
ROOT_SLACK_S = 1e-3
ROOT_SLACK = 0.01

#: Samples the reported tail percentile leaves beyond it.
TAIL_SAMPLES = 10


def _load_program() -> None:
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure at {SOURCE}/repro")
    sys.path[:0] = [str(SOURCE), str(HERE)]


def _tail(samples: List[float]) -> float:
    """The p90, linearly interpolated.  With fewer than 100 samples, the
    highest percentile that still leaves ``TAIL_SAMPLES`` beyond it, and
    the median when not even that does: a cold run's handful of compiles
    has no tail that one slow compile would not set alone."""
    share = min(0.9, max(0.5, 1 - TAIL_SAMPLES / len(samples)))
    ordered = sorted(samples)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _reduction(sizes: List[Tuple[int, int]]) -> float:
    """Object-size reduction over every module the run produced."""
    before = sum(baseline for baseline, _ in sizes)
    return 100.0 * (before - sum(final for _, final in sizes)) / before


def end_to_end(record, attempted: int, failed: int) -> Metrics:
    return {
        "compile_s": (statistics.median(record.compile_wall_s), "s"),
        "compile_cpu_s": (statistics.median(record.compile_cpu_s), "s"),
        "delta_p50_ms": (1000 * statistics.median(record.op_wall_s), "ms"),
        "delta_p90_ms": (1000 * _tail(record.op_wall_s), "ms"),
        "reduction_pct": (_reduction(record.sizes), "%"),
        "peak_mem_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(record.setup_s), "s"),
        "success_rate": (1 - failed / attempted, "fraction"),
    }


def per_layer(untraced, passes) -> Tuple[Metrics, List[str]]:
    """Per-operation layer metrics of the first traced pass, plus what the
    determinism and reconciliation checks found."""
    from tracing import CALLS_NAME, LAYERS, ROOT, WORK_COUNTS

    first, second = passes
    tracer, record = first.tracer, first.record
    problems = []
    for traced in passes:
        problems += _unreconciled(traced.tracer, traced.record)
    ops = tracer.operations
    self_times = tracer.self_times()
    seconds = tracer.layer_seconds(self_times)
    metrics: Metrics = {}
    counts = []
    for layer in LAYERS:
        metrics[f"{layer}.s"] = (seconds.get(layer, 0.0) / ops, "s")
        counts.append(f"{layer}.{CALLS_NAME.get(layer, 'calls')}")
        if layer in WORK_COUNTS:
            counts.append(f"{layer}.{WORK_COUNTS[layer][0]}")
    for name in counts:
        metrics[name] = (tracer.counts.get(name, 0) / ops, "count")
    stats = _record_counts(record)
    for name, value in stats.items():
        metrics[name] = (value / ops, "count")
    metrics["merge.profitable_ratio"] = (
        record.profitable / max(1, record.attempts), "fraction")
    metrics["incremental.reuse_ratio"] = (
        record.pairs_reused
        / max(1, record.pairs_reused + record.pairs_rescored), "fraction")

    roots = [(span[2] - span[1], own)
             for span, own in zip(tracer.spans, self_times) if span[0] == ROOT]
    metrics["trace.unattributed_frac"] = (
        sum(own for _, own in roots) / sum(total for total, _ in roots),
        "fraction")
    # Each traced operation ran right after the same untraced one, so the
    # paired ratio cancels the host's drift between operations.
    ratios = [traced / plain
              for plain, *pair in zip(untraced.op_wall_s, record.op_wall_s,
                                      second.record.op_wall_s)
              for traced in pair]
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1,
                                      "fraction")

    stats_b = _record_counts(second.record)
    counts_b = second.tracer.counts
    mismatched = [name for name in counts
                  if tracer.counts.get(name) != counts_b.get(name)]
    mismatched += [name for name in stats if stats[name] != stats_b[name]]
    if record.sizes != second.record.sizes:
        mismatched.append("reduction_pct")
    if mismatched:
        problems.append("two traced passes of one seed differ in "
                        + ", ".join(mismatched))
    return metrics, problems


def _unreconciled(tracer, record) -> List[str]:
    """Spans whose self times do not add up to their durations, and root
    spans whose duration is not the operation's wall time as measured
    around the call, outside the tracer."""
    from tracing import ROOT

    problems = []
    bad = tracer.unreconciled(tracer.self_times())
    if bad:
        problems.append(f"{len(bad)} spans do not reconcile, e.g. "
                        f"{tracer.spans[bad[0]][0]}")
    roots = [end - start for layer, start, end, _, _ in tracer.spans
             if layer == ROOT]
    if len(roots) != len(record.op_wall_s):
        problems.append(f"{len(roots)} root spans for "
                        f"{len(record.op_wall_s)} timed operations")
    off = [(root, wall) for root, wall in zip(roots, record.op_wall_s)
           if not 0 <= wall - root <= ROOT_SLACK_S + ROOT_SLACK * wall]
    if off:
        problems.append(f"{len(off)} root spans disagree with the "
                        f"operation's wall time, e.g. {off[0][0]:.6f} s "
                        f"against {off[0][1]:.6f} s")
    return problems


def _record_counts(record) -> Dict[str, int]:
    return {
        "merge.attempts": record.attempts,
        "merge.profitable": record.profitable,
        "incremental.merges_spliced": record.merges_spliced,
        "incremental.merges_recomputed": record.merges_recomputed,
    }


def _report_failures(failures: List[str], args) -> None:
    for failure in failures:
        print(f"perfbench: {args.workload} seed {args.seed}: {failure}",
              file=sys.stderr)


def _measured(record, args):
    """``record``, unless not one operation succeeded: then nothing was
    measured and the run ends without a result."""
    if not record.operations:
        _report_failures(record.failures, args)
        sys.exit(f"perfbench: {args.workload}: no operation succeeded")
    return record


def main(argv=None) -> int:
    _load_program()
    from tracing import Tracer, installed
    from workloads import MINIMUMS, WORKLOADS, Budget

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    started = time.perf_counter()
    if not args.trace:
        budget = replace(MINIMUMS[args.workload], seconds=args.seconds)
        plain = workload(args.seed)
        while not budget.done(started, plain.record):
            plain.step()
        plain.finish()
        record = _measured(plain.record, args)
        attempted = record.attempted
        failures = list(record.failures)
        metrics = end_to_end(record, attempted, len(failures))
    else:
        with installed(Tracer()):  # a stale target fails before measuring
            pass
        # Each operation runs untraced (the overhead baseline, with every
        # output check), then twice traced, so the traced passes see the
        # same inputs and the host's drift falls on all three alike.  The
        # loop stops after two thirds of the time, so a traced run, which
        # overshoots by up to one round of three operations, costs about
        # what an untraced one does.
        budget = Budget(seconds=args.seconds * 2 / 3)
        plain = workload(args.seed)
        passes = [workload(args.seed, tracer=Tracer(), checked=False)
                  for _ in range(2)]
        while not budget.done(started, plain.record):
            plain.step()
            for traced in passes:
                with installed(traced.tracer):
                    traced.step()
        for each in (plain, *passes):
            each.finish()
        _measured(plain.record, args)
        for traced in passes:
            _measured(traced.record, args)
        metrics, problems = per_layer(plain.record, passes)
        attempted = sum(each.record.attempted for each in (plain, *passes))
        failures = [failure for each in (plain, *passes)
                    for failure in each.record.failures] + problems

    _report_failures(failures, args)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
