"""Flight-recorder overhead: events-off vs events-on vs deep-mode runs.

Not a paper figure — this benchmarks ``repro.obs.events``, the decision-level
flight recorder the merge pass emits into (ISSUE 8).  The recorder's contract
has two halves, and this bench gates both:

* **Bit-identity.**  ``merge_report_digest`` must be identical across
  events-off, events-on and ``metrics="deep"`` runs — the recorder only
  observes, never steers.  Asserted in every mode at every size.
* **Bounded overhead.**  An events-on run (registry + flight recorder) must
  cost **< 5%** wall-clock over the bare run.  Asserted only under
  ``REPRO_FULL=1`` at the 1024-function acceptance size (smoke sizes report
  the ratio but never fail on CI timing noise); the trend gate tracks the
  series as advisory either way.

A fourth **sink** mode runs the same workload with a deliberately tiny
ring (:data:`SINK_RING_CAPACITY`) and a durable rotating
:class:`~repro.obs.EventSink`: the ring must overflow, the rotated
segments must still replay every emitted event (``sink_disk_missing == 0``),
and the report digest must stay identical.  Its trend row lands under
``bench="obs_sink"`` with its own ``check_trend.py`` policy.

Each trend row also records per-phase net allocation (``phase_alloc``,
deep mode), which ``plot_trend.py`` overlays per phase.

``REPRO_SMOKE=1`` shrinks the sweep to one small module; ``REPRO_FULL=1``
extends it to 256 and 1024 functions.
"""

import os
import tempfile
import time

from repro.harness import run_pipeline
from repro.harness.experiments import merge_report_digest, search_workload
from repro.obs import (PHASE_ALLOC_GAUGE, EventLog, EventSink,
                       MetricsRegistry, attach_events, read_sink_events)

from conftest import FULL, append_trend, run_once

SMOKE = os.environ.get("REPRO_SMOKE", "0") not in ("0", "", "false")
SIZES = (64,) if SMOKE else ((256, 1024) if FULL else (256,))

ACCEPTANCE_SIZE = 1024
#: Events-on wall-clock over events-off, upper bound (FULL runs only).
MAX_OVERHEAD = 1.05

#: Sink-mode ring capacity — deliberately tiny so the ring *must* drop and
#: the durable sink is the only complete record (the contract under test).
SINK_RING_CAPACITY = 64
#: Sink-mode segment size — small enough to force several rotations.
SINK_MAX_BYTES = 64 * 1024


def _phase_alloc(registry) -> dict:
    """Per-phase net allocation (bytes) from the deep-mode gauge family."""
    alloc = {}
    for family in registry.families():
        if family.name != PHASE_ALLOC_GAUGE:
            continue
        for values, child in family.samples():
            labels = dict(zip(family.label_names, values))
            alloc[labels.get("phase", "?")] = int(child.value)
    return alloc


def obs_overhead(sizes):
    rows = []
    for size in sizes:
        timings = {}
        digests = {}
        registries = {}
        sink_stats = {}
        for mode in ("off", "events", "deep", "sink"):
            module = search_workload(size)
            registry = None
            sink_dir = None
            if mode == "events":
                registry = MetricsRegistry()
                attach_events(registry, True)
            elif mode == "deep":
                registry = MetricsRegistry(trace_memory=True, deep=True)
                attach_events(registry, True)
            elif mode == "sink":
                # Tiny ring + durable sink: the ring is guaranteed to
                # overflow, and the rotated segments on disk must still
                # hold every event the run emitted.
                sink_dir = tempfile.TemporaryDirectory(prefix="repro-sink-")
                registry = MetricsRegistry()
                log = EventLog(capacity=SINK_RING_CAPACITY)
                log.attach_sink(EventSink(sink_dir.name,
                                          max_bytes=SINK_MAX_BYTES))
                attach_events(registry, log)
            start = time.perf_counter()
            result = run_pipeline(module, "bench", technique="salssa",
                                  threshold=2, metrics=registry)
            timings[mode] = time.perf_counter() - start
            digests[mode] = merge_report_digest(result.report)
            registries[mode] = registry
            if mode == "sink":
                log = registry.events
                sink = log.sink
                sink.flush()
                replayed = read_sink_events(sink.directory)
                sink_stats = {
                    "sink_seconds": timings["sink"],
                    "sink_events_total": log.next_seq,
                    "sink_ring_dropped": log.dropped,
                    "sink_disk_events": len(replayed),
                    "sink_disk_missing": log.next_seq - len(replayed),
                    "sink_rotations": sink.rotations,
                    "sink_write_errors": sink.write_errors,
                }
                sink.close()
                sink_dir.cleanup()
            if registry is not None:
                registry.close()
        events_log = registries["events"].events
        rows.append({
            "num_functions": size,
            "off_seconds": timings["off"],
            "events_seconds": timings["events"],
            "deep_seconds": timings["deep"],
            "overhead_ratio": timings["events"] / timings["off"]
            if timings["off"] else 1.0,
            "deep_ratio": timings["deep"] / timings["off"]
            if timings["off"] else 1.0,
            "events_recorded": len(events_log),
            "events_dropped": events_log.dropped,
            "digests_match": digests["off"] == digests["events"]
            == digests["deep"] == digests["sink"],
            "phase_alloc": _phase_alloc(registries["deep"]),
            "sink_ratio": timings["sink"] / timings["off"]
            if timings["off"] else 1.0,
            **sink_stats,
        })
    return rows


def test_obs_event_overhead(benchmark):
    rows = run_once(benchmark, obs_overhead, SIZES)
    print()
    for row in rows:
        print(f"  {row['num_functions']:5d} fns: off {row['off_seconds']:.3f}s"
              f" events {row['events_seconds']:.3f}s"
              f" ({100 * (row['overhead_ratio'] - 1):+.1f}%)"
              f" deep {row['deep_seconds']:.3f}s"
              f" ({100 * (row['deep_ratio'] - 1):+.1f}%), "
              f"{row['events_recorded']} events "
              f"({row['events_dropped']} dropped), "
              f"digests_match={row['digests_match']}")
        print(f"          sink: {row['sink_seconds']:.3f}s"
              f" ({100 * (row['sink_ratio'] - 1):+.1f}%),"
              f" {row['sink_disk_events']}/{row['sink_events_total']}"
              f" events on disk across {row['sink_rotations'] + 1} segments,"
              f" ring dropped {row['sink_ring_dropped']}")
    largest = max(SIZES)
    newest = next(r for r in rows if r["num_functions"] == largest)
    benchmark.extra_info["overhead_ratio"] = round(
        newest["overhead_ratio"], 4)
    append_trend(
        "obs_overhead", num_functions=largest,
        overhead_ratio=round(newest["overhead_ratio"], 4),
        deep_ratio=round(newest["deep_ratio"], 4),
        events_recorded=newest["events_recorded"],
        events_dropped=newest["events_dropped"],
        phase_alloc=newest["phase_alloc"],
        digests_match=all(r["digests_match"] for r in rows))
    append_trend(
        "obs_sink", num_functions=largest,
        sink_ratio=round(newest["sink_ratio"], 4),
        sink_events_total=newest["sink_events_total"],
        sink_disk_events=newest["sink_disk_events"],
        sink_disk_missing=newest["sink_disk_missing"],
        sink_ring_dropped=newest["sink_ring_dropped"],
        sink_rotations=newest["sink_rotations"],
        sink_write_errors=newest["sink_write_errors"],
        digests_match=all(r["digests_match"] for r in rows))

    # Bit-identity is the contract: asserted in every mode, every size.
    for row in rows:
        assert row["digests_match"], \
            f"report diverged with the flight recorder on at " \
            f"{row['num_functions']} functions"
        assert row["events_recorded"] > 0, row
    # Write-ahead contract: the ring must have overflowed *and* the disk
    # replay must still hold every event, with zero failed writes.
    for row in rows:
        assert row["sink_ring_dropped"] > 0, row
        assert row["sink_disk_missing"] == 0, row
        assert row["sink_write_errors"] == 0, row
    # The overhead bar only binds at the acceptance size (FULL runs), where
    # per-event cost dominates fixed setup; smoke sizes report, never fail.
    for row in rows:
        if row["num_functions"] >= ACCEPTANCE_SIZE:
            assert row["overhead_ratio"] < MAX_OVERHEAD, row
