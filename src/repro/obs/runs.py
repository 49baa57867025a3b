"""``repro.obs.runs`` — a queryable, durable ledger of pipeline runs.

The registry and flight recorder describe *one* run while its process lives;
nothing ties run N to run N-1.  This module closes that gap: every
``run_pipeline`` / ``run_pipeline_incremental`` invocation with a ledger
attached (:func:`attach_run_ledger`, threaded exactly like ``events=`` /
``metrics=``) ends by writing one schema-versioned :class:`RunRecord` —
config fingerprint, report digest, per-phase timings and allocation,
subsystem stats, the verdict reason-code histogram, and a pointer to the
run's durable event sink — into the existing content-addressed
:class:`~repro.persist.ArtifactStore` under kind :data:`RUN_KIND`.

The ledger inherits the store's whole robustness contract: records are
atomic to write, content-addressed (the run id *is* the record's digest),
and a corrupt or schema-incompatible record is a **miss**, never an error —
a damaged ledger degrades to fewer rows, not a broken CLI.

The ``repro-runs`` CLI (also ``python -m repro.obs.runs``) queries it::

    repro-runs --store .cache list --benchmark mibench --technique salssa
    repro-runs --store .cache show 3f9a2c
    repro-runs --store .cache diff 3f9a2c 81d0be   # digest match, phase
                                                   # deltas, reason drift,
                                                   # verdict flips
    repro-runs --store .cache regress 3f9a2c       # newest vs trailing
                                                   # median, trend policies

Recording is purely observational — reports are digest-identical with the
ledger attached or not, the same contract metrics and events honour.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Version of the RunRecord payload shape.  Bump on incompatible changes:
#: old records then read as misses (the ledger thins out), never as wrong
#: data — the artifact store's own schema stance.
RUN_SCHEMA = 1

#: The artifact-store kind run records live under.
RUN_KIND = "obs.run"


def _digest_payload(payload: Dict[str, Any]) -> str:
    """The content address of one run payload (canonical-JSON SHA-256)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def config_fingerprint(config: Dict[str, Any]) -> str:
    """A stable digest of one run configuration (canonical-JSON SHA-256).

    Two runs share a fingerprint exactly when their configuration dicts are
    equal — the key ``regress`` uses to build comparable series, mirroring
    ``check_trend``'s context fields.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class RunRecord:
    """One pipeline invocation, reduced to durable plain data."""

    #: What ran: benchmark name, technique, exploration threshold.
    benchmark: str
    technique: str
    threshold: int
    #: ``"cold"`` (``run_pipeline``) or ``"incremental"``.
    mode: str
    #: The full configuration dict and its :func:`config_fingerprint`.
    config: Dict[str, Any] = field(default_factory=dict)
    fingerprint: str = ""
    #: SHA-256 over ``merge_report_digest(report)`` — the bit-identity bar;
    #: None for baseline-only runs that produced no report.
    report_digest: Optional[str] = None
    #: Headline result numbers.
    baseline_size: int = 0
    final_size: int = 0
    reduction_percent: float = 0.0
    attempts: int = 0
    profitable_merges: int = 0
    merge_seconds: float = 0.0
    #: Total wall-clock per completed span name (``{"merge": 1.2, ...}``).
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Net traced allocation per span name (deep mode only; else empty).
    phase_alloc: Dict[str, int] = field(default_factory=dict)
    #: Subsystem counter views (analysis/persist/incremental),
    #: present only for the subsystems the run actually exercised.
    stats: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Verdict reason-code histogram from the flight recorder (empty when
    #: the run recorded no events).
    reason_codes: Dict[str, int] = field(default_factory=dict)
    #: Where the run's durable event sink lives, if one was attached.
    events_sink: Optional[str] = None
    #: In-memory ring evictions (the disk sink never drops).
    events_dropped: int = 0
    #: Wall-clock stamp (seconds since the epoch) of record creation.
    unix_time: int = 0
    #: The record's content address in the ledger (assigned on save).
    run_id: str = ""

    def as_payload(self) -> Dict[str, Any]:
        payload = {
            "schema": RUN_SCHEMA,
            "benchmark": self.benchmark,
            "technique": self.technique,
            "threshold": self.threshold,
            "mode": self.mode,
            "config": self.config,
            "fingerprint": self.fingerprint,
            "report_digest": self.report_digest,
            "baseline_size": self.baseline_size,
            "final_size": self.final_size,
            "reduction_percent": self.reduction_percent,
            "attempts": self.attempts,
            "profitable_merges": self.profitable_merges,
            "merge_seconds": self.merge_seconds,
            "phase_seconds": self.phase_seconds,
            "phase_alloc": self.phase_alloc,
            "stats": self.stats,
            "reason_codes": self.reason_codes,
            "events_sink": self.events_sink,
            "events_dropped": self.events_dropped,
            "unix_time": self.unix_time,
        }
        if self.run_id:
            payload["run_id"] = self.run_id
        return payload

    @classmethod
    def from_payload(cls, payload: Any) -> Optional["RunRecord"]:
        """Parse a stored payload; ``None`` on any defect (a ledger miss)."""
        if not isinstance(payload, dict) \
                or payload.get("schema") != RUN_SCHEMA:
            return None
        try:
            return cls(
                benchmark=str(payload["benchmark"]),
                technique=str(payload["technique"]),
                threshold=int(payload["threshold"]),
                mode=str(payload["mode"]),
                config=dict(payload.get("config", {})),
                fingerprint=str(payload.get("fingerprint", "")),
                report_digest=payload.get("report_digest"),
                baseline_size=int(payload.get("baseline_size", 0)),
                final_size=int(payload.get("final_size", 0)),
                reduction_percent=float(payload.get("reduction_percent", 0.0)),
                attempts=int(payload.get("attempts", 0)),
                profitable_merges=int(payload.get("profitable_merges", 0)),
                merge_seconds=float(payload.get("merge_seconds", 0.0)),
                phase_seconds={str(k): float(v) for k, v
                               in dict(payload.get("phase_seconds", {})).items()},
                phase_alloc={str(k): int(v) for k, v
                             in dict(payload.get("phase_alloc", {})).items()},
                stats={str(k): dict(v) for k, v
                       in dict(payload.get("stats", {})).items()},
                reason_codes={str(k): int(v) for k, v
                              in dict(payload.get("reason_codes", {})).items()},
                events_sink=payload.get("events_sink"),
                events_dropped=int(payload.get("events_dropped", 0)),
                unix_time=int(payload.get("unix_time", 0)),
                run_id=str(payload.get("run_id", "")),
            )
        except (KeyError, TypeError, ValueError):
            return None


class RunLedger:
    """The run history living in one artifact store (kind ``obs.run``)."""

    def __init__(self, store) -> None:
        self.store = store

    def record(self, record: RunRecord) -> str:
        """Persist ``record``; returns its run id (the content address).

        The id is the digest of the payload *without* the id itself, so the
        stored record is self-describing and the store's own kind/digest
        envelope check catches mis-filed records.
        """
        record.run_id = ""
        digest = _digest_payload(record.as_payload())
        record.run_id = digest
        self.store.store(RUN_KIND, digest, record.as_payload())
        return digest

    def load(self, run_id: str) -> Optional[RunRecord]:
        """The record stored under ``run_id``, or ``None`` — a miss covers
        absent, corrupt and schema-incompatible records alike."""
        payload = self.store.load(RUN_KIND, run_id)
        if payload is None:
            return None
        record = RunRecord.from_payload(payload)
        if record is None:
            # Structurally valid store record, semantically not a RunRecord.
            self.store.note_invalid_payload()
            return None
        record.run_id = record.run_id or run_id
        return record

    def run_ids(self) -> List[str]:
        """Every digest filed under ``obs.run`` (unvalidated, sorted)."""
        return sorted(self.store.iter_digests(RUN_KIND))

    def runs(self) -> List[RunRecord]:
        """Every *loadable* record, oldest first (ties break on run id)."""
        records = [self.load(run_id) for run_id in self.run_ids()]
        return sorted((record for record in records if record is not None),
                      key=lambda record: (record.unix_time, record.run_id))

    def resolve(self, prefix: str) -> Optional[str]:
        """A full run id from a unique prefix (``None``: absent/ambiguous)."""
        matches = [run_id for run_id in self.run_ids()
                   if run_id.startswith(prefix)]
        return matches[0] if len(matches) == 1 else None


def attach_run_ledger(registry, store) -> Optional[RunLedger]:
    """Attach a run ledger to ``registry`` so pipeline entry points record a
    :class:`RunRecord` at the end of every invocation.

    ``store`` is an :class:`~repro.persist.ArtifactStore`, a path to root
    one at, or an existing :class:`RunLedger`; ``None`` detaches.  Threads
    through ``harness/pipeline.py`` the same way ``events=``/``metrics=``
    do: attach once, every subsequent run lands in the ledger.
    """
    if store is None:
        ledger = None
    elif isinstance(store, RunLedger):
        ledger = store
    elif isinstance(store, (str, Path)):
        from ..persist import ArtifactStore
        ledger = RunLedger(ArtifactStore(store))
    else:
        ledger = RunLedger(store)
    if registry is not None:
        registry.run_ledger = ledger
    return ledger


def _report_digest_hex(report) -> Optional[str]:
    if report is None:
        return None
    # Lazy import: harness.pipeline imports repro.obs, so the digest helper
    # must not be pulled in at module import time.
    from ..harness.experiments import merge_report_digest
    return hashlib.sha256(
        repr(merge_report_digest(report)).encode("utf-8")).hexdigest()


def record_pipeline_run(registry, result, mode: str,
                        config: Optional[Dict[str, Any]] = None,
                        incremental: Optional[Dict[str, Any]] = None
                        ) -> Optional[str]:
    """Write one :class:`RunRecord` for ``result`` into the ledger attached
    to ``registry`` (no-op returning ``None`` without one).

    Called by ``run_pipeline`` / ``run_pipeline_incremental`` after the
    result is fully observed; everything here *reads* the run, so reports
    stay digest-identical with the ledger on or off.
    """
    ledger = getattr(registry, "run_ledger", None) \
        if registry is not None else None
    if ledger is None:
        return None
    full_config = {
        "benchmark": result.benchmark,
        "technique": result.technique,
        "threshold": result.threshold,
    }
    full_config.update(config or {})

    phase_seconds: Dict[str, float] = {}
    phase_alloc: Dict[str, int] = {}
    for span in registry.trace:
        phase_seconds[span.name] = phase_seconds.get(span.name, 0.0) \
            + span.seconds
        if span.alloc_bytes:
            phase_alloc[span.name] = phase_alloc.get(span.name, 0) \
                + span.alloc_bytes

    stats: Dict[str, Dict[str, Any]] = {}
    if result.analysis_stats is not None:
        stats["analysis"] = {
            key: value for key, value in vars(result.analysis_stats).items()
            if isinstance(value, (int, float, str, bool))}
    if result.persist_stats is not None:
        stats["persist"] = result.persist_stats.as_dict()
    if incremental is not None:
        stats["incremental"] = {
            key: value for key, value in incremental.items()
            if isinstance(value, (int, float, str, bool))}

    reason_codes: Dict[str, int] = {}
    events_sink = None
    events_dropped = 0
    events = getattr(registry, "events", None)
    if events is not None:
        reason_codes = dict(sorted(TallyCounter(
            str(event.data.get("reason"))
            for event in events.records("verdict")).items()))
        events_dropped = events.dropped
        sink = getattr(events, "sink", None)
        if sink is not None:
            sink.flush()
            events_sink = str(sink.directory)

    record = RunRecord(
        benchmark=result.benchmark,
        technique=result.technique,
        threshold=result.threshold,
        mode=mode,
        config=full_config,
        fingerprint=config_fingerprint(full_config),
        report_digest=_report_digest_hex(result.report),
        baseline_size=result.baseline_size,
        final_size=result.final_size,
        reduction_percent=result.reduction_percent,
        attempts=result.report.attempts if result.report is not None else 0,
        profitable_merges=result.report.profitable_merges
        if result.report is not None else 0,
        merge_seconds=result.merge_seconds,
        phase_seconds=phase_seconds,
        phase_alloc=phase_alloc,
        stats=stats,
        reason_codes=reason_codes,
        events_sink=events_sink,
        events_dropped=events_dropped,
        unix_time=int(time.time()),
    )
    return ledger.record(record)


# ---------------------------------------------------------------------------
# Regression policies: newest-vs-trailing-median over ledger series.
# ---------------------------------------------------------------------------

def _trend_module():
    """``benchmarks/check_trend.py`` when the repo layout is available —
    ``regress`` then judges with the *same* MetricPolicy/judge_metric
    machinery CI gates with; ``None`` in an installed-package layout."""
    for parent in Path(__file__).resolve().parents:
        candidate = parent / "benchmarks" / "check_trend.py"
        if candidate.exists():
            directory = str(candidate.parent)
            if directory not in sys.path:
                sys.path.append(directory)
            try:
                import check_trend
                return check_trend
            except ImportError:
                return None
    return None


@dataclass(frozen=True)
class _FallbackPolicy:
    """check_trend.MetricPolicy's judged semantics, for installed layouts."""

    direction: str
    tolerance: float
    abs_slack: float = 0.0
    advisory: bool = False


#: What ``regress`` judges, per metric: wall-clock is advisory (runner
#: noise), result quality is hard — the same stance the CI gate takes.
RUN_REGRESS_POLICIES: Dict[str, _FallbackPolicy] = {
    "merge_seconds": _FallbackPolicy("lower", 0.25, abs_slack=0.05,
                                     advisory=True),
    "reduction_percent": _FallbackPolicy("higher", 0.05, abs_slack=0.01),
    "profitable_merges": _FallbackPolicy("higher", 0.0, abs_slack=0.0),
    "attempts": _FallbackPolicy("lower", 0.25, abs_slack=2.0,
                                advisory=True),
}

_FALLBACK_MIN_HISTORY = 2


def _judge(name: str, policy, newest: float, prior: List[float],
           series: str):
    """One (metric, series) verdict as ``(severity, message)``."""
    trend = _trend_module()
    if trend is not None:
        shared = trend.MetricPolicy(direction=policy.direction,
                                    tolerance=policy.tolerance,
                                    abs_slack=policy.abs_slack,
                                    advisory=policy.advisory)
        finding = trend.judge_metric(name, shared, newest, prior, series)
        return finding.severity, finding.message
    if len(prior) < _FALLBACK_MIN_HISTORY:
        return "warn", (f"{series} {name}={newest}: only {len(prior)} prior "
                        f"run(s) (<{_FALLBACK_MIN_HISTORY}), advisory")
    baseline = statistics.median(prior)
    allowed = max(policy.tolerance * abs(baseline), policy.abs_slack)
    if policy.direction == "higher":
        regressed = newest < baseline - allowed
    else:
        regressed = newest > baseline + allowed
    if not regressed:
        return "ok", (f"{series} {name}={newest} vs median {baseline} "
                      f"(±{allowed:.4g}): ok")
    severity = "warn" if policy.advisory else "fail"
    arrow = "below" if policy.direction == "higher" else "above"
    return severity, (f"{series} {name}={newest} is {arrow} trailing median "
                      f"{baseline} beyond tolerance ±{allowed:.4g} "
                      f"({len(prior)} prior runs)")


def regress_run(ledger: RunLedger, run_id: str) -> Tuple[int, List[str]]:
    """Judge ``run_id`` against the trailing median of its own series.

    A series is every earlier record sharing the run's config fingerprint
    and mode — the ledger analogue of ``check_trend``'s context fields.
    Returns ``(exit_status, report_lines)``: status 1 on a hard failure,
    0 otherwise (advisory findings never fail, matching the CI gate).
    """
    newest = ledger.load(run_id)
    if newest is None:
        return 2, [f"run {run_id} not found in ledger"]
    series = [record for record in ledger.runs()
              if record.fingerprint == newest.fingerprint
              and record.mode == newest.mode
              and (record.unix_time, record.run_id)
              < (newest.unix_time, newest.run_id)]
    name = (f"{newest.benchmark}/{newest.technique}"
            f"[{newest.mode},{newest.fingerprint[:8]}]")
    lines = [f"run {newest.run_id[:12]} vs {len(series)} prior run(s) "
             f"in series {name}"]
    prior_digests = {record.report_digest for record in series}
    if series and newest.report_digest not in prior_digests:
        lines.append("note: report digest differs from every prior run in "
                     "the series (module content may have changed)")
    failed = False
    for metric in sorted(RUN_REGRESS_POLICIES):
        policy = RUN_REGRESS_POLICIES[metric]
        value = getattr(newest, metric, None)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        prior = [getattr(record, metric) for record in series
                 if isinstance(getattr(record, metric, None), (int, float))]
        severity, message = _judge(metric, policy, float(value), prior, name)
        lines.append(f"{severity.upper():<4} {message}")
        failed = failed or severity == "fail"
    return (1 if failed else 0), lines


# ---------------------------------------------------------------------------
# Diff: digest parity, phase deltas, reason drift, verdict flips.
# ---------------------------------------------------------------------------

def diff_runs(ledger: RunLedger, first_id: str,
              second_id: str) -> Tuple[int, List[str]]:
    """Compare two ledger records; ``(exit_status, report_lines)``.

    Status 0 when the report digests match (results identical), 1 when they
    differ, 2 when a record cannot be loaded.  Verdict-flip analysis reuses
    ``repro-explain``'s :func:`~repro.obs.explain.diff_logs` over the two
    runs' durable event sinks when both recorded one.
    """
    first = ledger.load(first_id)
    second = ledger.load(second_id)
    if first is None or second is None:
        missing = first_id if first is None else second_id
        return 2, [f"run {missing} not found in ledger"]
    match = first.report_digest == second.report_digest \
        and first.report_digest is not None
    lines = [f"{first.run_id[:12]} ({first.mode}, {first.benchmark}/"
             f"{first.technique}) vs {second.run_id[:12]} ({second.mode}, "
             f"{second.benchmark}/{second.technique})",
             f"report digest match: {match}"
             + ("" if match else f"  ({str(first.report_digest)[:12]} vs "
                                 f"{str(second.report_digest)[:12]})")]
    if first.fingerprint != second.fingerprint:
        lines.append("note: configurations differ "
                     f"({first.fingerprint[:8]} vs {second.fingerprint[:8]})")

    lines.append("phase timings (seconds, first -> second):")
    for phase in sorted(set(first.phase_seconds) | set(second.phase_seconds)):
        a = first.phase_seconds.get(phase, 0.0)
        b = second.phase_seconds.get(phase, 0.0)
        lines.append(f"  {phase:<28} {a:9.4f} -> {b:9.4f}  "
                     f"({b - a:+9.4f})")

    drift = {reason for reason
             in set(first.reason_codes) | set(second.reason_codes)
             if first.reason_codes.get(reason, 0)
             != second.reason_codes.get(reason, 0)}
    if drift:
        lines.append("reason-code drift:")
        for reason in sorted(drift):
            lines.append(f"  {reason:<28} "
                         f"{first.reason_codes.get(reason, 0):>6} -> "
                         f"{second.reason_codes.get(reason, 0):>6}")
    else:
        lines.append("reason-code histograms identical")

    sinks = (first.events_sink, second.events_sink)
    if all(sink is not None and Path(sink).exists() for sink in sinks):
        from .explain import diff_logs
        from .sink import load_events_path
        try:
            ours = load_events_path(sinks[0])
            theirs = load_events_path(sinks[1])
        except (OSError, ValueError) as error:
            lines.append(f"verdict flips: event history unreadable ({error})")
        else:
            delta = diff_logs(ours, theirs)
            lines.append(f"verdict flips: {len(delta['changed'])} changed, "
                         f"{len(delta['only_ours'])} only first, "
                         f"{len(delta['only_theirs'])} only second")
            for key, a, b in delta["changed"]:
                lines.append(f"  {key[0]} , {key[1]}: "
                             f"{a.data.get('reason')} -> "
                             f"{b.data.get('reason')}")
    else:
        lines.append("verdict flips: unavailable (a run has no durable "
                     "event sink on disk)")
    return (0 if match else 1), lines


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _format_row(record: RunRecord) -> str:
    stamp = time.strftime("%Y-%m-%d %H:%M:%S",
                          time.localtime(record.unix_time)) \
        if record.unix_time else "?"
    digest = (record.report_digest or "-")[:10]
    return (f"{record.run_id[:12]}  {stamp}  {record.benchmark:<16} "
            f"{record.technique:<7} {record.mode:<11} {digest:<10} "
            f"{record.reduction_percent:6.2f}% {record.merge_seconds:8.3f}s")


def _cmd_list(ledger: RunLedger, args) -> int:
    records = ledger.runs()
    if args.benchmark:
        records = [r for r in records if r.benchmark == args.benchmark]
    if args.technique:
        records = [r for r in records if r.technique == args.technique]
    print(f"{'run id':<12}  {'recorded':<19}  {'benchmark':<16} "
          f"{'tech':<7} {'mode':<11} {'digest':<10} "
          f"{'reduct':>7} {'merge':>9}")
    for record in records:
        print(_format_row(record))
    if not records:
        print("(no runs matched)")
    return 0


def _cmd_show(ledger: RunLedger, args) -> int:
    run_id = ledger.resolve(args.run) or args.run
    record = ledger.load(run_id)
    if record is None:
        print(f"run {args.run} not found in ledger", file=sys.stderr)
        return 2
    print(json.dumps(record.as_payload(), indent=2, sort_keys=True))
    return 0


def _cmd_diff(ledger: RunLedger, args) -> int:
    first = ledger.resolve(args.first) or args.first
    second = ledger.resolve(args.second) or args.second
    status, lines = diff_runs(ledger, first, second)
    print("\n".join(lines))
    return status


def _cmd_regress(ledger: RunLedger, args) -> int:
    run_id = ledger.resolve(args.run) or args.run
    status, lines = regress_run(ledger, run_id)
    print("\n".join(lines))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-runs",
        description="Query the durable run ledger (see docs/runs.md).")
    parser.add_argument("--store", required=True,
                        help="artifact-store root the ledger lives in")
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser("list", help="list recorded runs")
    list_parser.add_argument("--benchmark", help="filter by benchmark name")
    list_parser.add_argument("--technique", help="filter by technique")
    list_parser.set_defaults(handler=_cmd_list)

    show_parser = commands.add_parser("show", help="dump one run record")
    show_parser.add_argument("run", help="run id (unique prefix accepted)")
    show_parser.set_defaults(handler=_cmd_show)

    diff_parser = commands.add_parser(
        "diff", help="compare two runs: digest parity, phase deltas, "
                     "reason drift, verdict flips")
    diff_parser.add_argument("first", help="run id (unique prefix accepted)")
    diff_parser.add_argument("second", help="run id (unique prefix accepted)")
    diff_parser.set_defaults(handler=_cmd_diff)

    regress_parser = commands.add_parser(
        "regress", help="judge a run against the trailing median of its "
                        "configuration series")
    regress_parser.add_argument("run",
                                help="run id (unique prefix accepted)")
    regress_parser.set_defaults(handler=_cmd_regress)

    args = parser.parse_args(argv)
    from ..persist import ArtifactStore
    ledger = RunLedger(ArtifactStore(args.store))
    return args.handler(ledger, args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
