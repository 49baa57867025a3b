"""repro.obs — the pipeline's unified observability spine.

One :class:`MetricsRegistry` per run holds every counter, gauge, histogram
and timer the pipeline records, a phase-scoped span trace (wall-clock,
nesting, per-phase peak memory), and exports the lot as Prometheus text
exposition or a JSON snapshot.  The existing per-subsystem stats dataclasses
(``SearchStats`` / ``AnalysisStats`` / ``StoreStats`` /
``IncrementalStats``) stay as the stable views callers already use; the
adapters here fold them into the registry so one endpoint can be scraped
instead of four counter bags.

See ``docs/observability.md`` for the registry API, the span taxonomy and
the trend-gate workflow.
"""

from .registry import (
    DEFAULT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    PHASE_ALLOC_GAUGE,
    PHASE_TIMER,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    Timer,
    as_registry,
    maybe_span,
)
from .trace import SpanRecord, format_trace
from .export import (
    SNAPSHOT_SCHEMA,
    merge_snapshot_into,
    parse_prometheus_text,
    registry_snapshot,
    to_prometheus_text,
)
from .events import (
    EVENT_SCHEMA,
    REASON_CODES,
    Event,
    EventLog,
    as_event_log,
    attach_events,
)
from .http import ObsHTTPServer, serve_metrics
from .sink import (
    SINK_SCHEMA,
    EventSink,
    RotatingSink,
    load_events_path,
    read_sink_events,
    replay_records,
)
from .runs import (
    RUN_KIND,
    RUN_SCHEMA,
    RunLedger,
    RunRecord,
    attach_run_ledger,
    record_pipeline_run,
)
from .adapters import (
    attach_all,
    observe_analysis_stats,
    observe_incremental_stats,
    observe_merge_report,
    observe_pipeline_result,
    observe_search_stats,
    observe_store_stats,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "EVENT_SCHEMA",
    "PHASE_ALLOC_GAUGE",
    "PHASE_TIMER",
    "REASON_CODES",
    "RUN_KIND",
    "RUN_SCHEMA",
    "SINK_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "Counter",
    "Event",
    "EventLog",
    "EventSink",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "ObsHTTPServer",
    "RotatingSink",
    "RunLedger",
    "RunRecord",
    "SpanRecord",
    "Timer",
    "as_event_log",
    "as_registry",
    "attach_all",
    "attach_events",
    "attach_run_ledger",
    "load_events_path",
    "read_sink_events",
    "record_pipeline_run",
    "replay_records",
    "format_trace",
    "maybe_span",
    "merge_snapshot_into",
    "parse_prometheus_text",
    "observe_analysis_stats",
    "observe_incremental_stats",
    "observe_merge_report",
    "observe_pipeline_result",
    "observe_search_stats",
    "observe_store_stats",
    "registry_snapshot",
    "serve_metrics",
    "to_prometheus_text",
]
