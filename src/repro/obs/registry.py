"""The metrics registry: one home for every counter, gauge, histogram and
timer the pipeline records.

Before this package existed the pipeline's telemetry was ad-hoc counter bags
(``SearchStats`` / ``AnalysisStats`` / ``StoreStats``) stitched onto
:class:`~repro.harness.pipeline.PipelineResult`.  Those
dataclasses remain — they are the stable per-subsystem views existing callers
and tests consume — but a :class:`MetricsRegistry` attached to a run becomes
the single queryable spine behind them: the adapters in
:mod:`repro.obs.adapters` fold every stats object into labeled metric
families, phase-scoped spans (see :meth:`MetricsRegistry.span`) trace the
run's wall-clock and peak memory, and the exporters in
:mod:`repro.obs.export` render the whole registry as Prometheus text
exposition or a JSON snapshot.

Design constraints, in order:

* **Zero effect on results.**  Metrics only observe — attaching a registry
  must never change a merge decision, so reports are bit-identical with
  telemetry on or off (asserted by ``tests/obs/test_pipeline_metrics.py``).
* **Deterministic merge.**  Registries (or their JSON snapshots) fold into
  one another with :meth:`MetricsRegistry.merge` /
  :meth:`MetricsRegistry.merge_snapshot` exactly like the stats dataclasses
  combine: counters and histogram buckets sum, gauges combine under a
  declared mode, spans append in arrival order.
* **Cheap when absent.**  Every instrumented component guards on
  ``registry is None``; the hot paths pay one attribute test.
"""

from __future__ import annotations

import bisect
import re
import threading
import time
import tracemalloc
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .trace import SpanRecord, _SpanFrame

#: Prometheus metric / label name grammars — enforced at family creation so a
#: registry can always be exported without escaping surprises.
_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram boundaries for timers (seconds).  Spans from the merge
#: pipeline range from sub-millisecond store reads to multi-second merge
#: phases, so the ladder is log-spaced across that whole band.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

#: Default histogram boundaries for plain (unitless) histograms.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0)

#: The phase-timer family every span observes into (labeled by phase name).
PHASE_TIMER = "repro_phase_seconds"

#: The per-phase net-allocation gauge deep mode (``metrics="deep"``) sums
#: span allocation diffs into (labeled by phase name, merge mode "sum").
PHASE_ALLOC_GAUGE = "repro_phase_alloc_bytes"

#: Gauge merge modes: how two registries' samples of one gauge combine.
GAUGE_MERGE_MODES = ("sum", "max", "min", "last")


class Counter:
    """A monotonically increasing count (Prometheus ``counter``)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc by {amount})")
        self.value += amount

    def _merge(self, other: "Counter") -> None:
        self.value += other.value

    def _sample(self) -> Dict[str, Any]:
        return {"value": self.value}

    def _restore(self, sample: Dict[str, Any]) -> None:
        self.inc(float(sample["value"]))


class Gauge:
    """A value that can go up and down (Prometheus ``gauge``).

    ``merge_mode`` declares how samples from two registries combine (a
    question Prometheus never faces but registry merging does):
    ``"sum"`` for additive quantities (queue depths), ``"max"``/``"min"`` for
    watermarks (peak sizes, ratios) and ``"last"`` for
    latest-writer-wins.  An untouched gauge never perturbs a merge.
    """

    __slots__ = ("value", "merge_mode", "touched")

    def __init__(self, merge_mode: str = "max") -> None:
        if merge_mode not in GAUGE_MERGE_MODES:
            raise ValueError(f"unknown gauge merge mode {merge_mode!r}; "
                             f"one of {', '.join(GAUGE_MERGE_MODES)}")
        self.value: float = 0.0
        self.merge_mode = merge_mode
        self.touched = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self.touched = True

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount
        self.touched = True

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def _merge(self, other: "Gauge") -> None:
        if not other.touched:
            return
        if not self.touched:
            self.set(other.value)
        elif self.merge_mode == "sum":
            self.set(self.value + other.value)
        elif self.merge_mode == "max":
            self.set(max(self.value, other.value))
        elif self.merge_mode == "min":
            self.set(min(self.value, other.value))
        else:  # "last"
            self.set(other.value)

    def _sample(self) -> Dict[str, Any]:
        return {"value": self.value, "touched": self.touched}

    def _restore(self, sample: Dict[str, Any]) -> None:
        shadow = Gauge(self.merge_mode)
        if sample.get("touched"):
            shadow.set(float(sample["value"]))
        self._merge(shadow)


class Histogram:
    """A distribution of observations over fixed boundaries.

    ``bounds`` are the *upper* bucket boundaries (the implicit ``+Inf``
    bucket is always appended); counts are kept per bucket (non-cumulative)
    and accumulated on export, matching Prometheus exposition semantics.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        ordered = tuple(float(bound) for bound in bounds)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ValueError(f"histogram bounds must be sorted and unique: "
                             f"{bounds!r}")
        self.bounds = ordered
        self.bucket_counts: List[int] = [0] * (len(ordered) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def _merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds: "
                             f"{self.bounds!r} vs {other.bounds!r}")
        for position, bucket_count in enumerate(other.bucket_counts):
            self.bucket_counts[position] += bucket_count
        self.sum += other.sum
        self.count += other.count

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(le, cumulative count)`` pairs, ending with ``(+Inf, count)``."""
        pairs: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            running += bucket_count
            pairs.append((bound, running))
        pairs.append((float("inf"), self.count))
        return pairs

    def _sample(self) -> Dict[str, Any]:
        return {"buckets": list(self.bucket_counts), "sum": self.sum,
                "count": self.count, "bounds": list(self.bounds)}

    def _restore(self, sample: Dict[str, Any]) -> None:
        shadow = Histogram(self.bounds)
        bounds = sample.get("bounds")
        if bounds is not None \
                and tuple(float(bound) for bound in bounds) != self.bounds:
            # Same-length ladders with different boundary values would fold
            # counts into the wrong buckets without this check (e.g. a
            # snapshot written under other default bounds).  Fail loudly.
            raise ValueError(
                f"snapshot histogram bounds {tuple(bounds)!r} do not match "
                f"the receiving family's bounds {self.bounds!r}")
        buckets = list(sample["buckets"])
        if len(buckets) != len(shadow.bucket_counts):
            raise ValueError("snapshot bucket count does not match bounds")
        shadow.bucket_counts = [int(bucket) for bucket in buckets]
        shadow.sum = float(sample["sum"])
        shadow.count = int(sample["count"])
        self._merge(shadow)


class Timer(Histogram):
    """A histogram of durations in seconds, with a timing context manager."""

    __slots__ = ()

    def __init__(self, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        super().__init__(bounds)

    @contextmanager
    def time(self) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - started)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram,
          "timer": Timer}


class MetricFamily:
    """All samples of one metric name: one child per label-value tuple."""

    def __init__(self, name: str, kind: str, help: str = "",
                 label_names: Sequence[str] = (),
                 buckets: Optional[Sequence[float]] = None,
                 merge_mode: str = "max") -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_NAME.match(label):
                raise ValueError(f"invalid label name {label!r} on {name!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets) if buckets is not None else None
        self.merge_mode = merge_mode
        self._children: Dict[Tuple[str, ...], Any] = {}
        # Guards child creation and enumeration: a live exposition endpoint
        # scrapes while the pipeline inserts new label sets concurrently.
        self._lock = threading.RLock()

    def _make_child(self) -> Any:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge(self.merge_mode)
        if self.kind == "timer":
            return Timer(self.buckets or DEFAULT_TIME_BUCKETS)
        return Histogram(self.buckets or DEFAULT_BUCKETS)

    def labels(self, **labels: Any) -> Any:
        """The child metric for one label-value assignment (created lazily)."""
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"({', '.join(self.label_names) or 'none'}), "
                f"got ({', '.join(sorted(labels))})")
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._make_child()
        return child

    def samples(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """``(label values, child)`` pairs in sorted label order."""
        with self._lock:
            return sorted(self._children.items())

    def _compatible(self, other: "MetricFamily") -> bool:
        return (self.kind == other.kind
                and self.label_names == other.label_names
                and self.buckets == other.buckets
                and self.merge_mode == other.merge_mode)


class MetricsRegistry:
    """Metric families plus a span trace for one run (or a merged set).

    ``trace_memory=True`` makes spans record per-phase peak memory via
    ``tracemalloc`` (starting it if nothing else has; noticeably slower —
    off by default).  When ``tracemalloc`` is already tracing on someone
    else's behalf (e.g. :func:`repro.harness.metrics.measure_peak_memory`),
    spans report the global peak without ever resetting it, so the outer
    measurement is never clobbered.

    ``deep=True`` (implies ``trace_memory``; ``metrics="deep"`` at the
    pipeline level) additionally diffs the traced byte count across every
    span, attributing *net allocation* to phases: each
    :class:`~repro.obs.trace.SpanRecord` carries ``alloc_bytes`` and the
    ``repro_phase_alloc_bytes{phase}`` gauge family sums them.  Same
    external-tracer guard as the peak: an already-running ``tracemalloc``
    is read, never reset or stopped.
    """

    def __init__(self, trace_memory: bool = False,
                 deep: bool = False) -> None:
        self._families: Dict[str, MetricFamily] = {}
        #: Completed spans in completion order (see :mod:`repro.obs.trace`).
        self.trace: List[SpanRecord] = []
        #: Optional flight recorder (see :func:`repro.obs.events.attach_events`).
        self.events = None
        #: Optional durable run ledger (see
        #: :func:`repro.obs.runs.attach_run_ledger`): when attached, the
        #: pipeline entry points record one RunRecord per invocation.
        self.run_ledger = None
        self._span_stack: List[_SpanFrame] = []
        self._epoch = time.perf_counter()
        # Guards family creation/enumeration against concurrent scrapes.
        self._lock = threading.RLock()
        self.deep = deep
        self._owns_tracemalloc = False
        if (trace_memory or deep) and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop ``tracemalloc`` if this registry started it (idempotent)."""
        if self._owns_tracemalloc:
            tracemalloc.stop()
            self._owns_tracemalloc = False

    # -------------------------------------------------------------- families
    def family(self, name: str, kind: str, help: str = "",
               label_names: Sequence[str] = (),
               buckets: Optional[Sequence[float]] = None,
               merge_mode: str = "max") -> MetricFamily:
        """Get or declare the family for ``name``; re-declarations must agree."""
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = MetricFamily(name, kind, help=help,
                                          label_names=label_names,
                                          buckets=buckets,
                                          merge_mode=merge_mode)
                    self._families[name] = family
                    return family
        probe = MetricFamily(name, kind, help=help, label_names=label_names,
                             buckets=buckets, merge_mode=merge_mode)
        if not family._compatible(probe):
            raise ValueError(f"metric {name!r} re-declared incompatibly "
                             f"(was {family.kind} with labels "
                             f"{family.label_names})")
        if help and not family.help:
            family.help = help
        return family

    def families(self) -> List[MetricFamily]:
        """Every declared family, sorted by name."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------ primitives
    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        """The counter child for ``name`` under the given label values."""
        return self.family(name, "counter", help=help,
                           label_names=sorted(labels)).labels(**labels)

    def gauge(self, name: str, help: str = "", merge_mode: str = "max",
              **labels: Any) -> Gauge:
        """The gauge child for ``name`` under the given label values."""
        return self.family(name, "gauge", help=help, label_names=sorted(labels),
                           merge_mode=merge_mode).labels(**labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None,
                  **labels: Any) -> Histogram:
        """The histogram child for ``name`` under the given label values."""
        return self.family(name, "histogram", help=help,
                           label_names=sorted(labels),
                           buckets=buckets).labels(**labels)

    def timer(self, name: str, help: str = "",
              buckets: Optional[Sequence[float]] = None,
              **labels: Any) -> Timer:
        """The timer child for ``name`` under the given label values."""
        return self.family(name, "timer", help=help,
                           label_names=sorted(labels),
                           buckets=buckets).labels(**labels)

    # ----------------------------------------------------------------- spans
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Trace one named phase: wall-clock, nesting and peak memory.

        Spans nest (``with registry.span("merge"): ... span("merge.rank")``);
        each completed span appends a :class:`~repro.obs.trace.SpanRecord` to
        :attr:`trace` and observes its duration into the
        :data:`PHASE_TIMER` family labeled with the span name, so per-phase
        totals are queryable both as a trace and as plain metrics.

        Peak memory is recorded only while ``tracemalloc`` traces.  When this
        registry owns the tracing (``trace_memory=True``) the peak is reset
        after every span, giving true per-phase peaks; when tracing belongs
        to someone else the global peak is reported untouched (monotone
        within the run) so outer measurements stay intact.  Child peaks
        always propagate to enclosing spans.
        """
        parent = self._span_stack[-1] if self._span_stack else None
        frame = _SpanFrame(
            name=name,
            path=(parent.path + (name,)) if parent is not None else (name,))
        self._span_stack.append(frame)
        alloc_start = None
        if self.deep and tracemalloc.is_tracing():
            alloc_start = tracemalloc.get_traced_memory()[0]
        started = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - started
            self._span_stack.pop()
            alloc_bytes = 0
            if tracemalloc.is_tracing():
                current_now, peak_now = tracemalloc.get_traced_memory()
                frame.peak_bytes = max(frame.peak_bytes, peak_now)
                if alloc_start is not None:
                    # Net allocation attributed to this phase (children
                    # included, like the peak); negative means the phase
                    # freed more than it allocated.
                    alloc_bytes = current_now - alloc_start
                if self._owns_tracemalloc:
                    tracemalloc.reset_peak()
            if parent is not None:
                parent.peak_bytes = max(parent.peak_bytes, frame.peak_bytes)
            self.trace.append(SpanRecord(
                name=name, path=frame.path, depth=len(frame.path) - 1,
                start=started - self._epoch, seconds=seconds,
                peak_bytes=frame.peak_bytes, index=len(self.trace),
                alloc_bytes=alloc_bytes))
            self.timer(PHASE_TIMER,
                       help="Wall-clock of one traced pipeline phase.",
                       phase=name).observe(seconds)
            if alloc_start is not None:
                self.gauge(PHASE_ALLOC_GAUGE,
                           help="Net traced allocation attributed to one "
                                "phase (deep mode only; sums across spans).",
                           merge_mode="sum", phase=name).inc(alloc_bytes)

    def phase_records(self, name: str) -> List[SpanRecord]:
        """Completed spans named ``name``, in completion order."""
        return [record for record in self.trace if record.name == name]

    def phase_seconds(self, name: str) -> float:
        """Total wall-clock across all completed spans named ``name``."""
        return sum(record.seconds for record in self.phase_records(name))

    # ----------------------------------------------------------------- merge
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (in place) and return self.

        Deterministic: families merge by sorted name, children by sorted
        label values (counters/histograms sum, gauges combine under their
        merge mode) and ``other``'s trace appends in its completion order
        with re-based indices.  Merging the same registries in the same
        order always yields the same result.
        """
        for name in sorted(other._families):
            theirs = other._families[name]
            mine = self.family(name, theirs.kind, help=theirs.help,
                               label_names=theirs.label_names,
                               buckets=theirs.buckets,
                               merge_mode=theirs.merge_mode)
            for key, child in theirs.samples():
                labels = dict(zip(theirs.label_names, key))
                mine.labels(**labels)._merge(child)
        base = len(self.trace)
        for record in other.trace:
            self.trace.append(SpanRecord(
                name=record.name, path=record.path, depth=record.depth,
                start=record.start, seconds=record.seconds,
                peak_bytes=record.peak_bytes, index=base + record.index,
                alloc_bytes=record.alloc_bytes))
        if self.events is not None and getattr(other, "events", None) is not None:
            self.events.merge(other.events)
        return self

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, Any]:
        """A plain-data (JSON-serialisable) snapshot of the whole registry."""
        from .export import registry_snapshot

        return registry_snapshot(self)

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> "MetricsRegistry":
        """Fold a :meth:`snapshot` (e.g. read back from a sink) into self."""
        from .export import merge_snapshot_into

        merge_snapshot_into(self, snapshot)
        return self

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        from .export import to_prometheus_text

        return to_prometheus_text(self)


def as_registry(metrics) -> Optional[MetricsRegistry]:
    """Normalise a ``metrics=`` argument: None stays None (telemetry off),
    ``True`` creates a fresh registry, ``"deep"`` creates one with per-span
    ``tracemalloc`` allocation attribution, a registry passes through."""
    if metrics is None or isinstance(metrics, MetricsRegistry):
        return metrics
    if metrics is True:
        return MetricsRegistry()
    if metrics == "deep":
        return MetricsRegistry(trace_memory=True, deep=True)
    raise TypeError(f"metrics must be None, True, \"deep\" or a "
                    f"MetricsRegistry, got {type(metrics).__name__}")


@contextmanager
def maybe_span(registry: Optional[MetricsRegistry], name: str) -> Iterator[None]:
    """``registry.span(name)`` when a registry is attached, else a no-op —
    the guard every instrumented phase uses so telemetry-off costs nothing."""
    if registry is None:
        yield
    else:
        with registry.span(name):
            yield
