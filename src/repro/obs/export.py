"""Exporters: Prometheus text exposition and JSON snapshots.

Two renderings of one :class:`~repro.obs.MetricsRegistry`:

* :func:`to_prometheus_text` — the `text exposition format
  <https://prometheus.io/docs/instrumenting/exposition_formats/>`_ a scrape
  endpoint serves (``# HELP`` / ``# TYPE`` headers, cumulative ``_bucket``
  series for histograms).  Timers export as histograms of seconds, matching
  the ``_seconds`` naming convention their families already follow.
* :func:`registry_snapshot` / :func:`merge_snapshot_into` — a JSON-safe
  snapshot of every family, sample and span, and its inverse fold.  This is
  what ``PipelineResult.metrics.snapshot()`` hands to anything that wants
  the run's telemetry as data (the HTTP endpoint, the trend tooling,
  tests).

Both renderings are deterministic: families sort by name, samples by label
values, so identical registries export identical bytes.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Tuple

#: Version tag of the snapshot envelope; bump on incompatible shape changes
#: so a parent never mis-folds a snapshot from a different code version.
SNAPSHOT_SCHEMA = 1


def _format_value(value: float) -> str:
    """Prometheus sample-value rendering: integers stay integral."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _render_labels(names, values, extra: str = "") -> str:
    parts = [f'{name}="{_escape_label_value(value)}"'
             for name, value in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def to_prometheus_text(registry) -> str:
    """Render ``registry`` in Prometheus text exposition format."""
    lines: List[str] = []
    for family in registry.families():
        exposition_kind = "histogram" if family.kind == "timer" else family.kind
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {exposition_kind}")
        for values, child in family.samples():
            if family.kind in ("counter", "gauge"):
                labels = _render_labels(family.label_names, values)
                lines.append(f"{family.name}{labels} "
                             f"{_format_value(child.value)}")
                continue
            for bound, cumulative in child.cumulative_buckets():
                le = "+Inf" if bound == math.inf else _format_value(bound)
                labels = _render_labels(family.label_names, values,
                                        extra=f'le="{le}"')
                lines.append(f"{family.name}_bucket{labels} {cumulative}")
            labels = _render_labels(family.label_names, values)
            lines.append(f"{family.name}_sum{labels} "
                         f"{_format_value(child.sum)}")
            lines.append(f"{family.name}_count{labels} {child.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def registry_snapshot(registry) -> Dict[str, Any]:
    """A JSON-serialisable snapshot of every family, sample and span."""
    families = []
    for family in registry.families():
        families.append({
            "name": family.name,
            "kind": family.kind,
            "help": family.help,
            "label_names": list(family.label_names),
            "buckets": list(family.buckets)
            if family.buckets is not None else None,
            "merge_mode": family.merge_mode,
            "samples": [{"labels": list(values), **child._sample()}
                        for values, child in family.samples()],
        })
    snapshot = {
        "schema": SNAPSHOT_SCHEMA,
        "metrics": families,
        "spans": [record.as_dict() for record in registry.trace],
    }
    events = getattr(registry, "events", None)
    if events is not None:
        # The flight recorder rides the same wire format and folds back
        # exactly like the metric families above.
        snapshot["events"] = events.as_payload()
    return snapshot


def merge_snapshot_into(registry, snapshot: Dict[str, Any]) -> None:
    """Fold a :func:`registry_snapshot` into ``registry`` (deterministic).

    The inverse of :func:`registry_snapshot` up to merging: restoring a
    snapshot into a fresh registry reproduces it exactly; restoring into a
    populated one merges like :meth:`~repro.obs.MetricsRegistry.merge`.
    Snapshots from an incompatible schema raise — a registry must never
    silently mis-fold another version's telemetry.
    """
    from .trace import SpanRecord

    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(f"unsupported metrics snapshot schema "
                         f"{snapshot.get('schema')!r} "
                         f"(expected {SNAPSHOT_SCHEMA})")
    for entry in snapshot.get("metrics", ()):
        family = registry.family(
            entry["name"], entry["kind"], help=entry.get("help", ""),
            label_names=entry.get("label_names", ()),
            buckets=entry.get("buckets"),
            merge_mode=entry.get("merge_mode", "max"))
        for sample in entry.get("samples", ()):
            labels = dict(zip(family.label_names, sample["labels"]))
            family.labels(**labels)._restore(sample)
    base = len(registry.trace)
    for position, span in enumerate(snapshot.get("spans", ())):
        registry.trace.append(SpanRecord(
            name=span["name"], path=tuple(span["path"]),
            depth=int(span["depth"]), start=float(span["start"]),
            seconds=float(span["seconds"]),
            peak_bytes=int(span["peak_bytes"]), index=base + position,
            alloc_bytes=int(span.get("alloc_bytes", 0))))
    events = getattr(registry, "events", None)
    if events is not None and snapshot.get("events") is not None:
        events.merge_payload(snapshot["events"])


# ---------------------------------------------------------------------------
# Minimal exposition parser — the validation half of to_prometheus_text.
# ---------------------------------------------------------------------------

_SAMPLE_LINE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>.*)\})?'
    r'\s+(?P<value>\S+)$')
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(value: str) -> str:
    return value.replace(r"\n", "\n").replace(r'\"', '"').replace(r"\\", "\\")


def parse_prometheus_text(text: str
                          ) -> Tuple[Dict[str, str],
                                     List[Tuple[str, Dict[str, str], float]]]:
    """Parse text exposition into ``(types, samples)``; raise on malformed.

    A deliberately minimal Prometheus parser — ``# TYPE`` lines map metric
    name to kind, sample lines become ``(name, labels, value)`` triples with
    label values unescaped.  This is what the CI smoke step and the
    exposition tests validate a live ``/metrics`` response with; it accepts
    exactly the grammar :func:`to_prometheus_text` emits and raises
    ``ValueError`` on anything else.
    """
    types: Dict[str, str] = {}
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4:
                raise ValueError(f"line {number}: malformed TYPE: {line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            if not line.startswith("# HELP "):
                raise ValueError(f"line {number}: unknown comment: {line!r}")
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {number}: malformed sample: {line!r}")
        labels: Dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            consumed = 0
            for pair in _LABEL_PAIR.finditer(raw):
                labels[pair.group(1)] = _unescape_label_value(pair.group(2))
                consumed = pair.end()
                if consumed < len(raw) and raw[consumed] == ",":
                    consumed += 1
            if consumed != len(raw):
                raise ValueError(f"line {number}: malformed labels: {raw!r}")
        value_text = match.group("value")
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        elif value_text == "NaN":
            value = math.nan
        else:
            value = float(value_text)
        base = match.group("name")
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base[:-len(suffix)] in types:
                base = base[:-len(suffix)]
                break
        if base not in types:
            raise ValueError(f"line {number}: sample {match.group('name')!r} "
                             f"has no preceding TYPE line")
        samples.append((match.group("name"), labels, value))
    return types, samples
