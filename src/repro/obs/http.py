"""A stdlib HTTP exposition endpoint over a live registry + event log.

One :class:`ObsHTTPServer` wraps a :class:`~repro.obs.MetricsRegistry` (and the
flight recorder attached to it) and serves the run's telemetry while the
pipeline is still mutating it:

* ``GET /metrics`` — Prometheus text exposition (what a scraper polls);
* ``GET /snapshot.json`` — the full JSON snapshot (families, spans, events);
* ``GET /events.jsonl`` — the flight recorder as schema-versioned JSONL,
  ready for ``python -m repro.obs.explain``.  With a durable sink attached
  to the log, the *full* disk-backed history is served — every event the
  ring evicted included (see :meth:`~repro.obs.EventLog.history_jsonl`);
* ``GET /runs`` — the attached run ledger as a JSON index (id, benchmark,
  technique, mode, report digest, headline numbers per recorded run);
* ``GET /runs/<id>.json`` — one full :class:`~repro.obs.RunRecord`
  (unique id prefixes accepted);
* ``GET /healthz`` — liveness probe (``ok``).

Built on ``http.server.ThreadingHTTPServer`` only — no dependencies — and
safe against concurrent mutation: the registry's family/child structures
are lock-guarded (see :mod:`repro.obs.registry`), so a scrape mid-run sees
a consistent family list with whatever counter values were current.

Typical wiring::

    registry = MetricsRegistry()
    attach_events(registry, True)
    with ObsHTTPServer(registry) as server:
        print("serving on", server.url)
        run_pipeline(module, "bench", metrics=registry)
        ...  # scrape while the run is in flight

The server binds ``127.0.0.1`` on an ephemeral port by default; pass
``port=`` to pin one.  ``start()`` runs the serve loop on a daemon thread,
so a crashed pipeline never hangs on a lingering endpoint.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from .events import EventLog
from .registry import MetricsRegistry

#: Content type Prometheus scrapers expect from a text exposition endpoint.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

ROUTES = ("/metrics", "/snapshot.json", "/events.jsonl", "/runs",
          "/runs/<id>.json", "/healthz")


class _ObsRequestHandler(BaseHTTPRequestHandler):
    """Routes the read-only endpoints; everything else is 404."""

    server: "ObsHTTPServer"

    # Serving telemetry must never spam the pipeline's stdout.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _respond(self, body: str, content_type: str, status: int = 200) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        path = self.path.split("?", 1)[0]
        try:
            if path == "/healthz":
                self._respond("ok\n", "text/plain; charset=utf-8")
            elif path == "/metrics":
                self._respond(self.server.registry.to_prometheus(),
                              PROMETHEUS_CONTENT_TYPE)
            elif path == "/snapshot.json":
                self._respond(
                    json.dumps(self.server.registry.snapshot(),
                               sort_keys=True),
                    "application/json; charset=utf-8")
            elif path == "/events.jsonl":
                events = self.server.event_log
                if events is None:
                    self._respond("no event log attached\n",
                                  "text/plain; charset=utf-8", status=404)
                else:
                    # history_jsonl prefers the durable sink: once the ring
                    # has dropped, the endpoint still serves every event.
                    self._respond(events.history_jsonl(),
                                  "application/x-ndjson; charset=utf-8")
            elif path == "/runs":
                self._respond_runs_index()
            elif path.startswith("/runs/") and path.endswith(".json"):
                self._respond_run(path[len("/runs/"):-len(".json")])
            else:
                self._respond(f"unknown path {path!r}; routes: "
                              f"{', '.join(ROUTES)}\n",
                              "text/plain; charset=utf-8", status=404)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    def _respond_runs_index(self) -> None:
        ledger = self.server.run_ledger
        if ledger is None:
            self._respond("no run ledger attached\n",
                          "text/plain; charset=utf-8", status=404)
            return
        index = [{
            "run_id": record.run_id,
            "unix_time": record.unix_time,
            "benchmark": record.benchmark,
            "technique": record.technique,
            "mode": record.mode,
            "report_digest": record.report_digest,
            "reduction_percent": record.reduction_percent,
            "merge_seconds": record.merge_seconds,
        } for record in ledger.runs()]
        self._respond(json.dumps({"runs": index}, sort_keys=True),
                      "application/json; charset=utf-8")

    def _respond_run(self, run_id: str) -> None:
        ledger = self.server.run_ledger
        if ledger is None:
            self._respond("no run ledger attached\n",
                          "text/plain; charset=utf-8", status=404)
            return
        record = ledger.load(ledger.resolve(run_id) or run_id)
        if record is None:
            self._respond(f"run {run_id!r} not found\n",
                          "text/plain; charset=utf-8", status=404)
            return
        self._respond(json.dumps(record.as_payload(), sort_keys=True),
                      "application/json; charset=utf-8")


class ObsHTTPServer(ThreadingHTTPServer):
    """Serve one registry (+ attached event log and run ledger) over HTTP.

    ``events`` defaults to whatever log :func:`repro.obs.attach_events`
    attached to the registry; pass one explicitly to serve a standalone log.
    ``runs`` likewise defaults to the ledger
    :func:`repro.obs.attach_run_ledger` attached to the registry.
    """

    daemon_threads = True

    def __init__(self, registry: MetricsRegistry,
                 events: Optional[EventLog] = None,
                 runs=None,
                 host: str = "127.0.0.1", port: int = 0,
                 start: bool = True) -> None:
        self.registry = registry
        self._events = events
        self._runs = runs
        self._thread: Optional[threading.Thread] = None
        super().__init__((host, port), _ObsRequestHandler)
        if start:
            self.start()

    @property
    def event_log(self) -> Optional[EventLog]:
        if self._events is not None:
            return self._events
        return getattr(self.registry, "events", None)

    @property
    def run_ledger(self):
        """The served :class:`~repro.obs.RunLedger` (explicit or attached)."""
        if self._runs is not None:
            return self._runs
        return getattr(self.registry, "run_ledger", None)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.port}"

    def start(self) -> None:
        """Run the serve loop on a daemon thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(target=self.serve_forever,
                                            name="repro-obs-http",
                                            daemon=True)
            self._thread.start()

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self.server_close()

    def __enter__(self) -> "ObsHTTPServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve_metrics(registry: MetricsRegistry,
                  events: Optional[EventLog] = None,
                  runs=None,
                  host: str = "127.0.0.1", port: int = 0) -> ObsHTTPServer:
    """Start (and return) an :class:`ObsHTTPServer` for ``registry``."""
    return ObsHTTPServer(registry, events=events, runs=runs, host=host,
                         port=port)
