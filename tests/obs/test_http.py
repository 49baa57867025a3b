"""The live exposition endpoint and the minimal Prometheus parser."""

import json
import math
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    EventLog,
    MetricsRegistry,
    ObsHTTPServer,
    attach_events,
    parse_prometheus_text,
    serve_metrics,
)


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=5) as response:
        return response.status, response.headers.get("Content-Type"), \
            response.read().decode("utf-8")


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    attach_events(registry, True)
    registry.counter("repro_test_total", op="run").inc(3)
    registry.events.emit("decision", pair="f,g")
    return registry


class TestRoutes:
    def test_healthz(self, registry):
        with ObsHTTPServer(registry) as server:
            status, _, body = _get(server, "/healthz")
        assert (status, body) == (200, "ok\n")

    def test_metrics_serves_parsable_exposition(self, registry):
        with ObsHTTPServer(registry) as server:
            status, content_type, body = _get(server, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        types, samples = parse_prometheus_text(body)
        assert types["repro_test_total"] == "counter"
        assert ("repro_test_total", {"op": "run"}, 3.0) in samples

    def test_snapshot_json(self, registry):
        with ObsHTTPServer(registry) as server:
            status, content_type, body = _get(server, "/snapshot.json")
        assert status == 200
        assert content_type.startswith("application/json")
        snapshot = json.loads(body)
        assert snapshot["schema"] == 1
        assert snapshot["events"]["events"][0]["kind"] == "decision"

    def test_events_jsonl(self, registry):
        with ObsHTTPServer(registry) as server:
            status, _, body = _get(server, "/events.jsonl")
        assert status == 200
        restored = EventLog.from_jsonl(body)
        assert restored.records("decision")[0].data == {"pair": "f,g"}

    def test_events_404_without_log(self):
        with ObsHTTPServer(MetricsRegistry()) as server:
            with pytest.raises(urllib.error.HTTPError) as failure:
                _get(server, "/events.jsonl")
        assert failure.value.code == 404

    def test_unknown_path_404(self, registry):
        with ObsHTTPServer(registry) as server:
            with pytest.raises(urllib.error.HTTPError) as failure:
                _get(server, "/nope")
        assert failure.value.code == 404

    def test_serve_metrics_helper_and_close_idempotent(self, registry):
        server = serve_metrics(registry)
        assert _get(server, "/healthz")[0] == 200
        server.close()
        server.close()


class TestConcurrentScrape:
    def test_scrapes_survive_a_mutating_registry(self, registry):
        """Scrapes racing live label-set creation must never error and must
        always return parsable exposition text."""
        # A small ring keeps each /events.jsonl serialization cheap and
        # overflows throughout the scrapes, so eviction races them too.
        attach_events(registry, EventLog(capacity=512))
        stop = threading.Event()
        errors = []

        def mutate():
            step = 0
            while not stop.is_set():
                registry.counter("repro_churn_total",
                                 op=f"op{step % 50}").inc()
                registry.timer("repro_churn_seconds",
                               phase=f"p{step % 20}").observe(0.001 * step)
                registry.events.emit("tick", step=step)
                step += 1

        writer = threading.Thread(target=mutate, daemon=True)
        with ObsHTTPServer(registry) as server:
            writer.start()
            try:
                for _ in range(8):
                    for path in ("/metrics", "/snapshot.json",
                                 "/events.jsonl"):
                        status, _, body = _get(server, path)
                        assert status == 200
                        try:
                            if path == "/metrics":
                                parse_prometheus_text(body)
                            elif path == "/snapshot.json":
                                json.loads(body)
                            else:
                                EventLog.from_jsonl(body)
                        except ValueError as error:
                            errors.append((path, error))
            finally:
                stop.set()
                writer.join(timeout=5)
        assert not errors
        assert registry.events.dropped > 0

    def test_ring_overflow_is_visible_in_metrics(self):
        registry = MetricsRegistry()
        attach_events(registry, EventLog(capacity=4))
        for step in range(10):
            registry.events.emit("tick", step=step)
        with ObsHTTPServer(registry) as server:
            _, _, metrics_body = _get(server, "/metrics")
            _, _, events_body = _get(server, "/events.jsonl")
        _, samples = parse_prometheus_text(metrics_body)
        assert ("repro_events_dropped_total", {}, 6.0) in samples
        restored = EventLog.from_jsonl(events_body)
        assert len(restored) == 4
        assert restored.dropped == 6
        # The surviving window is the most recent one.
        assert [event.data["step"] for event in restored] == [6, 7, 8, 9]


class TestLabelEscaping:
    AWKWARD = 'sp ace\\back"quote\nnewline'

    def test_label_values_round_trip_through_metrics(self):
        registry = MetricsRegistry()
        registry.counter("repro_escape_total", tag=self.AWKWARD).inc()
        with ObsHTTPServer(registry) as server:
            _, _, body = _get(server, "/metrics")
        _, samples = parse_prometheus_text(body)
        assert ("repro_escape_total", {"tag": self.AWKWARD}, 1.0) in samples

    def test_label_values_round_trip_through_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("repro_escape_total", tag=self.AWKWARD).inc(2)
        with ObsHTTPServer(registry) as server:
            _, _, body = _get(server, "/snapshot.json")
        snapshot = json.loads(body)
        restored = MetricsRegistry()
        restored.merge_snapshot(snapshot)
        child = restored.counter("repro_escape_total", tag=self.AWKWARD)
        assert child.value == 2


class TestPrometheusParser:
    def test_inf_and_bucket_suffixes(self):
        registry = MetricsRegistry()
        registry.timer("repro_t_seconds", phase="x").observe(0.2)
        text = registry.to_prometheus()
        types, samples = parse_prometheus_text(text)
        assert types["repro_t_seconds"] == "histogram"
        inf_buckets = [s for s in samples
                       if s[0] == "repro_t_seconds_bucket"
                       and s[1].get("le") == "+Inf"]
        assert inf_buckets and inf_buckets[0][2] == 1.0
        assert math.isinf(float("inf"))

    def test_malformed_sample_raises(self):
        with pytest.raises(ValueError, match="TYPE"):
            parse_prometheus_text("repro_unknown_total 1\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus_text("# TYPE repro_x_total counter\n"
                                  "repro_x_total{oops 1\n")
        with pytest.raises(ValueError, match="comment"):
            parse_prometheus_text("# BOGUS thing\n")
