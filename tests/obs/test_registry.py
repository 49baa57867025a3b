"""Core semantics of the repro.obs metric primitives and registry."""

import pytest

from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    as_registry,
)


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_registry_counter_is_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_test_total", op="a")
        second = registry.counter("repro_test_total", op="a")
        other = registry.counter("repro_test_total", op="b")
        assert first is second
        assert first is not other


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7
        assert gauge.touched

    def test_unknown_merge_mode_rejected(self):
        with pytest.raises(ValueError):
            Gauge(merge_mode="average")

    @pytest.mark.parametrize("mode,expected", [
        ("sum", 7.0), ("max", 4.0), ("min", 3.0), ("last", 4.0)])
    def test_merge_modes(self, mode, expected):
        mine, theirs = Gauge(mode), Gauge(mode)
        mine.set(3)
        theirs.set(4)
        mine._merge(theirs)
        assert mine.value == expected

    def test_untouched_gauge_never_perturbs_merge(self):
        mine, theirs = Gauge("min"), Gauge("min")
        mine.set(5)
        mine._merge(theirs)  # theirs untouched: min(5, 0) must NOT happen
        assert mine.value == 5
        # ... and an untouched receiver adopts the incoming value as-is.
        fresh = Gauge("min")
        fresh._merge(mine)
        assert fresh.value == 5 and fresh.touched


class TestHistogram:
    def test_observations_land_in_buckets(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            histogram.observe(value)
        # bisect_left: 1.0 lands in the le=1.0 bucket, 100 overflows to +Inf.
        assert histogram.bucket_counts == [2, 1, 1]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(106.5)

    def test_cumulative_buckets_end_at_total(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 100.0):
            histogram.observe(value)
        pairs = histogram.cumulative_buckets()
        assert pairs[0] == (1.0, 1)
        assert pairs[1] == (10.0, 2)
        assert pairs[-1] == (float("inf"), 3)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(10.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))

    def test_merge_requires_equal_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0,))._merge(Histogram(bounds=(2.0,)))

    def test_merge_sums_buckets(self):
        a, b = Histogram(bounds=(1.0,)), Histogram(bounds=(1.0,))
        a.observe(0.5)
        b.observe(2.0)
        a._merge(b)
        assert a.bucket_counts == [1, 1] and a.count == 2


class TestTimer:
    def test_defaults_to_time_buckets(self):
        assert Timer().bounds == DEFAULT_TIME_BUCKETS

    def test_time_context_observes_once(self):
        timer = Timer()
        with timer.time():
            sum(range(1000))
        assert timer.count == 1
        assert timer.sum > 0


class TestFamilies:
    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("has space")

    def test_invalid_label_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.family("repro_ok_total", "counter",
                            label_names=("bad-label",))

    def test_wrong_label_set_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_labeled_total", op="x")
        family = registry.family("repro_labeled_total", "counter",
                                 label_names=("op",))
        with pytest.raises(ValueError):
            family.labels(other="y")

    def test_incompatible_redeclaration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_kind_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_kind_total")

    def test_help_fills_in_later(self):
        registry = MetricsRegistry()
        registry.counter("repro_help_total")
        registry.counter("repro_help_total", help="now documented")
        (family,) = registry.families()
        assert family.help == "now documented"


class TestRegistryMerge:
    def _worker(self, parsed):
        registry = MetricsRegistry()
        registry.counter("repro_parsed_total", task="index").inc(parsed)
        registry.gauge("repro_watermark", merge_mode="max").set(parsed)
        registry.timer("repro_io_seconds", op="load").observe(0.01 * parsed)
        return registry

    def test_merge_sums_counters_and_buckets(self):
        parent = self._worker(1).merge(self._worker(2))
        assert parent.counter("repro_parsed_total", task="index").value == 3
        assert parent.gauge("repro_watermark").value == 2
        assert parent.timer("repro_io_seconds", op="load").count == 2

    def test_merge_is_deterministic_in_batch_order(self):
        one = MetricsRegistry()
        for registry in (self._worker(1), self._worker(2), self._worker(3)):
            one.merge(registry)
        two = MetricsRegistry()
        for registry in (self._worker(1), self._worker(2), self._worker(3)):
            two.merge(registry)
        assert one.to_prometheus() == two.to_prometheus()

    def test_merge_rebases_trace_indices(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        with a.span("left"):
            pass
        with b.span("right"):
            pass
        a.merge(b)
        assert [record.index for record in a.trace] == [0, 1]
        assert [record.name for record in a.trace] == ["left", "right"]

    def test_mismatched_sample_bounds_refuse_snapshot_fold(self):
        # Samples bucketed on another ladder of the same length (e.g. a
        # snapshot written with different default bounds) must not fold
        # their counts into the wrong buckets.
        source = MetricsRegistry()
        source.timer("repro_phase_seconds", phase="x").observe(0.01)
        snapshot = source.snapshot()
        for entry in snapshot["metrics"]:
            for sample in entry["samples"]:
                sample["bounds"] = [2 * bound for bound in sample["bounds"]]
        target = MetricsRegistry()
        target.timer("repro_phase_seconds", phase="x").observe(0.01)
        with pytest.raises(ValueError, match="bounds"):
            target.merge_snapshot(snapshot)


class TestExplicitBucketsMergeSafety:
    """A family's ``buckets=`` is part of its declaration: registries and
    snapshots fold only into a family declared on the same ladder."""

    LADDER = (0.005, 0.05, 0.5)

    def test_mismatched_buckets_refuse_registry_merge(self):
        explicit = MetricsRegistry()
        explicit.timer("repro_phase_seconds", buckets=self.LADDER,
                       phase="x").observe(0.01)
        default = MetricsRegistry()
        default.timer("repro_phase_seconds", phase="x").observe(0.01)
        with pytest.raises(ValueError):
            explicit.merge(default)

    def test_mismatched_buckets_refuse_snapshot_fold(self):
        default = MetricsRegistry()
        default.timer("repro_phase_seconds", phase="x").observe(0.01)
        snapshot = default.snapshot()
        explicit = MetricsRegistry()
        explicit.timer("repro_phase_seconds", buckets=self.LADDER,
                       phase="x").observe(0.01)
        with pytest.raises(ValueError):
            explicit.merge_snapshot(snapshot)

    def test_same_buckets_merge_cleanly(self):
        ours = MetricsRegistry()
        ours.timer("repro_phase_seconds", buckets=self.LADDER,
                   phase="x").observe(0.01)
        theirs = MetricsRegistry()
        theirs.timer("repro_phase_seconds", buckets=self.LADDER,
                     phase="x").observe(0.3)
        ours.merge_snapshot(theirs.snapshot())
        merged = ours.timer("repro_phase_seconds", buckets=self.LADDER,
                            phase="x")
        assert merged.count == 2 and merged.bounds == self.LADDER


class TestAsRegistry:
    def test_none_passes_through(self):
        assert as_registry(None) is None

    def test_true_makes_fresh_registry(self):
        registry = as_registry(True)
        assert isinstance(registry, MetricsRegistry)
        assert as_registry(True) is not registry

    def test_registry_passes_through(self):
        registry = MetricsRegistry()
        assert as_registry(registry) is registry

    def test_anything_else_rejected(self):
        with pytest.raises(TypeError):
            as_registry("yes")
