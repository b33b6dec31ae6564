"""Metrics registry: instruments, snapshots, merging, no-op mode."""

import pytest

from cadinterop.obs import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    MetricsRegistry,
    ObsContext,
    StageSpan,
    Tracer,
    get_metrics,
    installed,
    render_metrics,
)


class TestInstruments:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("hits") is counter  # get-or-create

    def test_histogram_buckets_and_moments(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        assert histogram.buckets == DEFAULT_BUCKETS
        for value in (0.0005, 0.05, 0.05, 50.0):
            histogram.observe(value)
        expected = [0] * (len(DEFAULT_BUCKETS) + 1)
        expected[0] = 1  # below the first boundary
        expected[DEFAULT_BUCKETS.index(0.05) + 1] = 2  # on a boundary: the bucket above
        expected[-1] = 1  # overflow
        assert histogram.counts == expected
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(50.1005)
        assert histogram.mean == pytest.approx(50.1005 / 4)

    def test_kind_mismatch_is_a_type_error(self):
        registry = MetricsRegistry()
        registry.counter("n")
        with pytest.raises(TypeError, match="counter"):
            registry.histogram("n")
        registry.histogram("h")
        with pytest.raises(TypeError, match="histogram"):
            registry.counter("h")


class TestSnapshotAndMerge:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(0.25)
        return registry

    def test_snapshot_is_plain_data(self):
        snapshot = self.build().snapshot()
        assert snapshot["c"] == {"type": "counter", "value": 3}
        assert snapshot["h"]["buckets"] == list(DEFAULT_BUCKETS)
        assert snapshot["h"]["counts"][DEFAULT_BUCKETS.index(0.25) + 1] == 1
        assert sum(snapshot["h"]["counts"]) == 1
        import json

        json.dumps(snapshot)  # must be JSON-serializable as-is

    def test_merge_adds_counters_and_histograms(self):
        left, right = self.build(), self.build()
        left.merge(right.snapshot())
        snapshot = left.snapshot()
        assert snapshot["c"]["value"] == 6
        assert snapshot["h"]["count"] == 2

    def test_merge_creates_a_missing_histogram(self):
        registry = MetricsRegistry()
        registry.merge(self.build().snapshot())
        histogram = registry.histogram("h")
        assert histogram.buckets == DEFAULT_BUCKETS
        assert histogram.count == 1 and histogram.sum == pytest.approx(0.25)

    def test_merge_rejects_differing_buckets(self):
        foreign = {"type": "histogram", "buckets": [0.25, 0.5],
                   "counts": [1, 0, 0], "sum": 0.1, "count": 1}
        left = self.build()
        for name in ("h", "new"):  # an existing histogram, and a first sight
            with pytest.raises(ValueError, match="boundaries differ"):
                left.merge({name: foreign})
        assert left.snapshot()["h"]["count"] == 1

    def test_merge_rejects_unknown_type(self):
        for kind in ("meter", "gauge"):
            with pytest.raises(ValueError, match="unknown instrument"):
                MetricsRegistry().merge({"x": {"type": kind, "value": 1}})

    def test_drain_snapshots_then_empties(self):
        registry = self.build()
        snapshot = registry.snapshot()
        assert registry.drain() == snapshot
        assert registry.snapshot() == {} and NULL_METRICS.drain() == {}
        registry.counter("c").inc()  # instruments start over after a drain
        assert registry.snapshot()["c"]["value"] == 1

    def test_render_metrics(self):
        table = render_metrics(self.build().snapshot())
        assert "c" in table and "counter" in table and "3" in table
        assert "n=1" in table
        assert render_metrics({}).startswith("metric")


class TestGlobalSingleton:
    def test_disabled_by_default(self):
        assert get_metrics() is NULL_METRICS
        assert not get_metrics().enabled

    def test_null_registry_is_inert(self):
        NULL_METRICS.counter("x").inc()
        NULL_METRICS.histogram("z").observe(0.1)
        assert NULL_METRICS.snapshot() == {}
        assert NULL_METRICS.counter("x").value == 0

    def test_enable_disable_roundtrip(self):
        registry = MetricsRegistry()
        with installed(ObsContext(metrics=registry)):
            assert get_metrics() is registry
            get_metrics().counter("seen").inc()
        assert registry.snapshot()["seen"]["value"] == 1
        assert get_metrics() is NULL_METRICS

    def test_default_buckets_are_sorted_and_subsecond_heavy(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert DEFAULT_BUCKETS[0] <= 0.001 and DEFAULT_BUCKETS[-1] >= 10.0


class TestStageSpan:
    def test_records_a_span_and_stage_metrics(self):
        context = ObsContext(Tracer(), MetricsRegistry())
        with installed(context):
            with StageSpan("scaling", "migrate:scaling") as stage:
                stage.items = 7
        (span,) = context.tracer.spans()
        assert span["name"] == "migrate:scaling" and span["attrs"] == {"items": 7}
        snapshot = context.metrics.snapshot()
        assert snapshot["stage.seconds[scaling]"]["count"] == 1
        assert snapshot["stage.seconds[scaling]"]["sum"] == stage.seconds
        assert snapshot["stage.items[scaling]"]["value"] == 7

    def test_a_failing_stage_is_still_timed(self):
        context = ObsContext(Tracer(), MetricsRegistry())
        with installed(context), pytest.raises(ValueError):
            with StageSpan("text", "migrate:text"):
                raise ValueError("bad label")
        assert context.tracer.spans()[0]["status"] == "error"
        snapshot = context.metrics.snapshot()
        assert snapshot["stage.seconds[text]"]["count"] == 1
        assert "stage.items[text]" not in snapshot  # no items, no counter

    def test_costs_only_no_op_calls_with_obs_off(self):
        with StageSpan("globals", "migrate:globals") as stage:
            stage.items = 3
        assert get_metrics() is NULL_METRICS and get_metrics().snapshot() == {}
