"""Metrics registry: instruments, snapshots, merging, pickling, no-op mode."""

import pickle

import pytest

from cadinterop.obs import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    MetricsRegistry,
    ObsContext,
    StageSpan,
    Tracer,
    disable_metrics,
    enable_metrics,
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

    def test_gauge_keeps_last_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("workers")
        gauge.set(2)
        gauge.set(8)
        assert gauge.value == 8

    def test_histogram_buckets_and_moments(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.counts == [1, 2, 1]  # <=0.1, <=1.0, overflow
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(6.05)
        assert histogram.mean == pytest.approx(6.05 / 4)

    def test_histogram_needs_boundaries(self):
        with pytest.raises(ValueError, match="bucket"):
            MetricsRegistry().histogram("empty", buckets=())

    def test_kind_mismatch_is_a_type_error(self):
        registry = MetricsRegistry()
        registry.counter("n")
        with pytest.raises(TypeError, match="counter"):
            registry.gauge("n")
        with pytest.raises(TypeError, match="counter"):
            registry.histogram("n")


class TestSnapshotAndMerge:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(0.5,)).observe(0.25)
        return registry

    def test_snapshot_is_plain_data(self):
        snapshot = self.build().snapshot()
        assert snapshot["c"] == {"type": "counter", "value": 3}
        assert snapshot["g"]["type"] == "gauge"
        assert snapshot["g"]["value"] == 1.5
        assert snapshot["g"]["seq"] > 0  # write stamp for merge ordering
        assert snapshot["h"]["counts"] == [1, 0]
        import json

        json.dumps(snapshot)  # must be JSON-serializable as-is

    def test_merge_adds_counters_and_histograms(self):
        left, right = self.build(), self.build()
        left.merge(right.snapshot())
        snapshot = left.snapshot()
        assert snapshot["c"]["value"] == 6
        assert snapshot["h"]["count"] == 2
        assert snapshot["g"]["value"] == 1.5  # newest write wins

    def test_gauge_merge_keeps_newest_regardless_of_order(self):
        # The regression: last-write-wins used to depend on which worker
        # snapshot merged last, i.e. on pool join order.
        older = MetricsRegistry()
        older.gauge("g").set(1.0)
        newer = MetricsRegistry()
        newer.gauge("g").set(2.0)

        forward = MetricsRegistry()
        forward.merge(older.snapshot())
        forward.merge(newer.snapshot())
        backward = MetricsRegistry()
        backward.merge(newer.snapshot())
        backward.merge(older.snapshot())
        assert forward.gauge("g").value == 2.0
        assert backward.gauge("g").value == 2.0

    def test_gauge_seq_is_strictly_monotonic_in_process(self):
        gauge = MetricsRegistry().gauge("g")
        seqs = []
        for value in range(5):
            gauge.set(value)
            seqs.append(gauge.seq)
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_gauge_merge_accepts_preseq_snapshots(self):
        # Format-1 trace files carry gauges without a seq stamp; a fresh
        # registry (seq 0) must still adopt them.
        registry = MetricsRegistry()
        registry.merge({"g": {"type": "gauge", "value": 7.0}})
        assert registry.gauge("g").value == 7.0
        # ... but any stamped local write beats the stampless snapshot.
        registry.gauge("g").set(9.0)
        registry.merge({"g": {"type": "gauge", "value": 7.0}})
        assert registry.gauge("g").value == 9.0

    def test_merge_rejects_differing_buckets(self):
        left = MetricsRegistry()
        left.histogram("h", buckets=(0.5,))
        right = MetricsRegistry()
        right.histogram("h", buckets=(0.25, 0.5)).observe(0.1)
        with pytest.raises(ValueError, match="boundaries differ"):
            left.merge(right.snapshot())

    def test_merge_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown instrument"):
            MetricsRegistry().merge({"x": {"type": "meter", "value": 1}})

    def test_drain_snapshots_then_empties(self):
        registry = self.build()
        snapshot = registry.snapshot()
        assert registry.drain() == snapshot
        assert registry.snapshot() == {} and NULL_METRICS.drain() == {}
        registry.counter("c").inc()  # instruments start over after a drain
        assert registry.snapshot()["c"]["value"] == 1

    def test_registry_survives_pickling(self):
        clone = pickle.loads(pickle.dumps(self.build()))
        clone.counter("c").inc()  # lock was recreated; instruments work
        assert clone.counter("c").value == 4
        assert clone.snapshot()["h"]["count"] == 1

    def test_render_table(self):
        table = self.build().render_table()
        assert "c" in table and "counter" in table and "3" in table
        assert "n=1" in table
        assert render_metrics({}) .startswith("metric")


class TestGlobalSingleton:
    def test_disabled_by_default(self):
        assert get_metrics() is NULL_METRICS
        assert not get_metrics().enabled

    def test_null_registry_is_inert(self):
        NULL_METRICS.counter("x").inc()
        NULL_METRICS.gauge("y").set(3)
        NULL_METRICS.histogram("z").observe(0.1)
        assert NULL_METRICS.snapshot() == {}
        assert NULL_METRICS.counter("x").value == 0

    def test_enable_disable_roundtrip(self):
        registry = enable_metrics()
        assert get_metrics() is registry
        get_metrics().counter("seen").inc()
        assert registry.snapshot()["seen"]["value"] == 1
        disable_metrics()
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
