"""Worker merging: one coherent trace, and one answer, across farm executors.

The acceptance bar for the observability layer: a traced
``MigrationFarm.run`` over the process executor yields ONE trace — every
per-design ``migrate`` span parented under the single ``farm:run`` root,
every stage span parented under its design's ``migrate`` span, and start
times consistent with that nesting — even though the spans were recorded
in other processes.  Beyond the span tree, the inline and process
executors must record the same spans, metrics, lineage and loss report,
apart from timings and ids.
"""

import sys
import threading
from collections import Counter

import pytest

from cadinterop.farm import MigrationFarm
from cadinterop.obs import (
    MetricsRegistry,
    ObsContext,
    Tracer,
    get_tracer,
    installed,
)
from cadinterop.schematic.samples import (
    build_sample_plan,
    build_vl_libraries,
    generate_chain_schematic,
)

DESIGNS = 4


@pytest.fixture(scope="module")
def vl_libs():
    return build_vl_libraries()


@pytest.fixture(scope="module")
def corpus(vl_libs):
    return [
        generate_chain_schematic(vl_libs, pages=1, chains_per_page=2,
                                 stages=3, seed=index)
        for index in range(DESIGNS)
    ]


def traced_farm_run(vl_libs, corpus, executor):
    plan = build_sample_plan(source_libraries=vl_libs)
    tracer = Tracer()
    with installed(ObsContext(tracer)):
        report = MigrationFarm(plan, jobs=2, executor=executor).run(corpus)
    assert report.migrated == DESIGNS
    return tracer.spans(), tracer.trace_id


def assert_single_coherent_trace(spans):
    by_id = {span["span_id"]: span for span in spans}
    assert len(by_id) == len(spans), "span ids must be unique across workers"

    roots = [span for span in spans if span["parent_id"] is None]
    assert [span["name"] for span in roots] == ["farm:run"]
    run_span = roots[0]

    migrates = [span for span in spans if span["name"] == "migrate"]
    assert len(migrates) == DESIGNS
    for span in migrates:
        assert span["parent_id"] == run_span["span_id"]

    stage_spans = [s for s in spans if s["name"].startswith("migrate:")]
    assert stage_spans, "per-stage spans must survive the merge"
    migrate_ids = {span["span_id"] for span in migrates}
    for span in stage_spans:
        assert span["parent_id"] in migrate_ids
        parent = by_id[span["parent_id"]]
        # Ordered: a child cannot start before its parent.
        assert span["start"] >= parent["start"]

    # Every design contributed a full stage set under its own migrate span.
    per_parent = {}
    for span in stage_spans:
        per_parent.setdefault(span["parent_id"], set()).add(span["name"])
    assert len(per_parent) == DESIGNS
    stage_sets = list(per_parent.values())
    assert all(names == stage_sets[0] for names in stage_sets)

    # spans() contract: ordered by start time.
    starts = [span["start"] for span in spans]
    assert starts == sorted(starts)


class TestExecutorMerge:
    def test_inline_executor(self, vl_libs, corpus):
        spans, _ = traced_farm_run(vl_libs, corpus, "inline")
        assert_single_coherent_trace(spans)

    def test_process_executor_merges_into_one_trace(self, vl_libs, corpus):
        spans, trace_id = traced_farm_run(vl_libs, corpus, "process")
        assert_single_coherent_trace(spans)
        # Worker spans were minted in other processes: pid-prefixed ids
        # must differ from the parent's for at least one span.
        import os

        prefix = f"{os.getpid():x}-"
        assert any(not s["span_id"].startswith(prefix) for s in spans)

    def test_executors_disagree_only_on_ids(self, vl_libs, corpus):
        names = {}
        for executor in ("inline", "process"):
            spans, _ = traced_farm_run(vl_libs, corpus, executor)
            names[executor] = sorted(span["name"] for span in spans)
        assert names["inline"] == names["process"]


def observed_farm_run(plan, corpus, executor, jobs=2):
    """Run the farm under a context with every facility on."""
    context = ObsContext.enabled()
    with installed(context):
        report = MigrationFarm(plan, jobs=jobs, executor=executor).run(corpus)
    return report, context


def without_timings(snapshot):
    """Counter values and histogram counts: the metrics minus timings."""
    return {
        name: data["count"] if data["type"] == "histogram" else data["value"]
        for name, data in snapshot.items()
    }


class TestExecutorParity:
    """The executor changes nothing but timings and ids."""

    @pytest.fixture(scope="class")
    def runs(self, vl_libs):
        corpus = []
        for index in range(5):
            cell = generate_chain_schematic(
                vl_libs, pages=1 + index % 2, chains_per_page=2, stages=3,
                seed=index, offgrid_labels=index % 3,
            )
            cell.name = f"parity{index}"
            corpus.append(cell)
        corpus[3].pages[0].wires[0].label = "N<1:0"  # fails mid-pipeline
        plan = build_sample_plan(source_libraries=vl_libs)
        return {
            "inline": observed_farm_run(plan, corpus, "inline"),
            "process": observed_farm_run(plan, corpus, "process"),
            # A pool of one worker is never started: this one runs inline.
            "process-1": observed_farm_run(plan, corpus, "process", jobs=1),
        }

    def each(self, runs, view):
        return {executor: view(*run) for executor, run in runs.items()}

    def assert_same(self, runs, view):
        views = self.each(runs, view)
        assert views["process"] == views["inline"]
        assert views["process-1"] == views["inline"]
        return views["inline"]

    def test_reports_name_the_path_that_ran(self, runs):
        executors = self.each(
            runs,
            lambda report, context: (
                report.executor,
                next(
                    span["attrs"]["executor"]
                    for span in context.tracer.spans()
                    if span["name"] == "farm:run"
                ),
            ),
        )
        assert executors == {
            "inline": ("inline", "inline"),
            "process": ("process", "process"),
            "process-1": ("inline", "inline"),
        }

    def test_the_corpus_is_lossy_and_has_a_failure(self, runs):
        report, _context = runs["inline"]
        assert (report.migrated, report.failed) == (4, 1)
        assert report.loss.by_verb["approximated"] > 0

    def test_span_names(self, runs):
        names = self.assert_same(
            runs,
            lambda _report, context: Counter(
                span["name"] for span in context.tracer.spans()
            ),
        )
        assert names["migrate"] == 5 and names["farm:run"] == 1
        assert names["verify:compare"] == 4

    def test_metrics(self, runs):
        metrics = self.assert_same(
            runs, lambda _report, context: without_timings(context.metrics.snapshot())
        )
        assert metrics["stage.seconds[verification]"] == 4
        # Recorded by the migration itself, so in a worker on the process
        # path: these reached the caller only through the drained payload.
        assert metrics["stage.items[scaling]"] > 0

    def test_lineage_records(self, runs):
        self.assert_same(
            runs,
            lambda _report, context: sorted(
                sorted((key, value) for key, value in record.items() if key != "span_id")
                for record in context.lineage.records()
            ),
        )

    def test_loss_report(self, runs):
        self.assert_same(runs, lambda report, _context: report.loss.as_dict())

    def test_report_metrics(self, runs):
        metrics = self.assert_same(
            runs, lambda report, _context: without_timings(report.metrics)
        )
        assert metrics["farm.designs.failed"] == 1
        assert metrics["stage.seconds[farm:digest]"] == 5


class TestTracerThreadSafety:
    def test_concurrent_spans_do_not_corrupt_the_buffer(self):
        tracer = Tracer()

        def worker(index):
            with tracer.span(f"job{index}"):
                for _ in range(20):
                    with tracer.span("step"):
                        pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        spans = tracer.spans()
        assert len(spans) == 8 * 21
        job_ids = {s["span_id"] for s in spans if s["name"].startswith("job")}
        for span in spans:
            if span["name"] == "step":
                assert span["parent_id"] in job_ids

    def test_contextvar_isolation_between_threads(self):
        tracer = Tracer()
        seen = {}

        def worker(name):
            with tracer.span(name) as span:
                seen[name] = span.parent_id

        with tracer.span("main-root"):
            thread = threading.Thread(target=worker, args=("other",))
            thread.start()
            thread.join()
        # A fresh thread starts with an empty context: no inherited parent.
        assert seen["other"] is None


class TestMetricsThreadSafety:
    def test_get_or_create_and_updates_lose_nothing(self):
        # Instruments are looked up without the lock and created under it,
        # so threads sharing one registry lose none.
        registry = MetricsRegistry()
        threads_n, rounds = 8, 500

        def worker(index):
            for step in range(rounds):
                registry.counter(f"c{step % 4}").inc()
                registry.histogram(f"h{(index + step) % 3}").observe(0.001)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        snapshot = registry.snapshot()
        assert sum(snapshot[f"c{i}"]["value"] for i in range(4)) == threads_n * rounds
        assert sum(snapshot[f"h{i}"]["count"] for i in range(3)) == threads_n * rounds
