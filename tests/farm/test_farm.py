"""Farm orchestration: executors, failure isolation, report accounting."""

import pytest

from cadinterop.farm import (
    MigrationFarm,
    PIPELINE_STAGES,
    ResultCache,
)
from cadinterop.schematic.samples import (
    build_sample_plan,
    build_vl_libraries,
    generate_chain_schematic,
)


@pytest.fixture(scope="module")
def vl_libs():
    return build_vl_libraries()


@pytest.fixture()
def plan(vl_libs):
    return build_sample_plan(source_libraries=vl_libs)


def build_corpus(vl_libs, count=4):
    shapes = [(1, 2, 3), (2, 2, 4), (1, 3, 4), (2, 3, 3)]
    corpus = []
    for index in range(count):
        pages, chains, stages = shapes[index % len(shapes)]
        cell = generate_chain_schematic(
            vl_libs, pages=pages, chains_per_page=chains, stages=stages, seed=index
        )
        cell.name = f"unit{index:02d}"
        corpus.append(cell)
    return corpus


class TestFarmRun:
    def test_inline_run_migrates_everything(self, vl_libs, plan):
        corpus = build_corpus(vl_libs)
        report = MigrationFarm(plan).run(corpus)
        assert report.total == len(corpus)
        assert report.migrated == len(corpus)
        assert report.cached == report.failed == 0
        assert report.all_clean
        assert [item.design for item in report.items] == [c.name for c in corpus]
        assert all(item.result is not None for item in report.items)
        assert all(len(item.digest) == 64 for item in report.items)
        assert report.wall_seconds > 0

    def test_stage_profile_is_populated(self, vl_libs, plan, tmp_path):
        corpus = build_corpus(vl_libs)
        report = MigrationFarm(plan, cache=ResultCache(tmp_path)).run(corpus)
        # Acceptance: stage timings and hit/miss counters are non-empty,
        # with obs off (the run's own context always counts).
        for stage in PIPELINE_STAGES:
            seconds = report.metrics[f"stage.seconds[{stage}]"]
            assert seconds["count"] == len(corpus)
            assert seconds["sum"] > 0
        for bookkeeping in ("farm:digest", "farm:cache-lookup", "farm:cache-store"):
            assert report.metrics[f"stage.seconds[{bookkeeping}]"]["count"] == len(corpus)
            assert report.metrics[f"stage.items[{bookkeeping}]"]["value"] == len(corpus)
        table = report.stage_table()
        assert all(stage in table for stage in PIPELINE_STAGES)
        assert table in report.render()
        assert report.cache_misses == len(corpus)

    def test_executors_agree(self, vl_libs, plan):
        corpus = build_corpus(vl_libs, count=3)
        by_executor = {
            executor: MigrationFarm(plan, jobs=2, executor=executor).run(corpus)
            for executor in ("inline", "process")
        }
        reference = by_executor["inline"]
        for executor, report in by_executor.items():
            assert report.migrated == len(corpus), executor
            assert report.all_clean, executor
            for ref_item, item in zip(reference.items, report.items):
                assert item.digest == ref_item.digest
                assert item.result.bus_renames == ref_item.result.bus_renames
                assert (
                    item.result.replacements.replacements
                    == ref_item.result.replacements.replacements
                )

    def test_traced_run_merges_worker_spans(self, vl_libs, plan):
        from cadinterop.obs import ObsContext, Tracer, installed

        corpus = build_corpus(vl_libs, count=3)
        for executor in ("inline", "process"):
            tracer = Tracer()
            with installed(ObsContext(tracer)):
                report = MigrationFarm(plan, jobs=2, executor=executor).run(corpus)
            spans = tracer.spans()
            assert report.trace_id == tracer.trace_id
            roots = [s for s in spans if s["parent_id"] is None]
            assert [s["name"] for s in roots] == ["farm:run"], executor
            migrates = [s for s in spans if s["name"] == "migrate"]
            assert len(migrates) == len(corpus), executor
            assert all(
                s["parent_id"] == roots[0]["span_id"] for s in migrates
            ), executor

    def test_result_for(self, vl_libs, plan):
        corpus = build_corpus(vl_libs, count=2)
        report = MigrationFarm(plan).run(corpus)
        assert report.result_for("unit01") is report.items[1].result
        assert report.result_for("nope") is None


class TestFailureIsolation:
    def broken_corpus(self, vl_libs):
        corpus = build_corpus(vl_libs, count=3)
        corpus[1].pages[0].wires[0].label = "N<1:0"  # unterminated subscript
        return corpus

    def test_one_bad_design_does_not_abort_the_corpus(self, vl_libs, plan):
        report = MigrationFarm(plan).run(self.broken_corpus(vl_libs))
        assert report.failed == 1 and report.migrated == 2
        assert not report.all_clean
        bad = report.items[1]
        assert bad.status == "failed"
        assert "BusSyntaxError" in bad.error
        assert bad.result is None
        assert [item.status for item in report.items] == [
            "migrated", "failed", "migrated",
        ]

    def test_failure_survives_process_pool(self, vl_libs, plan):
        report = MigrationFarm(plan, jobs=2, executor="process").run(
            self.broken_corpus(vl_libs)
        )
        assert report.failed == 1 and report.migrated == 2
        assert "BusSyntaxError" in report.items[1].error

    def test_failed_design_is_not_cached(self, vl_libs, plan, tmp_path):
        corpus = self.broken_corpus(vl_libs)
        cache = ResultCache(tmp_path)
        MigrationFarm(plan, cache=cache).run(corpus)
        assert len(cache) == 2  # only the successes were stored
        report = MigrationFarm(plan, cache=ResultCache(tmp_path)).run(corpus)
        assert report.cached == 2 and report.failed == 1


class TestFarmValidation:
    def test_jobs_must_be_positive(self, plan):
        with pytest.raises(ValueError, match="jobs"):
            MigrationFarm(plan, jobs=0)

    def test_unknown_executor_rejected(self, plan):
        with pytest.raises(ValueError, match="executor"):
            MigrationFarm(plan, executor="fleet")

    def test_thread_executor_is_gone(self, plan):
        with pytest.raises(ValueError, match="executor"):
            MigrationFarm(plan, jobs=2, executor="thread")


class TestExecutorChoice:
    """A pool of one worker is never started; the report names the path
    that actually ran (``TestExecutorParity`` covers a one-job run)."""

    def traced_run(self, farm, corpus):
        from cadinterop.obs import ObsContext, Tracer, installed

        tracer = Tracer()
        with installed(ObsContext(tracer)):
            report = farm.run(corpus)
        (run_span,) = [s for s in tracer.spans() if s["name"] == "farm:run"]
        return report, run_span["attrs"]["executor"]

    def test_default_follows_jobs(self, plan):
        assert MigrationFarm(plan).executor == "inline"
        assert MigrationFarm(plan, jobs=2).executor == "process"

    def test_one_pending_design_runs_inline(self, vl_libs, plan, tmp_path):
        corpus = build_corpus(vl_libs, count=3)
        cache = ResultCache(tmp_path)
        farm = MigrationFarm(plan, jobs=2, cache=cache)
        report, span_executor = self.traced_run(farm, corpus)
        assert (report.executor, span_executor) == ("process", "process")
        corpus[2].name = "renamed"  # a new digest: one cache miss
        report, span_executor = self.traced_run(farm, corpus)
        assert (report.cached, report.migrated) == (2, 1)
        assert (report.executor, span_executor) == ("inline", "inline")
        assert "inline" in report.summary()


class TestReportRendering:
    def test_summary_and_render(self, vl_libs, plan, tmp_path):
        corpus = build_corpus(vl_libs, count=2)
        report = MigrationFarm(plan, cache=ResultCache(tmp_path)).run(corpus)
        summary = report.summary()
        assert "2 migrated" in summary and "2/2 clean" in summary
        rendered = report.render(per_design=True)
        assert "unit00" in rendered and "unit01" in rendered
        assert "verification" in rendered  # the stage table rides along


class TestFarmLineage:
    def lossy_corpus(self, vl_libs, count=3):
        corpus = []
        for index in range(count):
            cell = generate_chain_schematic(
                vl_libs, pages=1, chains_per_page=2, stages=3, seed=index,
                offgrid_labels=index % 2,  # units 01 (and 03, ...) are lossy
            )
            cell.name = f"unit{index:02d}"
            corpus.append(cell)
        return corpus

    def run_with_lineage(self, plan, corpus, **kwargs):
        from cadinterop.obs import LineageRecorder, ObsContext, Tracer, installed

        context = ObsContext(Tracer(), lineage=LineageRecorder())
        with installed(context):
            report = MigrationFarm(plan, **kwargs).run(corpus)
        return report, context.lineage.records(), context.tracer.spans()

    def test_loss_report_rides_on_the_farm_report(self, vl_libs, plan):
        corpus = self.lossy_corpus(vl_libs)
        report, records, _spans = self.run_with_lineage(plan, corpus)
        assert report.loss is not None
        assert report.loss.total == len(records)
        assert report.loss.by_verb["approximated"] == 1  # unit01's nudged label
        assert report.loss.top_lossy_designs() == [("unit01", 1)]
        rendered = report.render()
        # The loss report renders itself (``trace`` prints it); the farm's
        # render does not restate it.
        assert "lineage:" not in rendered
        assert "lineage." not in rendered  # losses are not counters too

    def test_untraced_run_has_no_loss_report(self, vl_libs, plan):
        report = MigrationFarm(plan).run(self.lossy_corpus(vl_libs))
        assert report.loss is None

    def test_worker_lineage_merges_and_links(self, vl_libs, plan):
        corpus = self.lossy_corpus(vl_libs)
        reference, ref_records, _ = self.run_with_lineage(plan, corpus, jobs=1)
        for executor in ("inline", "process"):
            report, records, spans = self.run_with_lineage(
                plan, corpus, jobs=2, executor=executor
            )
            key = lambda r: (r["design"], r["stage"], r["verb"], r["object_id"])
            assert sorted(map(key, records)) == sorted(map(key, ref_records)), executor
            assert report.loss.as_dict() == reference.loss.as_dict(), executor
            # Worker records must link to spans adopted into this trace.
            span_ids = {span["span_id"] for span in spans}
            assert all(r["span_id"] in span_ids for r in records), executor

    def test_cache_hit_is_recorded_as_preserved(self, vl_libs, plan, tmp_path):
        corpus = self.lossy_corpus(vl_libs, count=2)
        cache = ResultCache(tmp_path)
        self.run_with_lineage(plan, corpus, cache=cache)
        report, records, _spans = self.run_with_lineage(plan, corpus, cache=cache)
        assert report.cached == 2
        hits = [r for r in records if r["stage"] == "farm:cache"]
        assert len(hits) == 2
        assert all(r["verb"] == "preserved" for r in hits)
        assert {r["object_id"] for r in hits} == {"unit00", "unit01"}
        # Cached designs never re-entered the pipeline, so no migration
        # records (and no losses) this time around.
        assert report.loss.total == 2 and report.loss.losses == 0
