"""The batch migration farm: fan a corpus out over workers, skip cached work.

The paper's consulting result was corpus-scale — whole schematic libraries
moved between vendor dialects.  :class:`MigrationFarm` takes a corpus of
schematic cells plus one :class:`~cadinterop.schematic.migrate.MigrationPlan`
and:

* serves unchanged designs from a content-addressed
  :class:`~cadinterop.farm.cache.ResultCache` (keyed on design digest, plan
  digest, and pipeline version), so re-running after editing one design
  re-migrates only that design;
* fans cache misses out across a ``concurrent.futures`` process pool
  (``jobs > 1``); each worker keeps one long-lived ``Migrator`` so symbol
  scaling amortizes across the designs it handles;
* aggregates the pipeline's per-stage timings plus its own bookkeeping
  stages (``farm:digest``, ``farm:cache-lookup``, ``farm:cache-store``)
  into a :class:`~cadinterop.farm.report.FarmReport`.

A design that fails to migrate is reported (``status="failed"`` with the
error text) without aborting the rest of the corpus.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from typing import List, Optional, Sequence, Tuple, Union

from cadinterop.farm.cache import ResultCache, cache_key
from cadinterop.farm.profiler import StageProfiler
from cadinterop.farm.report import FarmItem, FarmReport
from cadinterop.obs.lineage import LossReport, enable_lineage, get_lineage
from cadinterop.obs.metrics import MetricsRegistry, get_metrics
from cadinterop.obs.trace import enable_tracing, get_tracer
from cadinterop.schematic.migrate import (
    MigrationPlan,
    MigrationResult,
    Migrator,
    plan_digest,
    schematic_digest,
)
from cadinterop.schematic.model import Schematic

#: A unit of work shipped to a worker: (corpus index, schematic).
_Task = Tuple[int, Schematic]
#: What a worker sends back: (corpus index, result or None, error or None,
#: seconds spent migrating measured inside the worker, the spans the
#: worker's tracer recorded for this task, and the lineage records the
#: worker's recorder buffered — both empty when the facility is off or the
#: worker shares the submitting side's collector (inline/thread executors).
_Outcome = Tuple[int, Optional[MigrationResult], Optional[str], float, list, list]

# Per-process worker state for the process-pool executor.  Each worker
# builds one Migrator at pool start (plan arrives once via the initializer,
# not once per task) and reuses it for every design it is handed.
_WORKER_MIGRATOR: Optional[Migrator] = None


def _process_worker_init(
    plan: MigrationPlan,
    trace_id: Optional[str] = None,
    lineage: bool = False,
) -> None:
    global _WORKER_MIGRATOR
    _WORKER_MIGRATOR = Migrator(plan)
    if trace_id is not None:
        # Join the parent's trace: this worker's spans carry the same trace
        # id and are shipped back (and re-parented) with each outcome.
        enable_tracing(trace_id)
    if lineage:
        # Same pattern for provenance: the worker buffers lineage records
        # locally and ships them back (adopted) with each outcome.
        enable_lineage()


def _process_worker_migrate(task: _Task) -> _Outcome:
    index, schematic = task
    assert _WORKER_MIGRATOR is not None, "worker used before initialization"
    tracer = get_tracer()
    recorder = get_lineage()
    start = time.perf_counter()
    try:
        result = _WORKER_MIGRATOR.migrate(schematic)
        return (
            index, result, None, time.perf_counter() - start,
            tracer.drain(), recorder.drain(),
        )
    except Exception as exc:  # a bad design must not kill the corpus
        return (
            index, None, f"{type(exc).__name__}: {exc}",
            time.perf_counter() - start, tracer.drain(), recorder.drain(),
        )


class MigrationFarm:
    """Runs one :class:`MigrationPlan` over a corpus of schematic cells.

    ``jobs`` is the worker count; ``executor`` is ``"process"``, ``"thread"``,
    or ``"inline"`` (default: processes when ``jobs > 1``, inline otherwise —
    thread workers only help when migration cost is dominated by I/O, the
    pipeline itself is pure Python).
    """

    def __init__(
        self,
        plan: MigrationPlan,
        jobs: int = 1,
        cache: Optional[Union[ResultCache, str]] = None,
        executor: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
            cache = ResultCache(cache)
        if executor is None:
            executor = "process" if jobs > 1 else "inline"
        if executor not in ("process", "thread", "inline"):
            raise ValueError(f"unknown executor {executor!r}")
        self.plan = plan
        self.jobs = jobs
        self.cache = cache
        self.executor = executor

    def run(self, designs: Sequence[Schematic], keep_results: bool = True) -> FarmReport:
        """Migrate every design, preferring cached results; never raises for
        a single bad design — inspect ``report.items`` for failures.

        When tracing is enabled (:func:`cadinterop.obs.enable_tracing`) the
        run emits one ``farm:run`` span with every per-design ``migrate``
        span beneath it — including spans recorded inside thread and process
        workers, which are merged back and re-parented here.
        """
        tracer = get_tracer()
        with tracer.span(
            "farm:run", jobs=self.jobs, executor=self.executor, designs=len(designs)
        ) as run_span:
            return self._run(designs, keep_results, tracer, run_span)

    def _run(self, designs, keep_results, tracer, run_span) -> FarmReport:
        started = time.perf_counter()
        recorder = get_lineage()
        # Records emitted before this run (same recorder, earlier work)
        # must not leak into this run's loss report.
        lineage_mark = len(recorder)
        dialect_pair = (
            f"{self.plan.source_dialect.name}->{self.plan.target_dialect.name}"
        )
        registry = MetricsRegistry()
        profiler = StageProfiler(registry=registry)
        # A reused cache keeps lifetime totals; the report counts this run.
        cache_before = self._cache_counters()
        report = FarmReport(
            jobs=self.jobs, executor=self.executor, total=len(designs), profile=profiler
        )
        report.trace_id = tracer.trace_id if tracer.enabled else None
        report.items = [
            FarmItem(design=d.name, digest="", status="failed") for d in designs
        ]

        # Fold global rules into the symbol map once, up front: migrate()
        # does this idempotently per call, but doing it here keeps the plan
        # object stable before it is digested and shipped to workers (and
        # avoids a duplicate-add race between thread workers).
        self.plan.global_map.extend_symbol_map(self.plan.symbol_map)
        plan_d = plan_digest(self.plan)

        pending: List[_Task] = []
        keys: dict = {}
        with tracer.span("farm:scan", designs=len(designs)):
            for index, design in enumerate(designs):
                item = report.items[index]
                t0 = time.perf_counter()
                item.digest = schematic_digest(design)
                profiler.record("farm:digest", time.perf_counter() - t0, 1)
                if self.cache is not None:
                    keys[index] = cache_key(
                        item.digest, plan_d, self.cache.pipeline_version
                    )
                    t0 = time.perf_counter()
                    hit = self.cache.get(keys[index])
                    elapsed = time.perf_counter() - t0
                    profiler.record("farm:cache-lookup", elapsed, 1)
                    if hit is not None:
                        item.status = "cached"
                        item.clean = hit.clean
                        item.seconds = elapsed
                        item.result = hit if keep_results else None
                        report.cached += 1
                        recorder.record(
                            "design", design.name, "farm:cache", "preserved",
                            detail="served unchanged from result cache",
                            design=design.name, dialect=dialect_pair,
                        )
                        continue
                pending.append((index, design))

        for index, result, error, seconds, spans, lineage in self._execute(
            pending, run_span
        ):
            if spans:
                # Worker-side spans (process executor): re-root them under
                # this run so the merged trace stays one tree.
                tracer.adopt(spans, parent_id=run_span.span_id)
            if lineage:
                # Worker-side lineage records merge the same way; their
                # span links stay valid because the spans were adopted too.
                recorder.adopt(lineage)
            item = report.items[index]
            item.seconds = seconds
            if result is None:
                item.status = "failed"
                item.error = error or "unknown error"
                report.failed += 1
                continue
            item.status = "migrated"
            item.clean = result.clean
            item.result = result if keep_results else None
            report.migrated += 1
            profiler.record_samples(result.stages)
            if self.cache is not None:
                t0 = time.perf_counter()
                self.cache.put(keys[index], result)
                profiler.record("farm:cache-store", time.perf_counter() - t0, 1)

        for outcome, count in (
            ("migrated", report.migrated),
            ("cached", report.cached),
            ("failed", report.failed),
        ):
            if count:
                registry.counter(f"farm.designs.{outcome}").inc(count)
        if self.cache is not None:
            report.cache_hits, report.cache_misses, report.cache_corrupt = (
                after - before
                for after, before in zip(self._cache_counters(), cache_before)
            )
            for name, value in (
                ("farm.cache.hits", report.cache_hits),
                ("farm.cache.misses", report.cache_misses),
                ("farm.cache.corrupt", report.cache_corrupt),
            ):
                if value:
                    registry.counter(name).inc(value)
        if recorder.enabled:
            report.loss = LossReport.from_records(
                recorder.records()[lineage_mark:]
            )
        report.wall_seconds = time.perf_counter() - started
        report.metrics = registry.snapshot()
        # Roll this run up into the globally installed registry (no-op
        # unless metrics were enabled, e.g. under `cadinterop trace`).
        get_metrics().merge(report.metrics)
        return report

    def _cache_counters(self) -> Tuple[int, int, int]:
        if self.cache is None:
            return (0, 0, 0)
        return (self.cache.hits, self.cache.misses, self.cache.corrupt)

    # -- executors -------------------------------------------------------

    def _execute(self, tasks: List[_Task], run_span) -> List[_Outcome]:
        if not tasks:
            return []
        if self.executor == "process" and self.jobs > 1:
            return self._execute_processes(tasks)
        if self.executor == "thread" and self.jobs > 1:
            return self._execute_threads(tasks, run_span)
        return self._execute_inline(tasks)

    def _execute_inline(self, tasks: List[_Task]):
        migrator = Migrator(self.plan)
        outcomes = []
        for index, design in tasks:
            t0 = time.perf_counter()
            try:
                result, error = migrator.migrate(design), None
            except Exception as exc:
                result, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append((index, result, error, time.perf_counter() - t0, [], []))
        return outcomes

    def _execute_processes(self, tasks: List[_Task]) -> List[_Outcome]:
        workers = min(self.jobs, len(tasks))
        tracer = get_tracer()
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_process_worker_init,
            initargs=(
                self.plan,
                tracer.trace_id if tracer.enabled else None,
                get_lineage().enabled,
            ),
        ) as pool:
            chunksize = max(1, len(tasks) // (workers * 4))
            return list(
                pool.map(_process_worker_migrate, tasks, chunksize=chunksize)
            )

    def _execute_threads(self, tasks: List[_Task], run_span):
        local = threading.local()
        tracer = get_tracer()

        def migrate_one(task: _Task):
            index, design = task
            if not hasattr(local, "migrator"):
                local.migrator = Migrator(self.plan)
            # Worker threads start with an empty span context; attach the
            # run span so each migrate span parents to it.
            token = tracer.attach(run_span.span_id) if tracer.enabled else None
            t0 = time.perf_counter()
            try:
                result, error = local.migrator.migrate(design), None
            except Exception as exc:
                result, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                if token is not None:
                    tracer.detach(token)
            return index, result, error, time.perf_counter() - t0, [], []

        with concurrent.futures.ThreadPoolExecutor(
            max_workers=min(self.jobs, len(tasks))
        ) as pool:
            return list(pool.map(migrate_one, tasks))


def migrate_corpus(
    plan: MigrationPlan,
    designs: Sequence[Schematic],
    jobs: int = 1,
    cache: Optional[Union[ResultCache, str]] = None,
    executor: Optional[str] = None,
    keep_results: bool = True,
) -> FarmReport:
    """One-call batch migration: build a farm, run the corpus, return the report."""
    farm = MigrationFarm(plan, jobs=jobs, cache=cache, executor=executor)
    return farm.run(designs, keep_results=keep_results)
