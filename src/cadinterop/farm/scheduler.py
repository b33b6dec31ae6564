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
* times the pipeline's stages plus its own bookkeeping stages
  (``farm:digest``, ``farm:cache-lookup``, ``farm:cache-store``) as
  ``stage.*`` metrics of a run-scoped observability context, which every
  worker reports into (process workers ship one payload per design), and
  renders them in a :class:`~cadinterop.farm.report.FarmReport`.

A design that fails to migrate is reported (``status="failed"`` with the
error text) without aborting the rest of the corpus.
"""

from __future__ import annotations

import concurrent.futures
import time
from typing import List, Optional, Sequence, Tuple

from cadinterop.farm.cache import ResultCache, cache_key
from cadinterop.farm.report import FarmItem, FarmReport
from cadinterop.obs.context import (
    ObsContext,
    StageSpan,
    current_context,
    install,
    installed,
)
from cadinterop.obs.lineage import LossReport
from cadinterop.obs.metrics import MetricsRegistry
from cadinterop.obs.trace import current_span_id
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
#: seconds spent migrating measured inside the worker, and the worker
#: context's drained payload — None when the design ran inline, straight
#: into the run's context.
_Outcome = Tuple[int, Optional[MigrationResult], Optional[str], float, Optional[dict]]

# Per-process worker state for the process-pool executor.  Each worker
# builds one Migrator at pool start (plan arrives once via the initializer,
# not once per task) and reuses it for every design it is handed.
_WORKER_MIGRATOR: Optional[Migrator] = None


def _process_worker_init(plan: MigrationPlan, context: ObsContext) -> None:
    global _WORKER_MIGRATOR
    _WORKER_MIGRATOR = Migrator(plan)
    # A fork of the run's context: same facilities, same trace id.  Each
    # task drains it into the outcome, and the run adopts the payload.
    install(context)


def _migrate_one(migrator: Migrator, design: Schematic):
    """(result, error, seconds) — a bad design must not kill the corpus."""
    start = time.perf_counter()
    try:
        result, error = migrator.migrate(design), None
    except Exception as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - start


def _process_worker_migrate(task: _Task) -> _Outcome:
    index, schematic = task
    assert _WORKER_MIGRATOR is not None, "worker used before initialization"
    result, error, seconds = _migrate_one(_WORKER_MIGRATOR, schematic)
    return index, result, error, seconds, current_context().drain()


class MigrationFarm:
    """Runs one :class:`MigrationPlan` over a corpus of schematic cells.

    ``jobs`` is the worker count; ``executor`` is ``"process"`` or
    ``"inline"`` (default: processes when ``jobs > 1``, inline otherwise).
    A process run whose pool would hold one worker — one job, or one design
    left after the cache — runs inline instead, and its report says so.
    """

    def __init__(
        self,
        plan: MigrationPlan,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        executor: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if executor is None:
            executor = "process" if jobs > 1 else "inline"
        if executor not in ("process", "inline"):
            raise ValueError(f"unknown executor {executor!r}")
        self.plan = plan
        self.jobs = jobs
        self.cache = cache
        self.executor = executor

    def run(self, designs: Sequence[Schematic]) -> FarmReport:
        """Migrate every design, preferring cached results; never raises for
        a single bad design — inspect ``report.items`` for failures.

        The run reports into a fork of the current observability context
        whose metrics are always on, so ``report.metrics`` always holds the
        stage table; ``report.loss`` is set when lineage is on.  Afterwards
        the fork is adopted into the current context, so under tracing one
        ``farm:run`` span holds every per-design ``migrate`` span, whichever
        executor ran it; the span's ``executor`` attribute, like
        ``report.executor``, names the path that actually ran.
        """
        outer = current_context()
        context = outer.fork()
        if not context.metrics.enabled:
            context.metrics = MetricsRegistry()
        try:
            with installed(context), context.tracer.span(
                "farm:run", jobs=self.jobs, designs=len(designs),
            ) as run_span:
                report = self._run(designs, context, run_span)
        finally:
            payload = context.drain()
            outer.adopt(payload, current_span_id())
        report.metrics = payload["metrics"]
        if context.lineage.enabled:
            report.loss = LossReport.from_records(payload["lineage"])
        return report

    def _run(self, designs, context, run_span) -> FarmReport:
        started = time.perf_counter()
        dialect_pair = (
            f"{self.plan.source_dialect.name}->{self.plan.target_dialect.name}"
        )
        report = FarmReport(jobs=self.jobs, total=len(designs))
        report.trace_id = context.tracer.trace_id if context.tracer.enabled else None
        report.items = [
            FarmItem(design=d.name, digest="", status="failed") for d in designs
        ]

        # Fold global rules into the symbol map once, up front: migrate()
        # does this idempotently per call, but doing it here keeps the plan
        # object stable before it is digested and shipped to workers.
        self.plan.global_map.extend_symbol_map(self.plan.symbol_map)
        plan_d = plan_digest(self.plan)

        pending: List[_Task] = []
        keys: dict = {}
        with context.tracer.span("farm:scan", designs=len(designs)):
            for index, design in enumerate(designs):
                item = report.items[index]
                with StageSpan("farm:digest", "farm:digest") as stage:
                    item.digest = schematic_digest(design)
                    stage.items = 1
                if self.cache is not None:
                    keys[index] = cache_key(item.digest, plan_d)
                    with StageSpan("farm:cache-lookup", "farm:cache-lookup") as stage:
                        hit = self.cache.get(keys[index])
                        stage.items = 1
                    if hit is not None:
                        item.status = "cached"
                        item.clean = hit.clean
                        item.seconds = stage.seconds
                        item.result = hit
                        report.cached += 1
                        context.lineage.record(
                            "design", design.name, "farm:cache", "preserved",
                            detail="served unchanged from result cache",
                            design=design.name, dialect=dialect_pair,
                        )
                        continue
                pending.append((index, design))

        pooled = self.executor == "process" and min(self.jobs, len(pending)) > 1
        report.executor = "process" if pooled else "inline"
        run_span.set(executor=report.executor)
        outcomes = (
            self._execute_processes(pending, context) if pooled
            else self._execute_inline(pending)
        )
        for index, result, error, seconds, payload in outcomes:
            if payload is not None:
                # A process worker's spans, metrics and lineage: re-root its
                # spans under this run so the merged trace stays one tree.
                context.adopt(payload, run_span.span_id)
            item = report.items[index]
            item.seconds = seconds
            if result is None:
                item.status = "failed"
                item.error = error or "unknown error"
                report.failed += 1
                continue
            item.status = "migrated"
            item.clean = result.clean
            item.result = result
            report.migrated += 1
            if self.cache is not None:
                with StageSpan("farm:cache-store", "farm:cache-store") as stage:
                    self.cache.put(keys[index], result)
                    stage.items = 1

        for outcome, count in (
            ("migrated", report.migrated),
            ("cached", report.cached),
            ("failed", report.failed),
        ):
            if count:
                context.metrics.counter(f"farm.designs.{outcome}").inc(count)
        report.wall_seconds = time.perf_counter() - started
        return report

    # -- executors -------------------------------------------------------

    def _execute_inline(self, tasks: List[_Task]) -> List[_Outcome]:
        if not tasks:
            return []
        migrator = Migrator(self.plan)
        return [
            (index, *_migrate_one(migrator, design), None)
            for index, design in tasks
        ]

    def _execute_processes(self, tasks: List[_Task], context) -> List[_Outcome]:
        workers = min(self.jobs, len(tasks))
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_process_worker_init,
            initargs=(self.plan, context.fork()),
        ) as pool:
            chunksize = max(1, len(tasks) // (workers * 4))
            return list(
                pool.map(_process_worker_migrate, tasks, chunksize=chunksize)
            )
