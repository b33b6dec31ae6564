"""E16 — observability overhead: traced vs untraced corpus migration.

The obs layer must be effectively free when disabled (the no-op
singletons) and cheap when enabled (append-a-dict per span).  Rows: the
same 32-design corpus through an inline single-job farm with (a) tracing
and metrics off, (b) on, and (c) on plus a JSONL export at the end.
Expected shape: (b) and (c) within 10% of (a).

Inline ``jobs=1`` is the worst case for relative overhead: process
workers amortize span recording behind fork/IPC costs, the inline
executor hides nothing.
"""

import time

import pytest

from cadinterop.farm import MigrationFarm
from cadinterop.obs import (
    MetricsRegistry,
    ObsContext,
    Tracer,
    get_metrics,
    get_tracer,
    installed,
    write_trace,
)
from cadinterop.schematic.samples import build_sample_plan, generate_chain_schematic

DESIGNS = 32
REPEATS = 3
MAX_OVERHEAD = 0.10


def _corpus(vl_libraries, count=DESIGNS):
    shapes = [(1, 2, 3), (2, 2, 4), (1, 3, 4), (2, 3, 3)]
    corpus = []
    for index in range(count):
        pages, chains, stages = shapes[index % len(shapes)]
        cell = generate_chain_schematic(
            vl_libraries, pages=pages, chains_per_page=chains, stages=stages,
            seed=index,
        )
        cell.name = f"obs{index:03d}"
        corpus.append(cell)
    return corpus


def _timed_run(plan, corpus):
    start = time.perf_counter()
    report = MigrationFarm(plan, jobs=1, executor="inline").run(corpus)
    elapsed = time.perf_counter() - start
    assert report.migrated == len(corpus) and report.all_clean
    return elapsed


class TestObsOverhead:
    def test_tracing_overhead_is_bounded(self, tmp_path, vl_libraries):
        corpus = _corpus(vl_libraries)
        plan = build_sample_plan(source_libraries=vl_libraries)

        # Untimed warmup (import caches, bus-parse memo).
        _timed_run(plan, corpus[:4])

        def best(run):
            return min(run() for _ in range(REPEATS))

        t_off = best(lambda: _timed_run(plan, corpus))

        def traced_run(export_to=None):
            context = ObsContext(Tracer(), MetricsRegistry())
            with installed(context):
                elapsed = _timed_run(plan, corpus)
            spans = context.tracer.spans()
            if export_to is not None:
                write_trace(export_to, spans, context.metrics.snapshot(),
                            trace_id=context.tracer.trace_id)
            # Every design span plus per-stage spans made it in.
            assert sum(s["name"] == "migrate" for s in spans) == len(corpus)
            return elapsed

        t_on = best(traced_run)
        t_export = best(lambda: traced_run(tmp_path / "e16.jsonl"))

        rows = {
            "designs": len(corpus),
            "off_ms": round(t_off * 1e3, 1),
            "traced_ms": round(t_on * 1e3, 1),
            "traced_export_ms": round(t_export * 1e3, 1),
            "overhead_traced": round(t_on / t_off - 1.0, 4),
            "overhead_export": round(t_export / t_off - 1.0, 4),
        }
        print(f"\nE16 rows: {rows}")

        assert not get_tracer().enabled and not get_metrics().enabled
        assert t_on < t_off * (1.0 + MAX_OVERHEAD), rows
        assert t_export < t_off * (1.0 + MAX_OVERHEAD), rows

    def test_disabled_singletons_add_no_instrumentation_cost(self, vl_libraries):
        """With obs off, the guarded call sites reduce to attribute checks:
        a micro-benchmark of the hot helpers stays in the tens of ns."""
        tracer = get_tracer()
        metrics = get_metrics()
        assert not tracer.enabled and not metrics.enabled
        iterations = 100_000
        start = time.perf_counter()
        for _ in range(iterations):
            with tracer.span("x", a=1):
                pass
            metrics.counter("x").inc()
        per_pair_us = (time.perf_counter() - start) / iterations * 1e6
        print(f"\nE16 null-path cost: {per_pair_us:.3f} us per span+counter")
        assert per_pair_us < 5.0
