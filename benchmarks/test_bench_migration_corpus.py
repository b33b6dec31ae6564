"""E2 — migration pipeline throughput and zero-cleanup rate.
E15 — batch farm: serial vs parallel vs warm-cache corpus migration.

The paper reports "a high degree of automation with no manual post
translation cleanup".  Regenerated rows: for a sweep of corpus sizes, the
fraction of migrations that complete clean (verified, no errors) and the
pipeline throughput.  Expected shape: 100% clean across the corpus.

E15 turns the same workload corpus-scale: a 32-design corpus through the
migration farm, comparing the naive serial loop, ``jobs=4`` process
workers, and a warm-cache incremental re-run after touching one design.
Expected shape: parallel beats serial wherever more than one core is
visible (pool overhead stays bounded on a single core), and the warm
re-run performs exactly one migration.
"""

import os
import time

import pytest

from cadinterop.common.geometry import Point
from cadinterop.farm import MigrationFarm, ResultCache
from cadinterop.schematic.migrate import Migrator
from cadinterop.schematic.model import TextLabel
from cadinterop.schematic.samples import build_sample_plan, generate_chain_schematic

CORPUS = [
    (2, 2, 3),
    (2, 4, 5),
    (3, 4, 6),
    (4, 6, 6),
]


class TestCleanRate:
    def test_zero_manual_cleanup_across_corpus(self, vl_libraries):
        rows = {}
        for pages, chains, stages in CORPUS:
            cell = generate_chain_schematic(
                vl_libraries, pages=pages, chains_per_page=chains, stages=stages
            )
            result = Migrator(build_sample_plan(source_libraries=vl_libraries)).migrate(cell)
            rows[cell.name] = {
                "instances": cell.instance_count(),
                "clean": result.clean,
                "verified": result.verification.equivalent,
            }
        print(f"\nE2 rows: {rows}")
        assert all(row["clean"] for row in rows.values())
        assert all(row["verified"] for row in rows.values())


class TestThroughput:
    @pytest.mark.parametrize("pages,chains,stages", CORPUS[:2])
    def test_bench_corpus_migration(self, benchmark, vl_libraries, pages, chains, stages):
        cell = generate_chain_schematic(
            vl_libraries, pages=pages, chains_per_page=chains, stages=stages
        )
        plan = build_sample_plan(source_libraries=vl_libraries)

        result = benchmark(lambda: Migrator(plan).migrate(cell))
        benchmark.extra_info["instances"] = cell.instance_count()
        benchmark.extra_info["clean"] = result.clean

    def test_bench_verification_only(self, benchmark, vl_libraries):
        from cadinterop.schematic.verify import verify_migration

        cell = generate_chain_schematic(vl_libraries, pages=3, chains_per_page=4, stages=6)
        plan = build_sample_plan(source_libraries=vl_libraries, verify=False)
        result = Migrator(plan).migrate(cell)
        verification = benchmark(
            lambda: verify_migration(cell, result.schematic, plan.symbol_map, plan.global_map)
        )
        assert verification.equivalent


def _build_farm_corpus(vl_libraries, count=32):
    """``count`` distinct multi-page designs (names and contents differ)."""
    shapes = [(1, 2, 3), (2, 2, 4), (1, 3, 4), (2, 3, 3)]
    corpus = []
    for index in range(count):
        pages, chains, stages = shapes[index % len(shapes)]
        cell = generate_chain_schematic(
            vl_libraries, pages=pages, chains_per_page=chains, stages=stages,
            seed=index,
        )
        cell.name = f"farm{index:03d}"
        corpus.append(cell)
    return corpus


class TestFarmRows:
    """E15 rows: serial vs ``--jobs 4`` vs warm-cache over a 32-design corpus."""

    def test_farm_serial_parallel_warmcache_rows(self, tmp_path, vl_libraries):
        corpus = _build_farm_corpus(vl_libraries, count=32)
        plan = build_sample_plan(source_libraries=vl_libraries)
        cache_dir = tmp_path / "migration-cache"

        # Untimed warmup: absorb one-time costs that are not the farm's
        # (first fork of the interpreter, import caches, bus-parse memo) so
        # the rows compare steady-state behavior.
        MigrationFarm(plan, jobs=4).run(corpus[:2])

        # Row 1: the seed behavior — a naive serial loop, fresh Migrator per
        # design, no cache.
        start = time.perf_counter()
        serial_results = [Migrator(plan).migrate(cell) for cell in corpus]
        t_serial = time.perf_counter() - start
        assert all(result.clean for result in serial_results)

        # Row 2: farm, 4 process workers, cold cache.
        start = time.perf_counter()
        cold = MigrationFarm(plan, jobs=4, cache=ResultCache(cache_dir)).run(corpus)
        t_parallel = time.perf_counter() - start
        assert cold.migrated == len(corpus) and cold.cached == 0
        assert cold.cache_misses == len(corpus) and cold.cache_hits == 0
        assert cold.all_clean
        # The stage metrics, shipped back from the process workers, really
        # measured the pipeline.
        assert cold.stage_table()
        assert all(cold.metrics[f"stage.seconds[{s}]"]["count"] == len(corpus)
                   for s in ("scaling", "verification"))

        # Row 3: touch exactly one design, re-run warm — one migration, the
        # rest served from the on-disk cache.
        corpus[17].pages[0].add_label(TextLabel("rev B", Point(16, 16)))
        start = time.perf_counter()
        warm = MigrationFarm(plan, jobs=4, cache=ResultCache(cache_dir)).run(corpus)
        t_warm = time.perf_counter() - start
        assert warm.migrated == 1, "only the touched design should re-migrate"
        assert warm.cached == len(corpus) - 1
        assert warm.cache_hits == len(corpus) - 1 and warm.cache_misses == 1
        assert warm.all_clean

        cpus = os.cpu_count() or 1
        rows = {
            "designs": len(corpus),
            "instances": sum(cell.instance_count() for cell in corpus),
            "cpus": cpus,
            "serial_ms": round(t_serial * 1e3, 1),
            "jobs4_cold_ms": round(t_parallel * 1e3, 1),
            "warm_touched1_ms": round(t_warm * 1e3, 1),
            "warm_speedup_vs_serial": round(t_serial / t_warm, 1),
        }
        print(f"\nE15 rows: {rows}")

        # Warm-cache incremental re-run must crush the serial baseline on
        # any hardware: it digests 32 designs and migrates one.
        assert t_warm < t_serial / 3
        if cpus >= 2:
            # With real cores available, 4 workers beat the serial loop.
            assert t_parallel < t_serial
        else:
            # Single visible core: parallelism cannot win; require the pool
            # overhead to stay bounded instead.
            assert t_parallel < 2.0 * t_serial
