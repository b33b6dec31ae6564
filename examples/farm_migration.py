#!/usr/bin/env python3
"""Corpus migration through the farm: parallel workers + content-hash cache.

The paper's engagement migrated whole schematic libraries, not single
drawings.  This demo replays that workload shape with the batch farm:

1. build a 12-design corpus of multi-page chain schematics;
2. cold run — every design migrates, stage profile shows where time goes;
3. warm run — nothing changed, every design is served from the on-disk
   content-addressed cache;
4. touch ONE design and re-run — exactly one migration happens, the other
   eleven are cache hits (the incremental re-execution that makes repeated
   corpus jobs pay off).

Run:  python examples/farm_migration.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

from cadinterop.common.geometry import Point
from cadinterop.farm import MigrationFarm, ResultCache
from cadinterop.schematic.model import TextLabel
from cadinterop.schematic.samples import (
    build_sample_plan,
    build_vl_libraries,
    generate_chain_schematic,
)

CORPUS_SIZE = 12
JOBS = 4


def build_corpus(libraries):
    shapes = [(1, 2, 3), (2, 2, 4), (1, 3, 5), (2, 3, 4)]
    corpus = []
    for index in range(CORPUS_SIZE):
        pages, chains, stages = shapes[index % len(shapes)]
        cell = generate_chain_schematic(
            libraries, pages=pages, chains_per_page=chains, stages=stages, seed=index
        )
        cell.name = f"corpus{index:02d}"
        corpus.append(cell)
    return corpus


def main() -> None:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    cache_dir = workdir / "migration-cache"
    print(f"cache directory: {cache_dir}\n")

    libraries = build_vl_libraries()
    corpus = build_corpus(libraries)
    plan = build_sample_plan(source_libraries=libraries)
    total_instances = sum(cell.instance_count() for cell in corpus)
    print(f"corpus: {len(corpus)} designs, {total_instances} instances total")

    # --- 2. cold run: every design migrates -------------------------------
    farm = MigrationFarm(plan, jobs=JOBS, cache=ResultCache(cache_dir))
    cold = farm.run(corpus)
    print(f"\ncold run : {cold.summary()}")
    # The stage table comes from the run's stage.* metrics, which the
    # process workers ship back with each design.
    print("\nstage profile (cold):")
    print(cold.stage_table())
    assert cold.metrics["stage.seconds[verification]"]["count"] == len(corpus)

    # --- 3. warm run: nothing changed, all cache hits ---------------------
    warm = MigrationFarm(plan, jobs=JOBS, cache=ResultCache(cache_dir)).run(corpus)
    print(f"\nwarm run : {warm.summary()}")
    assert warm.cached == len(corpus), "warm run should be served from cache"

    # --- 4. touch one design, re-run: exactly one migration ---------------
    corpus[5].pages[0].add_label(TextLabel("rev B", Point(16, 16)))
    touched = MigrationFarm(plan, jobs=JOBS, cache=ResultCache(cache_dir)).run(corpus)
    print(f"touched  : {touched.summary()}")
    assert touched.migrated == 1 and touched.cached == len(corpus) - 1
    redone = [item.design for item in touched.items if item.status == "migrated"]
    print(f"\nre-migrated only {redone} after its edit; "
          f"{touched.cached} designs reused from cache")
    speedup = cold.wall_seconds / max(touched.wall_seconds, 1e-9)
    print(f"incremental re-run was {speedup:.1f}x faster than the cold run")


if __name__ == "__main__":
    main()
