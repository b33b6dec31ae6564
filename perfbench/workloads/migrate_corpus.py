"""migrate-corpus: a heavy-tailed schematic library through the migration farm.

A cold pass migrates and verifies every design into an empty on-disk
``ResultCache``; a warm pass over the same library, with one small design
touched, digests everything, reads the cache and migrates one design.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from cadinterop.common.geometry import Point
from cadinterop.farm import MigrationFarm, ResultCache
from cadinterop.schematic.migrate import Migrator
from cadinterop.schematic.model import Schematic, TextLabel
from cadinterop.schematic.samples import (
    build_sample_plan,
    build_vl_libraries,
    generate_chain_schematic,
)

from perfbench.harness import WORK_DIR, Round, Spec, cpu_clock

#: Every (pages, chains, stages) small shape, each used SMALL_COPIES times:
#: 1-2 pages, 2-4 chains, 3-6 stages.
SMALL_SHAPES = list(itertools.product((1, 2), (2, 3, 4), (3, 4, 5, 6)))
SMALL_COPIES = 4
#: Single large pages of exactly 60 wires (chains x (stages + 1)), half each.
LARGE_SHAPES = [(1, 6, 9), (1, 10, 5)]
LARGE_COUNT = 14

SPEC = Spec(
    name="migrate-corpus",
    seed=(
        "permutes the corpus order, seeds each design's analog properties, "
        "names the designs and picks the small design the warm pass touches; "
        "the shape mix is fixed, so every seed does the same amount of work"
    ),
    why=(
        "extraction is quadratic in wire count, so the 60-wire pages make "
        "schematic.netlist.extract most of cold time while the small designs "
        "set p50; the warm pass runs the farm's digest and cache-read path "
        "with one migration, so a gain for writes that costs reads shows up"
    ),
    success=(
        "cold pass: every design migrated, clean, verified equivalent, with "
        "chains * (1 + pages * stages) matched nets",
        "warm pass: exactly the touched design migrated, every other design "
        "served from the cache, all clean with the same matched-net counts",
    ),
    work_counter="bench.designs_migrated_cold",
    names={
        "work_per_s": "designs_per_s",
        "op_ms_p50": "design_ms_p50",
        "op_ms_p90": "design_ms_p90",
    },
)


@dataclass
class Corpus:
    cold: List[Schematic]
    #: The same library with one small design replaced by a touched copy.
    warm: List[Schematic]
    #: Matched nets each design's verification must report, by design name.
    matched: dict
    #: Design name -> its generated shape; designs of one shape do the same
    #: work, so the benchmark pools their timings.
    shape: dict
    #: The design the warm pass re-migrates.
    touched: str


def setup():
    libraries = build_vl_libraries()
    return libraries, build_sample_plan(source_libraries=libraries)


def shapes(scale: float) -> List[Tuple[Tuple[int, int, int], bool]]:
    """(shape, is_large) for every design at ``scale``, in declaration order."""
    copies = max(1, round(SMALL_COPIES * scale))
    large = max(2, round(LARGE_COUNT * scale))
    small = [(shape, False) for shape in SMALL_SHAPES for _ in range(copies)]
    return small + [(LARGE_SHAPES[i % len(LARGE_SHAPES)], True) for i in range(large)]


def generate(seed: int, shared, scale: float = 1.0) -> Corpus:
    libraries, _plan = shared
    rng = random.Random(seed)
    order = shapes(scale)
    rng.shuffle(order)
    cold, warm, matched, shape = [], [], {}, {}
    specs = []
    for index, ((pages, chains, stages), large) in enumerate(order):
        name = f"{'big' if large else 'cell'}{index:03d}_{rng.randrange(1 << 16):04x}"
        specs.append((name, pages, chains, stages, rng.randrange(1 << 30)))
        matched[name] = chains * (1 + pages * stages)
        shape[name] = f"p{pages}c{chains}s{stages}"
    touched = rng.choice([i for i, (_shape, large) in enumerate(order) if not large])
    for index, (name, pages, chains, stages, design_seed) in enumerate(specs):
        def build() -> Schematic:
            cell = generate_chain_schematic(
                libraries, pages=pages, chains_per_page=chains, stages=stages,
                seed=design_seed,
            )
            cell.name = name
            return cell

        cell = build()
        cold.append(cell)
        if index == touched:
            edited = build()
            edited.pages[0].add_label(TextLabel("rev B", Point(16, 16)))
            warm.append(edited)
        else:
            warm.append(cell)
    return Corpus(cold, warm, matched, shape, specs[touched][0])


def expected_counts(corpus: Corpus) -> dict:
    """Per round: the cold pass misses every design, the warm pass only the
    touched one."""
    designs = len(corpus.cold)
    return {
        "bench.designs_migrated_cold": designs,
        "farm.cache.misses": designs + 1,
        "farm.cache.hits": designs - 1,
    }


def _check(round_: Round, corpus: Corpus, report, status_of) -> None:
    for item in report.items:
        result = item.result
        ok = (
            item.status == status_of(item.design)
            and result is not None
            and result.clean
            and result.verification is not None
            and result.verification.equivalent
            and result.verification.matched_nets == corpus.matched[item.design]
        )
        round_.check(ok, f"{item.design}: status {item.status}, error {item.error}")


@contextlib.contextmanager
def timed_migrations(seconds: Dict[str, float]) -> Iterator[None]:
    """Record each ``Migrator.migrate`` call's CPU seconds by design name.

    The farm times designs by wall clock; the benchmark times operations in
    CPU seconds (see :mod:`perfbench.harness`), so it wraps the method for
    the cold pass and puts back whatever was there before.
    """
    original = vars(Migrator)["migrate"]

    def migrate(self, source, *args, **kwargs):
        start = cpu_clock()
        try:
            return original(self, source, *args, **kwargs)
        finally:
            seconds[source.name] = cpu_clock() - start

    Migrator.migrate = migrate
    try:
        yield
    finally:
        Migrator.migrate = original


def run_round(shared, corpus: Corpus) -> Round:
    _libraries, plan = shared
    result = Round()
    WORK_DIR.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="migrate-", dir=WORK_DIR)
    try:
        design_seconds: Dict[str, float] = {}
        start = cpu_clock()
        with timed_migrations(design_seconds):
            cold = MigrationFarm(plan, cache=ResultCache(cache_dir), executor="inline").run(
                corpus.cold
            )
        cold_seconds = cpu_clock() - start
        _check(result, corpus, cold, lambda name: "migrated")
        result.op_seconds = {
            item.design: design_seconds[item.design]
            for item in cold.items
            if item.status == "migrated"
        }
        result.overhead_seconds = cold_seconds - sum(result.op_seconds.values())
        result.op_class = corpus.shape

        start = cpu_clock()
        warm = MigrationFarm(plan, cache=ResultCache(cache_dir), executor="inline").run(
            corpus.warm
        )
        result.extras["warm_rerun_s"] = cpu_clock() - start
        _check(
            result, corpus, warm,
            lambda name: "migrated" if name == corpus.touched else "cached",
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    result.counters = {
        "bench.designs_migrated_cold": cold.migrated,
        "farm.cache.hits": cold.cached + warm.cached,
        "farm.cache.misses": (cold.total - cold.cached) + (warm.total - warm.cached),
    }
    return result
