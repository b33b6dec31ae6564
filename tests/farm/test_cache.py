"""Result cache correctness: hits equal cold runs, edits invalidate,
corruption is a miss — never an error."""

import gc
import pickle
import weakref

import pytest

from cadinterop.common.geometry import Point
from cadinterop.farm import CACHE_FORMAT, MigrationFarm, ResultCache, cache_key
from cadinterop.obs import MetricsRegistry, ObsContext, installed
from cadinterop.schematic.migrate import Migrator
from cadinterop.schematic import io_cd
from cadinterop.schematic.migrate import PIPELINE_VERSION
from cadinterop.schematic.model import TextLabel, Wire
from cadinterop.schematic.samples import (
    build_sample_plan,
    build_sample_schematic,
    build_vl_libraries,
    generate_chain_schematic,
)


@pytest.fixture(scope="module")
def vl_libs():
    return build_vl_libraries()


@pytest.fixture()
def plan(vl_libs):
    return build_sample_plan(source_libraries=vl_libs)


@pytest.fixture()
def sample(vl_libs):
    return build_sample_schematic(vl_libs)


def run_once(plan, designs, cache):
    return MigrationFarm(plan, jobs=1, cache=cache).run(designs)


def lookup_counts(cache, key):
    """Look ``key`` up under a context with metrics on; return its counts."""
    context = ObsContext(metrics=MetricsRegistry())
    with installed(context):
        assert cache.get(key) is None
    return {name: data["value"] for name, data in context.metrics.snapshot().items()}


class TestWarmHitEqualsColdRun:
    def test_cached_result_equals_fresh_result(self, tmp_path, plan, sample):
        cold = run_once(plan, [sample], ResultCache(tmp_path))
        assert cold.migrated == 1 and cold.cached == 0

        # New cache instance over the same directory: persistence, not memory.
        warm = run_once(plan, [sample], ResultCache(tmp_path))
        assert warm.migrated == 0 and warm.cached == 1
        assert warm.cache_hits == 1 and warm.cache_misses == 0

        fresh, cached = cold.items[0].result, warm.items[0].result
        assert cached.clean == fresh.clean
        assert cached.bus_renames == fresh.bus_renames
        assert cached.replacements.replacements == fresh.replacements.replacements
        assert cached.verification.equivalent == fresh.verification.equivalent
        assert io_cd.dump_schematic(cached.schematic) == io_cd.dump_schematic(
            fresh.schematic
        )

    def test_hit_and_miss_counters_populated(self, tmp_path, plan, sample):
        cache = ResultCache(tmp_path)
        report = run_once(plan, [sample], cache)
        assert report.cache_misses == 1 and report.cache_hits == 0
        report = run_once(plan, [sample], cache)
        assert report.cache_hits == 1

    def test_reused_cache_reports_this_run_only(self, tmp_path, plan, vl_libs):
        # One farm, one cache, three runs over the same four designs: the
        # first run misses all four, and each later run reports its own
        # four hits, never a running total.
        designs = []
        for index in range(4):
            cell = generate_chain_schematic(
                vl_libs, pages=1, chains_per_page=2, stages=3, seed=index
            )
            cell.name = f"unit{index:02d}"
            designs.append(cell)
        farm = MigrationFarm(plan, jobs=1, cache=ResultCache(tmp_path))
        reports = [farm.run(designs) for _ in range(3)]
        assert [(r.cache_hits, r.cache_misses) for r in reports] == [
            (0, 4), (4, 0), (4, 0),
        ]
        report = reports[-1]
        assert report.metrics["farm.cache.hits"]["value"] == 4
        assert "farm.cache.misses" not in report.metrics
        # The report's counts are views over its own metrics.
        for report in reports:
            for name in ("hits", "misses", "corrupt"):
                metric = report.metrics.get(f"farm.cache.{name}", {"value": 0})
                assert getattr(report, f"cache_{name}") == metric["value"]


class TestInvalidation:
    def test_editing_a_wire_invalidates(self, tmp_path, plan, sample):
        run_once(plan, [sample], ResultCache(tmp_path))
        sample.pages[0].add_wire(Wire([Point(448, 192), Point(448, 224)]))
        report = run_once(plan, [sample], ResultCache(tmp_path))
        assert report.migrated == 1 and report.cached == 0

    def test_renaming_a_net_invalidates(self, tmp_path, plan, sample):
        run_once(plan, [sample], ResultCache(tmp_path))
        sample.pages[0].wires[3].label = "N1X"
        report = run_once(plan, [sample], ResultCache(tmp_path))
        assert report.migrated == 1 and report.cached == 0

    def test_cosmetic_label_invalidates(self, tmp_path, plan, sample):
        run_once(plan, [sample], ResultCache(tmp_path))
        sample.pages[1].add_label(TextLabel("rev B", Point(8, 8)))
        report = run_once(plan, [sample], ResultCache(tmp_path))
        assert report.migrated == 1 and report.cached == 0

    def test_replacement_strategy_change_invalidates(self, tmp_path, plan, sample):
        run_once(plan, [sample], ResultCache(tmp_path))
        plan.replacement_strategy = "naive"
        report = run_once(plan, [sample], ResultCache(tmp_path))
        assert report.migrated == 1 and report.cached == 0

    def test_verify_flag_change_invalidates(self, tmp_path, plan, sample):
        run_once(plan, [sample], ResultCache(tmp_path))
        plan.verify = False
        report = run_once(plan, [sample], ResultCache(tmp_path))
        assert report.migrated == 1 and report.cached == 0

    def test_pipeline_version_participates(self, tmp_path, plan, sample):
        run_once(plan, [sample], ResultCache(tmp_path))
        bumped = ResultCache(tmp_path, pipeline_version=PIPELINE_VERSION + "-next")
        report = run_once(plan, [sample], bumped)
        assert report.migrated == 1 and report.cached == 0

    def test_unrelated_design_untouched_entries_survive(self, tmp_path, plan, vl_libs):
        first = build_sample_schematic(vl_libs)
        second = build_sample_schematic(vl_libs)
        second.name = "mixed2"
        run_once(plan, [first, second], ResultCache(tmp_path))
        second.pages[0].add_label(TextLabel("touched", Point(8, 8)))
        report = run_once(plan, [first, second], ResultCache(tmp_path))
        assert report.cached == 1 and report.migrated == 1
        migrated = [item.design for item in report.items if item.status == "migrated"]
        assert migrated == ["mixed2"]


class TestCorruption:
    def entries(self, tmp_path):
        return sorted(tmp_path.glob("*.migr.pkl"))

    def test_truncated_entry_is_a_miss(self, tmp_path, plan, sample):
        run_once(plan, [sample], ResultCache(tmp_path))
        (entry,) = self.entries(tmp_path)
        entry.write_bytes(entry.read_bytes()[:16])
        report = run_once(plan, [sample], ResultCache(tmp_path))
        assert report.migrated == 1 and report.cached == 0
        assert (report.cache_corrupt, report.cache_misses) == (1, 1)

    def test_garbage_bytes_are_a_miss(self, tmp_path, plan, sample):
        run_once(plan, [sample], ResultCache(tmp_path))
        (entry,) = self.entries(tmp_path)
        entry.write_bytes(b"this is not a pickle")
        report = run_once(plan, [sample], ResultCache(tmp_path))
        assert report.migrated == 1 and report.cached == 0
        # The corrupted entry was replaced with a good one.
        report = run_once(plan, [sample], ResultCache(tmp_path))
        assert report.cached == 1

    def test_wrong_payload_type_is_a_miss(self, tmp_path, plan, sample):
        run_once(plan, [sample], ResultCache(tmp_path))
        (entry,) = self.entries(tmp_path)
        entry.write_bytes(pickle.dumps({"format": 1, "key": "bogus", "result": 42}))
        report = run_once(plan, [sample], ResultCache(tmp_path))
        assert report.migrated == 1 and report.cached == 0

    def test_format_1_entry_is_corrupt_and_deleted(self, tmp_path, plan, sample):
        # Format 1 results carried per-stage timings; format 2 dropped them.
        run_once(plan, [sample], ResultCache(tmp_path))
        (entry,) = self.entries(tmp_path)
        payload = pickle.loads(entry.read_bytes())
        assert payload["format"] == CACHE_FORMAT == 2
        entry.write_bytes(pickle.dumps(dict(payload, format=1)))
        counts = lookup_counts(ResultCache(tmp_path), payload["key"])
        assert counts == {"farm.cache.corrupt": 1, "farm.cache.misses": 1}
        assert not entry.exists()

    def test_corrupt_entry_never_raises(self, tmp_path):
        key = cache_key("d" * 64, "p" * 64)
        (tmp_path / f"{key}.migr.pkl").write_bytes(b"\x80garbage")
        counts = lookup_counts(ResultCache(tmp_path), key)
        assert counts == {"farm.cache.corrupt": 1, "farm.cache.misses": 1}


class TestSingleStore:
    def test_disk_cache_keeps_no_reference_to_a_stored_result(
        self, tmp_path, plan, sample
    ):
        cache = ResultCache(tmp_path)
        key = cache_key("d" * 64, "p" * 64)
        result = Migrator(plan).migrate(sample)
        expected = io_cd.dump_schematic(result.schematic)
        cache.put(key, result)
        alive = weakref.ref(result)
        del result
        gc.collect()
        assert alive() is None
        copy = cache.get(key)
        assert copy is not None
        assert io_cd.dump_schematic(copy.schematic) == expected

    def test_cache_keeps_no_counters_of_its_own(self, tmp_path):
        cache = ResultCache(tmp_path)
        for name in ("metrics", "hits", "misses", "corrupt", "stores", "key_for"):
            assert not hasattr(cache, name), name
        with pytest.raises(TypeError):
            ResultCache(tmp_path, metrics=MetricsRegistry())


class TestMemoryOnlyCache:
    def test_memory_cache_round_trip(self, plan, sample):
        cache = ResultCache(None)
        report = run_once(plan, [sample], cache)
        assert report.migrated == 1
        report = run_once(plan, [sample], cache)
        assert report.cached == 1
        assert (report.cache_hits, report.cache_misses) == (1, 0)
