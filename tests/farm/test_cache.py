"""Result cache correctness: hits equal cold runs, edits invalidate,
corruption is a miss — never an error."""

import enum
import gc
import hashlib
import pickle
import weakref
from fractions import Fraction

import pytest

from cadinterop.common.diagnostics import Category, Issue, Severity
from cadinterop.common.geometry import Orientation, Point, Rect, Transform
from cadinterop.common.properties import PropertyBag
from cadinterop.farm import CACHE_FORMAT, MigrationFarm, ResultCache, cache_key
from cadinterop.farm import cache as cache_module
from cadinterop.obs import MetricsRegistry, ObsContext, installed
from cadinterop.schematic.migrate import Migrator
from cadinterop.schematic import io_cd
from cadinterop.schematic.migrate import PIPELINE_VERSION
from cadinterop.schematic.model import Instance, TextLabel, Wire
from cadinterop.schematic.ripup import ReplacementStats
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


def state(value):
    """Every field of ``value``, recursively, as comparable data that names
    each object's type: two values with equal states are equal field for
    field (``PropertyBag.__eq__`` compares values only)."""
    if isinstance(value, (str, int, float, type(None), enum.Enum, Fraction)):
        return (type(value).__name__, value)
    if isinstance(value, PropertyBag):
        return ("PropertyBag", [state(prop) for prop in value])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [state(item) for item in value])
    if isinstance(value, (set, frozenset)):
        return (type(value).__name__, sorted(repr(state(item)) for item in value))
    if isinstance(value, dict):
        return ("dict", [(state(k), state(v)) for k, v in value.items()])
    return (type(value).__name__, {name: state(field) for name, field in vars(value).items()})


def corpus(vl_libs):
    """Chain cells of several shapes, off-grid label anchors included, and
    the two-page sample with ports."""
    cells = [build_sample_schematic(vl_libs)]
    for index, (pages, chains, stages, offgrid) in enumerate(
        [(1, 2, 3, 0), (2, 3, 4, 2), (1, 6, 9, 0)]
    ):
        cell = generate_chain_schematic(
            vl_libs, pages=pages, chains_per_page=chains, stages=stages,
            seed=index, offgrid_labels=offgrid,
        )
        cell.name = f"unit{index:02d}"
        cells.append(cell)
    return cells


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


class TestRoundTrip:
    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_disk_hit_equals_fresh_migration_field_for_field(
        self, tmp_path, plan, vl_libs, executor
    ):
        designs = corpus(vl_libs)
        cold = MigrationFarm(plan, jobs=2, cache=ResultCache(tmp_path), executor=executor)
        assert cold.run(designs).migrated == len(designs)
        warm = MigrationFarm(plan, jobs=2, cache=ResultCache(tmp_path), executor=executor)
        report = warm.run(designs)
        assert report.cached == len(designs)
        migrator = Migrator(plan)
        for design, item in zip(designs, report.items):
            fresh = migrator.migrate(design)
            assert state(item.result) == state(fresh), design.name

    @pytest.mark.parametrize(
        "value",
        [
            Point(-3, 7),
            Rect(-1, 2, 30, 40),
            Transform(Point(16, -8), Orientation.MY90),
            PropertyBag(),
            Wire([Point(0, 0), Point(0, 16), Point(32, 16)], label="D<0>",
                 label_position=Point(4, 16)),
            Wire([Point(8, 8), Point(8, 8)]),
            Issue(Severity.WARNING, Category.SCALING, "U1", "snapped", remedy="redraw"),
            ReplacementStats("U1", 1, 2, 3, 4, 5),
        ],
        ids=lambda value: type(value).__name__,
    )
    def test_compact_pickles_are_lossless(self, value):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(value, protocol=protocol))
            assert state(copy) == state(value), protocol

    def test_instance_and_bag_pickles_keep_every_field(self, vl_libs):
        bag = PropertyBag()
        bag.set("wl", "1u/0.5u")
        bag.set("hidden", 3, visible=False, origin="a/L")
        bag.set("flag", True, origin="property-map")
        instance = Instance(
            "U1", vl_libs.resolve("vl_prims", "inv"),
            Transform(Point(160, 96), Orientation.R90), bag,
        )
        copy = pickle.loads(pickle.dumps(instance, protocol=pickle.HIGHEST_PROTOCOL))
        assert state(copy) == state(instance)
        assert [prop.origin for prop in copy.properties] == ["native", "a/L", "property-map"]


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

    def test_pipeline_version_participates(self, tmp_path, plan, sample, monkeypatch):
        run_once(plan, [sample], ResultCache(tmp_path))
        monkeypatch.setattr(cache_module, "PIPELINE_VERSION", PIPELINE_VERSION + "-next")
        report = run_once(plan, [sample], ResultCache(tmp_path))
        assert report.migrated == 1 and report.cached == 0

    def test_cache_key_hashes_the_pipeline_version(self, monkeypatch):
        key = cache_key("d" * 64, "p" * 64)
        assert cache_key("d" * 64, "p" * 64) == key
        monkeypatch.setattr(cache_module, "PIPELINE_VERSION", PIPELINE_VERSION + "-next")
        assert cache_key("d" * 64, "p" * 64) != key

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

    def entry_parts(self, entry):
        """(format, key, checksum, pickled result) of a format-3 entry."""
        header, _newline, blob = entry.read_bytes().partition(b"\n")
        fmt, key, checksum = header.decode("ascii").split(" ")
        return int(fmt), key, checksum, blob

    def assert_dropped(self, tmp_path, entry, key):
        counts = lookup_counts(ResultCache(tmp_path), key)
        assert counts == {"farm.cache.corrupt": 1, "farm.cache.misses": 1}
        assert not entry.exists()

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
        # A well-formed entry whose checksummed payload is not a result.
        run_once(plan, [sample], ResultCache(tmp_path))
        (entry,) = self.entries(tmp_path)
        _fmt, key, _checksum, _blob = self.entry_parts(entry)
        blob = pickle.dumps(42)
        checksum = hashlib.sha256(blob).hexdigest()
        entry.write_bytes(f"{CACHE_FORMAT} {key} {checksum}\n".encode("ascii") + blob)
        report = run_once(plan, [sample], ResultCache(tmp_path))
        assert report.migrated == 1 and report.cached == 0
        assert report.cache_corrupt == 1

    def test_format_1_entry_is_corrupt_and_deleted(self, tmp_path, plan, sample):
        # Format 1 pickled {"format", "key", "result"} with per-stage
        # timings in the result; format 2 dropped the timings; format 3 is a
        # checksummed header line and the result in compact pickled forms.
        run_once(plan, [sample], ResultCache(tmp_path))
        (entry,) = self.entries(tmp_path)
        fmt, key, checksum, blob = self.entry_parts(entry)
        assert fmt == CACHE_FORMAT == 3
        assert checksum == hashlib.sha256(blob).hexdigest()
        result = pickle.loads(blob)
        entry.write_bytes(pickle.dumps({"format": 1, "key": key, "result": result}))
        self.assert_dropped(tmp_path, entry, key)

    def test_format_2_entry_is_corrupt_and_deleted(self, tmp_path, plan, sample):
        run_once(plan, [sample], ResultCache(tmp_path))
        (entry,) = self.entries(tmp_path)
        _fmt, key, _checksum, blob = self.entry_parts(entry)
        payload = {"format": 2, "key": key, "result": pickle.loads(blob)}
        entry.write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        self.assert_dropped(tmp_path, entry, key)

    def test_truncated_format_3_entry_is_corrupt_and_deleted(self, tmp_path, plan, sample):
        run_once(plan, [sample], ResultCache(tmp_path))
        (entry,) = self.entries(tmp_path)
        _fmt, key, _checksum, _blob = self.entry_parts(entry)
        data = entry.read_bytes()
        entry.write_bytes(data[: len(data) // 2])
        self.assert_dropped(tmp_path, entry, key)

    def test_altered_format_3_entry_is_corrupt_and_deleted(self, tmp_path, plan, sample):
        run_once(plan, [sample], ResultCache(tmp_path))
        (entry,) = self.entries(tmp_path)
        _fmt, key, _checksum, blob = self.entry_parts(entry)
        header = entry.read_bytes()[: -len(blob)]
        # One letter of a property name: the same length and still a valid
        # pickle of a different result, so only the checksum can tell.
        altered = blob.replace(b"migrated_by", b"migrated_bY", 1)
        assert altered != blob
        assert state(pickle.loads(altered)) != state(pickle.loads(blob))
        entry.write_bytes(header + altered)
        self.assert_dropped(tmp_path, entry, key)

    def test_entry_filed_under_another_key_is_corrupt_and_deleted(
        self, tmp_path, plan, sample
    ):
        run_once(plan, [sample], ResultCache(tmp_path))
        (entry,) = self.entries(tmp_path)
        other = tmp_path / f"{cache_key('d' * 64, 'p' * 64)}.migr.pkl"
        entry.rename(other)
        self.assert_dropped(tmp_path, other, other.name.split(".")[0])

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

