"""Round-trip tests for the two vendor file formats."""

import re

import pytest

from cadinterop.schematic import io_cd, io_vl
from cadinterop.schematic.io_cd import CDFormatError
from cadinterop.schematic.io_vl import VLFormatError
from cadinterop.schematic.migrate import Migrator, schematic_digest
from cadinterop.schematic.model import LibrarySet, SchematicError
from cadinterop.schematic.netlist import extract
from cadinterop.schematic.samples import (
    build_cd_libraries,
    build_sample_plan,
    build_sample_schematic,
    build_vl_libraries,
    generate_chain_schematic,
)


@pytest.fixture
def vl_libs():
    return build_vl_libraries()


@pytest.fixture
def sample(vl_libs):
    return build_sample_schematic(vl_libs)


def with_duplicate_name(sample, page_index):
    """``sample`` with instance U2 renamed U1 on page 1, or with page 2's
    U3 renamed U1 (a name may recur on another page)."""
    page = sample.pages[page_index]
    page.instances[1 if page_index == 0 else 0].name = "U1"
    return sample


def schematics_equal(a, b):
    """Structural equality good enough for round-trip checking."""
    assert a.name == b.name and a.dialect == b.dialect
    assert [(p.name, p.direction) for p in a.ports] == [
        (p.name, p.direction) for p in b.ports
    ]
    assert a.properties.as_dict() == b.properties.as_dict()
    assert len(a.pages) == len(b.pages)
    for page_a, page_b in zip(a.pages, b.pages):
        assert page_a.frame == page_b.frame
        assert len(page_a.instances) == len(page_b.instances)
        for ia, ib in zip(page_a.instances, page_b.instances):
            assert ia.name == ib.name
            assert ia.symbol.full_name == ib.symbol.full_name
            assert ia.transform == ib.transform
            assert ia.properties.as_dict() == ib.properties.as_dict()
        assert [(w.label, w.label_position, w.points) for w in page_a.wires] == [
            (w.label, w.label_position, w.points) for w in page_b.wires
        ]
        assert [(l.text, l.position, l.height) for l in page_a.labels] == [
            (l.text, l.position, l.height) for l in page_b.labels
        ]
    # Connectivity-level equality too.
    assert extract(a).signature() == extract(b).signature()


class TestVLRoundTrip:
    def test_library_roundtrip(self, vl_libs):
        lib = vl_libs.library("vl_prims")
        text = io_vl.dump_library(lib)
        loaded = io_vl.load_library(text)
        assert len(loaded) == len(lib)
        nand = loaded.get("nand2")
        assert nand.pin("A").position == lib.get("nand2").pin("A").position
        assert nand.kind == "component"

    def test_schematic_roundtrip(self, vl_libs, sample):
        text = io_vl.dump_schematic(sample)
        loaded = io_vl.load_schematic(text, vl_libs)
        schematics_equal(sample, loaded)

    def test_names_with_spaces_and_specials(self, vl_libs, sample):
        sample.properties.set("note", "two words & <brackets>")
        text = io_vl.dump_schematic(sample)
        loaded = io_vl.load_schematic(text, vl_libs)
        assert loaded.properties.get("note") == "two words & <brackets>"

    def test_typed_properties_roundtrip(self, vl_libs, sample):
        sample.properties.set("count", 42)
        sample.properties.set("ratio", 2.5)
        sample.properties.set("flag", True)
        loaded = io_vl.load_schematic(io_vl.dump_schematic(sample), vl_libs)
        assert loaded.properties.get("count") == 42
        assert loaded.properties.get("ratio") == 2.5
        assert loaded.properties.get("flag") is True

    def test_comments_and_blanks_ignored(self, vl_libs, sample):
        text = "# header comment\n\n" + io_vl.dump_schematic(sample)
        loaded = io_vl.load_schematic(text, vl_libs)
        assert loaded.name == sample.name

    def test_missing_header(self, vl_libs):
        with pytest.raises(VLFormatError):
            io_vl.load_schematic("PAGE 1 0 0 1 1\nEND\n", vl_libs)

    def test_missing_end(self, vl_libs, sample):
        text = io_vl.dump_schematic(sample).replace("\nEND\n", "\n")
        with pytest.raises(VLFormatError):
            io_vl.load_schematic(text, vl_libs)

    def test_unknown_master_rejected(self, sample):
        text = io_vl.dump_schematic(sample)
        with pytest.raises(SchematicError):
            io_vl.load_schematic(text, LibrarySet())

    def test_duplicate_instance_name_rejected(self, vl_libs, sample):
        text = io_vl.dump_schematic(with_duplicate_name(sample, 0))
        with pytest.raises(SchematicError, match="^duplicate instance 'U1' on page 1$"):
            io_vl.load_schematic(text, vl_libs)

    def test_name_may_recur_on_another_page(self, vl_libs, sample):
        sample = with_duplicate_name(sample, 1)
        loaded = io_vl.load_schematic(io_vl.dump_schematic(sample), vl_libs)
        schematics_equal(sample, loaded)

    def test_wire_count_mismatch(self, vl_libs):
        text = "VLSCHEM 1 c viewdraw-like\nPAGE 1 0 0 10 10\nW - 2 0 0\nENDPAGE\nEND\n"
        with pytest.raises(VLFormatError):
            io_vl.load_schematic(text, vl_libs)

    @pytest.mark.parametrize("record", ["T 1 2", "W - x 0 0"])
    def test_short_or_malformed_record_is_named(self, vl_libs, record):
        text = f"VLSCHEM 1 c viewdraw-like\nPAGE 1 0 0 10 10\n{record}\nENDPAGE\nEND\n"
        with pytest.raises(VLFormatError, match=re.escape(repr(record))):
            io_vl.load_schematic(text, vl_libs)


class TestCDRoundTrip:
    def test_library_roundtrip(self, vl_libs):
        lib = vl_libs.library("vl_builtin")
        text = io_cd.dump_library(lib)
        loaded = io_cd.load_library(text)
        assert len(loaded) == len(lib)
        assert loaded.get("offPage").kind == "offpage_connector"

    def test_schematic_roundtrip(self, vl_libs, sample):
        text = io_cd.dump_schematic(sample)
        loaded = io_cd.load_schematic(text, vl_libs)
        schematics_equal(sample, loaded)

    def test_quoted_strings(self, vl_libs, sample):
        sample.properties.set("note", 'he said "hi"')
        loaded = io_cd.load_schematic(io_cd.dump_schematic(sample), vl_libs)
        assert loaded.properties.get("note") == 'he said "hi"'

    def test_typed_properties_roundtrip(self, vl_libs, sample):
        sample.properties.set("count", 42)
        sample.properties.set("flag", False)
        loaded = io_cd.load_schematic(io_cd.dump_schematic(sample), vl_libs)
        assert loaded.properties.get("count") == 42
        assert loaded.properties.get("flag") is False

    def test_wrong_head_rejected(self, vl_libs):
        with pytest.raises(CDFormatError):
            io_cd.load_schematic('(library "x")', vl_libs)

    def test_duplicate_instance_name_rejected(self, vl_libs, sample):
        text = io_cd.dump_schematic(with_duplicate_name(sample, 0))
        with pytest.raises(SchematicError, match="^duplicate instance 'U1' on page 1$"):
            io_cd.load_schematic(text, vl_libs)

    def test_name_may_recur_on_another_page(self, vl_libs, sample):
        sample = with_duplicate_name(sample, 1)
        loaded = io_cd.load_schematic(io_cd.dump_schematic(sample), vl_libs)
        schematics_equal(sample, loaded)

    def test_garbage_rejected(self, vl_libs):
        with pytest.raises(CDFormatError):
            io_cd.load_schematic("(schematic", vl_libs)

    def test_short_record_is_named(self, vl_libs):
        text = '(schematic "c" "cd" (page 1 (frame 0 0 10 10) (text "t" (at 1) (font 1 1 1))))'
        with pytest.raises(CDFormatError, match=r"record \[text, 't', \[at, 1\]"):
            io_cd.load_schematic(text, vl_libs)

    def test_unknown_orientation_is_named(self, vl_libs, sample):
        text = io_cd.dump_schematic(sample)
        assert "(orient R0)" in text
        with pytest.raises(CDFormatError, match=r"^bad inst orientation: \[inst, "):
            io_cd.load_schematic(text.replace("(orient R0)", "(orient x)", 1), vl_libs)


class TestCrossFormat:
    def test_vl_to_cd_preserves_connectivity(self, vl_libs, sample):
        """A design can travel VL-text -> model -> CD-text -> model intact."""
        vl_text = io_vl.dump_schematic(sample)
        via_vl = io_vl.load_schematic(vl_text, vl_libs)
        cd_text = io_cd.dump_schematic(via_vl)
        via_cd = io_cd.load_schematic(cd_text, vl_libs)
        assert extract(sample).signature() == extract(via_cd).signature()


class TestWireLabelAnchors:
    """A wire label's anchor survives both formats; files written without
    anchors still load."""

    @pytest.fixture
    def offgrid(self, vl_libs):
        return generate_chain_schematic(
            vl_libs, pages=2, chains_per_page=2, stages=4, seed=1, offgrid_labels=2,
        )

    def test_vl_roundtrip_keeps_digest_and_snaps(self, vl_libs, offgrid):
        loaded = io_vl.load_schematic(io_vl.dump_schematic(offgrid), vl_libs)
        schematics_equal(offgrid, loaded)
        assert schematic_digest(loaded) == schematic_digest(offgrid)
        plan = build_sample_plan(source_libraries=vl_libs)
        direct = Migrator(plan).migrate(offgrid)
        reloaded = Migrator(plan).migrate(loaded)
        assert direct.scaling.points_snapped == 2
        assert reloaded.scaling.points_snapped == direct.scaling.points_snapped
        assert schematic_digest(reloaded.schematic) == schematic_digest(direct.schematic)

    def test_cd_roundtrip_keeps_migrated_anchors(self, vl_libs, offgrid):
        plan = build_sample_plan(source_libraries=vl_libs)
        migrated = Migrator(plan).migrate(offgrid).schematic
        assert any(w.label_position is not None for p in migrated.pages for w in p.wires)
        loaded = io_cd.load_schematic(io_cd.dump_schematic(migrated), build_cd_libraries())
        schematics_equal(migrated, loaded)
        assert schematic_digest(loaded) == schematic_digest(migrated)

    def test_files_without_anchors_still_load(self, vl_libs):
        vl = io_vl.load_schematic(
            "VLSCHEM 1 c viewdraw-like\nPAGE 1 0 0 100 100\n"
            "W n1 2 0 0 10 0\nW n2 2 0 10 10 10 5 12\nENDPAGE\nEND\n", vl_libs,
        )
        wires = vl.pages[0].wires
        assert [(w.label, w.label_position) for w in wires] == [
            ("n1", None), ("n2", (5, 12)),
        ]
        cd = io_cd.load_schematic(
            '(schematic "c" "composer-like" (page 1 (frame 0 0 100 100)'
            ' (wire (label "n1") (pts 0 0 10 0))'
            ' (wire (label "n2") (at 5 12) (pts 0 10 10 10))))', vl_libs,
        )
        assert [(w.label, w.label_position) for w in cd.pages[0].wires] == [
            ("n1", None), ("n2", (5, 12)),
        ]

    def test_malformed_anchor_rejected(self, vl_libs):
        with pytest.raises(VLFormatError):
            io_vl.load_schematic(
                "VLSCHEM 1 c viewdraw-like\nPAGE 1 0 0 10 10\n"
                "W - 2 0 0 10 0 5\nENDPAGE\nEND\n", vl_libs,
            )
        with pytest.raises(CDFormatError, match="anchor"):
            io_cd.load_schematic(
                '(schematic "c" "composer-like" (page 1 (frame 0 0 10 10)'
                ' (wire (at 5) (pts 0 0 10 0))))', vl_libs,
            )
