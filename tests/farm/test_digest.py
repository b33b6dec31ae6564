"""Deterministic content digests for schematics and migration plans."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from cadinterop.common.geometry import Orientation, Point, Rect, Transform
from cadinterop.common.properties import PropertyBag
from cadinterop.schematic.globals_ import GlobalMap
from cadinterop.schematic.migrate import (
    Migrator,
    _canon_properties,
    _canon_symbol,
    plan_digest,
    schematic_digest,
)
from cadinterop.schematic.model import (
    Instance,
    Port,
    Schematic,
    Symbol,
    SymbolPin,
    TextLabel,
    Wire,
)
from cadinterop.schematic.propertymap import AddRule
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
def sample(vl_libs):
    return build_sample_schematic(vl_libs)


@pytest.fixture()
def plan(vl_libs):
    return build_sample_plan(source_libraries=vl_libs)


class TestSchematicDigest:
    def test_deterministic_across_independent_builds(self, sample):
        other = build_sample_schematic(build_vl_libraries())
        assert schematic_digest(sample) == schematic_digest(other)

    def test_hex_sha256_shape(self, sample):
        digest = schematic_digest(sample)
        assert len(digest) == 64
        int(digest, 16)  # parses as hex

    def test_editing_a_wire_changes_digest(self, sample):
        before = schematic_digest(sample)
        sample.pages[0].add_wire(Wire([Point(0, 0), Point(32, 0)]))
        assert schematic_digest(sample) != before

    def test_moving_a_wire_point_changes_digest(self, sample):
        before = schematic_digest(sample)
        wire = sample.pages[0].wires[0]
        wire.points[0] = Point(wire.points[0].x - 16, wire.points[0].y)
        assert schematic_digest(sample) != before

    def test_renaming_a_net_changes_digest(self, sample):
        before = schematic_digest(sample)
        sample.pages[0].wires[3].label = "N1_renamed"
        assert schematic_digest(sample) != before

    def test_property_edit_changes_digest(self, sample):
        before = schematic_digest(sample)
        sample.pages[0].instance("R1").properties.set("rval", "22k")
        assert schematic_digest(sample) != before

    def test_cosmetic_label_changes_digest(self, sample):
        before = schematic_digest(sample)
        sample.pages[0].add_label(TextLabel("rev B", Point(8, 8)))
        assert schematic_digest(sample) != before

    def test_rename_cell_changes_digest(self, sample):
        before = schematic_digest(sample)
        sample.name = "mixed1_copy"
        assert schematic_digest(sample) != before

    def test_instance_move_changes_digest(self, sample):
        before = schematic_digest(sample)
        instance = sample.pages[0].instance("U1")
        instance.transform = Transform(Point(176, 160))
        assert schematic_digest(sample) != before


class TestPlanDigest:
    def test_deterministic_across_independent_builds(self, plan):
        other = build_sample_plan(source_libraries=build_vl_libraries())
        assert plan_digest(plan) == plan_digest(other)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda plan: setattr(plan, "replacement_strategy", "naive"),
            lambda plan: setattr(plan, "verify", False),
            lambda plan: plan.property_rules.add_rule(AddRule("touched", "yes")),
            lambda plan: setattr(plan, "global_map", GlobalMap()),
            lambda plan: plan.symbol_map._by_source.clear(),
        ],
        ids=["replacement_strategy", "verify", "property_rule", "global_map", "symbol_map"],
    )
    def test_every_plan_field_participates(self, plan, mutate):
        before = plan_digest(plan)
        mutate(plan)
        assert plan_digest(plan) != before

    def test_stable_across_migrations(self, vl_libs, plan, sample):
        """migrate() folds global rules into the symbol map in place; the
        digest must hash the effective plan so runs before/after agree."""
        before = plan_digest(plan)
        Migrator(plan).migrate(sample)
        assert plan_digest(plan) == before
        Migrator(plan).migrate(sample)
        assert plan_digest(plan) == before


# ---------------------------------------------------------------------------
# The digest oracle: the canonical form rendered whole, master by master
# ---------------------------------------------------------------------------


def reference_canon_schematic(schematic):
    """The canonical form as ``schematic_digest`` hashed it before it
    rendered each symbol master once: every instance renders its master."""
    pages = []
    for page in schematic.pages:
        pages.append(
            (
                page.number,
                (page.frame.x1, page.frame.y1, page.frame.x2, page.frame.y2),
                tuple(
                    (
                        instance.name,
                        _canon_symbol(instance.symbol),
                        (
                            instance.transform.offset.x,
                            instance.transform.offset.y,
                            instance.transform.orientation.value,
                        ),
                        _canon_properties(instance.properties),
                    )
                    for instance in page.instances
                ),
                tuple(
                    (
                        tuple((p.x, p.y) for p in wire.points),
                        wire.label,
                        (wire.label_position.x, wire.label_position.y)
                        if wire.label_position
                        else None,
                    )
                    for wire in page.wires
                ),
                tuple(
                    (
                        label.text,
                        (label.position.x, label.position.y),
                        label.height,
                        label.width_per_char,
                        label.baseline_offset,
                    )
                    for label in page.labels
                ),
            )
        )
    return (
        schematic.name,
        schematic.dialect,
        tuple((port.name, port.direction) for port in schematic.ports),
        _canon_properties(schematic.properties),
        tuple(pages),
    )


def reference_digest(schematic) -> str:
    return hashlib.sha256(
        repr(reference_canon_schematic(schematic)).encode("utf-8")
    ).hexdigest()


coords = st.integers(-64, 64).map(lambda v: v * 8)
points = st.builds(Point, coords, coords)
names = st.sampled_from(["A", "B", "N1", "D<0>", "clk", "it's", 'q"x'])
property_values = st.one_of(
    st.text(max_size=6), st.integers(-5, 5), st.floats(allow_nan=False), st.booleans()
)


@st.composite
def property_bags(draw):
    bag = PropertyBag()
    for name in draw(st.lists(names, max_size=3, unique=True)):
        bag.set(name, draw(property_values), visible=draw(st.booleans()),
                origin=draw(st.sampled_from(["native", "property-map"])))
    return bag


@st.composite
def symbols(draw):
    pins = [
        SymbolPin(name, draw(points), draw(st.sampled_from(["input", "output", "bidirectional"])))
        for name in draw(st.lists(names, min_size=1, max_size=3, unique=True))
    ]
    return Symbol(
        library=draw(st.sampled_from(["vl_prims", "cd_basic"])),
        name=draw(st.sampled_from(["inv", "nand2", "res"])),
        body=Rect(0, 0, draw(st.integers(1, 64)), draw(st.integers(1, 64))),
        pins=pins,
        properties=draw(property_bags()),
        kind=draw(st.sampled_from(Symbol.KINDS)),
    )


@st.composite
def wires(draw):
    start = draw(points)
    vertices = [start]
    for horizontal in draw(st.lists(st.booleans(), min_size=1, max_size=4)):
        last = vertices[-1]
        step = draw(coords)
        vertices.append(Point(last.x + step, last.y) if horizontal else Point(last.x, last.y + step))
    return Wire(
        vertices,
        label=draw(st.none() | names),
        label_position=draw(st.none() | points),
    )


@st.composite
def schematics(draw):
    """Cells whose instances share a few masters (and sometimes hold
    distinct masters that print alike), over pages that may be empty."""
    masters = draw(st.lists(symbols(), min_size=1, max_size=4))
    cell = Schematic(
        draw(st.sampled_from(["cell", "top'1"])),
        draw(st.sampled_from(["viewdraw-like", "composer-like"])),
        ports=[Port(name) for name in draw(st.lists(names, max_size=2, unique=True))],
        properties=draw(property_bags()),
    )
    for _ in range(draw(st.integers(0, 3))):
        page = cell.add_page(Rect(0, 0, 640, 480))
        for index in range(draw(st.integers(0, 5))):
            if draw(st.booleans()):
                symbol = draw(st.sampled_from(masters))
            else:
                symbol = draw(symbols())
            page.add_instance(Instance(
                f"U{index}", symbol,
                Transform(draw(points), draw(st.sampled_from(list(Orientation)))),
                draw(property_bags()),
            ))
        for wire in draw(st.lists(wires(), max_size=4)):
            page.add_wire(wire)
        for text in draw(st.lists(names, max_size=2)):
            page.add_label(TextLabel(text, draw(points), baseline_offset=draw(st.integers(0, 3))))
    return cell


class TestDigestOracle:
    """``schematic_digest`` splices each master's rendered form into the text
    it hashes; the bytes, and so the digests, must be the reference's."""

    @settings(max_examples=150, deadline=None)
    @given(cell=schematics())
    def test_generated_schematics(self, cell):
        assert schematic_digest(cell) == reference_digest(cell)

    @pytest.mark.parametrize("pages, chains, stages", [(1, 2, 3), (3, 4, 6), (1, 10, 5)])
    def test_chain_cells_and_their_migrations(self, vl_libs, plan, pages, chains, stages):
        cell = generate_chain_schematic(
            vl_libs, pages=pages, chains_per_page=chains, stages=stages, seed=pages
        )
        migrated = Migrator(plan).migrate(cell).schematic
        for drawing in (cell, migrated):
            assert schematic_digest(drawing) == reference_digest(drawing)

    def test_sample_and_empty_cells(self, sample):
        empty = Schematic("empty", "composer-like")
        blank_pages = Schematic("blank", "composer-like")
        blank_pages.add_page(Rect(0, 0, 10, 10))
        blank_pages.add_page(Rect(0, 0, 20, 20))
        for cell in (sample, empty, blank_pages):
            assert schematic_digest(cell) == reference_digest(cell)

    def test_distinct_masters_that_print_alike_render_alike(self, vl_libs, sample):
        # A copy of a master is another object with the same canonical form:
        # rendering by identity must not make the digest depend on which.
        before = schematic_digest(sample)
        for page in sample.pages:
            for instance in page.instances:
                original = instance.symbol
                instance.symbol = Symbol(
                    original.library, original.name, original.view, original.body,
                    list(original.pins), original.properties.copy(), original.kind,
                )
        assert schematic_digest(sample) == before == reference_digest(sample)
