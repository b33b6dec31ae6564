"""Tests for the schematic model and geometric netlist extraction."""

import pytest

from cadinterop.common.geometry import Orientation, Point, Rect, Transform
from cadinterop.schematic.dialects import COMPOSER_LIKE, VIEWDRAW_LIKE
from cadinterop.schematic.model import (
    Design,
    Instance,
    Library,
    LibrarySet,
    PinDirection,
    Port,
    Schematic,
    SchematicError,
    Symbol,
    SymbolPin,
    Wire,
)
from cadinterop.schematic.netlist import extract
from cadinterop.schematic.samples import build_sample_schematic, build_vl_libraries


def inv_symbol(library="lib"):
    return Symbol(
        library=library, name="inv", body=Rect(0, 0, 64, 32),
        pins=[
            SymbolPin("A", Point(0, 16), PinDirection.INPUT),
            SymbolPin("Y", Point(64, 16), PinDirection.OUTPUT),
        ],
    )


class TestSymbol:
    def test_duplicate_pin_rejected(self):
        with pytest.raises(SchematicError):
            Symbol(
                library="l", name="x",
                pins=[SymbolPin("A", Point(0, 0)), SymbolPin("A", Point(0, 16))],
            )

    def test_bad_kind_rejected(self):
        with pytest.raises(SchematicError):
            Symbol(library="l", name="x", kind="widget")

    def test_pin_lookup(self):
        sym = inv_symbol()
        assert sym.pin("A").position == Point(0, 16)
        assert sym.has_pin("Y") and not sym.has_pin("Z")
        with pytest.raises(SchematicError):
            sym.pin("Z")

    def test_bad_pin_direction(self):
        with pytest.raises(SchematicError):
            SymbolPin("A", Point(0, 0), "sideways")


class TestLibrary:
    def test_add_and_get(self):
        lib = Library("lib")
        lib.add(inv_symbol())
        assert lib.get("inv").name == "inv"
        assert lib.has("inv") and not lib.has("nand2")
        assert len(lib) == 1

    def test_wrong_library_name_rejected(self):
        lib = Library("other")
        with pytest.raises(SchematicError):
            lib.add(inv_symbol(library="lib"))

    def test_duplicate_rejected(self):
        lib = Library("lib")
        lib.add(inv_symbol())
        with pytest.raises(SchematicError):
            lib.add(inv_symbol())

    def test_library_set_resolution(self):
        libs = LibrarySet([Library("a")])
        with pytest.raises(SchematicError):
            libs.library("b")
        with pytest.raises(SchematicError):
            libs.resolve("a", "ghost")


class TestInstance:
    def test_pin_positions_with_transform(self):
        instance = Instance(
            "I1", inv_symbol(), Transform(Point(100, 100), Orientation.R90)
        )
        # R90 maps (0,16)->(-16,0); +offset -> (84,100)
        assert instance.pin_position("A") == Point(84, 100)

    def test_bounding_box(self):
        instance = Instance("I1", inv_symbol(), Transform(Point(10, 20)))
        assert instance.bounding_box() == Rect(10, 20, 74, 52)


class TestPageAndSchematic:
    def test_duplicate_instance_rejected(self):
        cell = Schematic("c", VIEWDRAW_LIKE.name)
        page = cell.add_page(Rect(0, 0, 100, 100))
        page.add_instance(Instance("I1", inv_symbol(), Transform(Point(0, 0))))
        with pytest.raises(SchematicError):
            page.add_instance(Instance("I1", inv_symbol(), Transform(Point(0, 64))))

    def test_wire_validation(self):
        with pytest.raises(SchematicError):
            Wire([Point(0, 0)])
        with pytest.raises(ValueError):
            Wire([Point(0, 0), Point(3, 4)])  # diagonal

    def test_ports(self):
        cell = Schematic("c", VIEWDRAW_LIKE.name)
        cell.add_port(Port("clk", PinDirection.INPUT))
        assert cell.port("clk").direction == PinDirection.INPUT
        with pytest.raises(SchematicError):
            cell.add_port(Port("clk"))
        with pytest.raises(SchematicError):
            cell.port("nope")

    def test_find_instance_across_pages(self):
        cell = Schematic("c", VIEWDRAW_LIKE.name)
        cell.add_page(Rect(0, 0, 100, 100))
        page2 = cell.add_page(Rect(0, 0, 100, 100))
        page2.add_instance(Instance("I9", inv_symbol(), Transform(Point(0, 0))))
        found_page, found = cell.find_instance("I9")
        assert found_page.number == 2 and found.name == "I9"

    def test_design_top_cell(self):
        design = Design("d")
        with pytest.raises(SchematicError):
            design.top_cell
        cell = Schematic("c", VIEWDRAW_LIKE.name)
        design.add_cell(cell)
        assert design.top_cell is cell


class TestNetlistExtraction:
    def build_two_inv_page(self):
        cell = Schematic("c", VIEWDRAW_LIKE.name)
        page = cell.add_page(Rect(0, 0, 640, 480))
        page.add_instance(Instance("I1", inv_symbol(), Transform(Point(0, 0))))
        page.add_instance(Instance("I2", inv_symbol(), Transform(Point(160, 0))))
        page.add_wire(Wire([Point(64, 16), Point(160, 16)], label="mid"))
        return cell

    def test_simple_connection(self):
        netlist = extract(self.build_two_inv_page())
        net = netlist.net("mid")
        assert net.terminals == {("I1", "Y"), ("I2", "A")}

    def test_dangling_pins_are_single_terminal_nets(self):
        netlist = extract(self.build_two_inv_page())
        singles = [n for n in netlist.nets.values() if n.terminal_count == 1]
        assert len(singles) == 2  # I1.A and I2.Y

    def test_touching_wires_merge(self):
        cell = Schematic("c", VIEWDRAW_LIKE.name)
        page = cell.add_page(Rect(0, 0, 640, 480))
        page.add_wire(Wire([Point(0, 0), Point(100, 0)], label="a"))
        page.add_wire(Wire([Point(50, 0), Point(50, 100)]))
        netlist = extract(cell)
        assert len(netlist.nets) == 1
        assert netlist.net("a").wire_length == 200

    def test_crossing_without_touching_does_not_merge(self):
        # Two parallel wires never touch.
        cell = Schematic("c", VIEWDRAW_LIKE.name)
        page = cell.add_page(Rect(0, 0, 640, 480))
        page.add_wire(Wire([Point(0, 0), Point(100, 0)], label="a"))
        page.add_wire(Wire([Point(0, 16), Point(100, 16)], label="b"))
        assert len(extract(cell).nets) == 2

    def test_implicit_cross_page_merge_viewdraw(self):
        cell = Schematic("c", VIEWDRAW_LIKE.name)
        for _ in range(2):
            page = cell.add_page(Rect(0, 0, 640, 480))
            page.add_instance(Instance("I" + str(page.number), inv_symbol(), Transform(Point(0, 0))))
            page.add_wire(Wire([Point(64, 16), Point(128, 16)], label="x"))
        netlist = extract(cell)
        assert netlist.net("x").terminals == {("I1", "Y"), ("I2", "Y")}
        assert netlist.net("x").pages == {1, 2}

    def test_explicit_dialect_does_not_merge_by_name(self):
        cell = Schematic("c", COMPOSER_LIKE.name)
        for _ in range(2):
            page = cell.add_page(Rect(0, 0, 640, 480))
            page.add_wire(Wire([Point(0, 0), Point(100, 0)], label="x"))
        netlist = extract(cell)
        assert len(netlist.nets) == 2
        assert netlist.log.has_errors()  # same label on disjoint nets flagged

    def test_shorted_labels_warn(self):
        cell = Schematic("c", VIEWDRAW_LIKE.name)
        page = cell.add_page(Rect(0, 0, 640, 480))
        page.add_wire(Wire([Point(0, 0), Point(100, 0)], label="a"))
        page.add_wire(Wire([Point(50, 0), Point(50, 50)], label="b"))
        netlist = extract(cell)
        assert len(netlist.nets) == 1
        assert any("multiple labels" in i.message for i in netlist.log)

    def test_port_label_preferred_for_net_name(self):
        cell = self.build_two_inv_page()
        cell.add_port(Port("mid", PinDirection.OUTPUT))
        netlist = extract(cell)
        assert "mid" in netlist.nets

    def test_signature_name_free(self):
        a = extract(self.build_two_inv_page())
        cell_b = self.build_two_inv_page()
        for page in cell_b.pages:
            for wire in page.wires:
                wire.label = "renamed"
        b = extract(cell_b)
        assert a.signature() == b.signature()

    def test_sample_schematic_nets(self):
        libs = build_vl_libraries()
        cell = build_sample_schematic(libs)
        netlist = extract(cell)
        # Implicit cross-page OUT- merge.
        out = netlist.net("OUT-")
        assert out.terminals == {("U2", "Y"), ("U3", "A")}
        assert out.pages == {1, 2}
        # Global ground.
        gnd = netlist.net("GND")
        assert gnd.is_global and ("R1", "P") in gnd.terminals
        # Mid-segment tap joins N1.
        assert ("R1", "N") in netlist.net("N1").terminals

    @pytest.mark.parametrize("kind", ["offpage_connector", "global"])
    @pytest.mark.parametrize("names", [("C0", "C1"), ("C1", "C1")])
    def test_connectors_bind_their_own_page_net(self, kind, names):
        """Each connector binds the net at its own pin, even when its
        instance name repeats on another page."""
        connector = Symbol(
            library="lib", name="S", kind=kind, body=Rect(0, 0, 16, 16),
            pins=[SymbolPin("P", Point(0, 0))],
        )
        cell = Schematic("c", COMPOSER_LIKE.name)
        for number, name in enumerate(names, 1):
            page = cell.add_page(Rect(0, 0, 640, 480))
            page.add_instance(Instance(f"I{number}", inv_symbol(), Transform(Point(0, 0))))
            page.add_instance(Instance(name, connector, Transform(Point(128, 16))))
            page.add_wire(Wire([Point(64, 16), Point(128, 16)]))
        netlist = extract(cell)
        assert list(netlist.nets) == ["S", "unnamed$1", "unnamed$2"]
        assert netlist.net("S").terminals == {
            ("I1", "Y"), (names[0], "P"), ("I2", "Y"), (names[1], "P")
        }
        assert not netlist.log.has_errors()

    def test_unattached_connector_pin_warns(self):
        connector = Symbol(
            library="lib", name="S", kind="offpage_connector", body=Rect(0, 0, 16, 16),
            pins=[SymbolPin("P", Point(0, 0))],
        )
        cell = Schematic("c", COMPOSER_LIKE.name)
        page = cell.add_page(Rect(0, 0, 640, 480))
        page.add_instance(Instance("I1", inv_symbol(), Transform(Point(0, 0))))
        page.add_instance(Instance("C0", connector, Transform(Point(320, 320))))
        # Abutting a pin with no wire is attached.
        page.add_instance(Instance("C1", connector, Transform(Point(0, 16))))
        netlist = extract(cell)
        warnings = [issue for issue in netlist.log if "not attached" in issue.message]
        assert [(issue.subject, issue.message) for issue in warnings] == [
            ("C0", "offpage_connector connector pin 'P' is not attached to anything")
        ]
        # The lone pin binds no name; the abutting one names its net.
        assert netlist.net("S").terminals == {("I1", "A"), ("C1", "P")}
        assert ("C0", "P") in netlist.net("unnamed$2").terminals

    def test_terminal_map(self):
        netlist = extract(self.build_two_inv_page())
        assert netlist.terminal_map()[("I1", "Y")] == "mid"
