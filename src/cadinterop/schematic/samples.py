"""Synthetic design corpus modelled on the paper's Exar case study.

The paper's schematic section is grounded in a real migration: existing
Viewlogic schematics, qualified Cadence component libraries, analog
properties, buses, globals, and multi-page implicit connections.  That
proprietary design data is unavailable, so this module builds a synthetic
equivalent exercising every one of those features (see DESIGN.md's
substitution table):

* :func:`build_vl_libraries` / :func:`build_cd_libraries` — source and
  target primitive libraries with *different* pin names and geometries.
* :func:`build_sample_schematic` — a two-page mixed-signal cell with
  condensed bus references, a postfix-indicator net, implicit cross-page
  connection, a global ground, and a combined analog ``wl`` property that
  must be split by an a/L callback.
* :func:`build_sample_plan` — the complete migration plan for it.
* :func:`generate_chain_schematic` — parametric generator for corpus-scale
  benchmarks (inverter chains with buses across pages).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from cadinterop.common.geometry import Orientation, Point, Rect, Transform
from cadinterop.schematic.connectors import build_connector_library
from cadinterop.schematic.dialects import COMPOSER_LIKE, Dialect, VIEWDRAW_LIKE
from cadinterop.schematic.globals_ import default_global_map
from cadinterop.schematic.migrate import MigrationPlan
from cadinterop.schematic.model import (
    Instance,
    Library,
    LibrarySet,
    PinDirection,
    Port,
    Schematic,
    Symbol,
    SymbolPin,
    TextLabel,
    Wire,
)
from cadinterop.schematic.propertymap import (
    AddRule,
    CallbackRule,
    PropertyRuleSet,
    RenameRule,
    Scope,
)
from cadinterop.schematic.symbolmap import SymbolKey, SymbolMap, SymbolMapping

#: a/L callback splitting the combined analog ``wl`` property ("2u/0.5u")
#: into separate ``w`` and ``l`` properties — the paper's "reformatting of
#: single properties into multiple properties".
SPLIT_WL_CALLBACK = """
(if (has-prop? obj "wl")
    (let ((parts (split (get-prop obj "wl") "/")))
      (set-prop! obj "w" (car parts))
      (set-prop! obj "l" (cadr parts))
      (del-prop! obj "wl")))
"""


def build_vl_libraries() -> LibrarySet:
    """Source-side libraries: primitives plus the native connector library."""
    prims = Library("vl_prims")
    prims.add(
        Symbol(
            library="vl_prims", name="nand2", body=Rect(0, 0, 64, 64),
            pins=[
                SymbolPin("A", Point(0, 48), PinDirection.INPUT),
                SymbolPin("B", Point(0, 16), PinDirection.INPUT),
                SymbolPin("Y", Point(64, 32), PinDirection.OUTPUT),
            ],
        )
    )
    prims.add(
        Symbol(
            library="vl_prims", name="inv", body=Rect(0, 0, 64, 32),
            pins=[
                SymbolPin("A", Point(0, 16), PinDirection.INPUT),
                SymbolPin("Y", Point(64, 16), PinDirection.OUTPUT),
            ],
        )
    )
    prims.add(
        Symbol(
            library="vl_prims", name="res", body=Rect(0, 0, 32, 64),
            pins=[
                SymbolPin("P", Point(16, 0)),
                SymbolPin("N", Point(16, 64)),
            ],
        )
    )
    prims.add(
        Symbol(
            library="vl_prims", name="mosn", body=Rect(0, 0, 32, 64),
            pins=[
                SymbolPin("D", Point(32, 64)),
                SymbolPin("G", Point(0, 32), PinDirection.INPUT),
                SymbolPin("S", Point(32, 0)),
            ],
        )
    )
    return LibrarySet([prims, build_connector_library(VIEWDRAW_LIKE)])


def build_cd_libraries() -> LibrarySet:
    """Target-side qualified libraries (different pin names and geometry)."""
    basic = Library("cd_basic")
    basic.add(
        Symbol(
            library="cd_basic", name="nand2", body=Rect(0, 0, 40, 40),
            pins=[
                SymbolPin("IN1", Point(0, 20), PinDirection.INPUT),
                SymbolPin("IN2", Point(0, 0), PinDirection.INPUT),
                SymbolPin("OUT", Point(40, 10), PinDirection.OUTPUT),
            ],
        )
    )
    basic.add(
        Symbol(
            library="cd_basic", name="inv", body=Rect(0, 0, 40, 20),
            pins=[
                SymbolPin("IN", Point(0, 0), PinDirection.INPUT),
                SymbolPin("OUT", Point(40, 0), PinDirection.OUTPUT),
            ],
        )
    )
    analog = Library("cd_analog")
    analog.add(
        Symbol(
            library="cd_analog", name="res", body=Rect(0, 0, 20, 40),
            pins=[
                SymbolPin("PLUS", Point(10, 0)),
                SymbolPin("MINUS", Point(10, 40)),
            ],
        )
    )
    analog.add(
        Symbol(
            library="cd_analog", name="mosn", body=Rect(0, 0, 20, 40),
            pins=[
                SymbolPin("D", Point(20, 40)),
                SymbolPin("G", Point(0, 20), PinDirection.INPUT),
                SymbolPin("S", Point(20, 0)),
            ],
        )
    )
    connector_library = build_connector_library(COMPOSER_LIKE)
    # The CD connector library is named cd_basic in the dialect descriptor;
    # merge its connector symbols into the basic library.
    merged = LibrarySet()
    for symbol in connector_library.symbols():
        basic.add(symbol)
    merged.add(basic)
    merged.add(analog)
    return merged


def build_symbol_map() -> SymbolMap:
    """The replacement table: every VL primitive -> its qualified CD master."""
    symbol_map = SymbolMap()
    symbol_map.add(
        SymbolMapping(
            source=SymbolKey("vl_prims", "nand2"),
            target=SymbolKey("cd_basic", "nand2"),
            pin_map={"A": "IN1", "B": "IN2", "Y": "OUT"},
        )
    )
    symbol_map.add(
        SymbolMapping(
            source=SymbolKey("vl_prims", "inv"),
            target=SymbolKey("cd_basic", "inv"),
            pin_map={"A": "IN", "Y": "OUT"},
        )
    )
    symbol_map.add(
        SymbolMapping(
            source=SymbolKey("vl_prims", "res"),
            target=SymbolKey("cd_analog", "res"),
            pin_map={"P": "PLUS", "N": "MINUS"},
        )
    )
    symbol_map.add(
        SymbolMapping(
            source=SymbolKey("vl_prims", "mosn"),
            target=SymbolKey("cd_analog", "mosn"),
        )
    )
    return symbol_map


def build_property_rules() -> PropertyRuleSet:
    """Standard rules plus the analog a/L callback."""
    rules = PropertyRuleSet()
    rules.add_rule(RenameRule("rval", "r", scope=Scope(name="res")))
    rules.add_rule(AddRule("migrated_by", "cadinterop", scope=Scope(library="cd_*")))
    rules.add_callback(
        CallbackRule(
            SPLIT_WL_CALLBACK,
            scope=Scope(name="mosn"),
            description="split combined wl into w and l",
        )
    )
    return rules


def build_sample_schematic(libraries: LibrarySet) -> Schematic:
    """A two-page cell exercising every Section 2 issue at once."""
    prims = libraries.library("vl_prims")
    builtin = libraries.library("vl_builtin")

    cell = Schematic(
        "mixed1",
        VIEWDRAW_LIKE.name,
        ports=[Port("A<0>", PinDirection.INPUT), Port("OUT-", PinDirection.OUTPUT)],
    )
    cell.properties.set("designer", "exar-demo")

    page1 = cell.add_page(Rect(0, 0, 1024, 800))
    u1 = page1.add_instance(
        Instance("U1", prims.get("nand2"), Transform(Point(160, 160)))
    )
    u2 = page1.add_instance(
        Instance("U2", prims.get("inv"), Transform(Point(320, 176)))
    )
    r1 = page1.add_instance(
        Instance("R1", prims.get("res"), Transform(Point(352, 96)))
    )
    r1.properties.set("rval", "10k")
    g1 = page1.add_instance(
        Instance("G1", builtin.get("gnd"), Transform(Point(160, 96)))
    )
    g1.properties.set("signal", "GND")

    # Bus declaration stub (declares A<0:15> on the sheet).
    page1.add_wire(Wire([Point(96, 240), Point(160, 240)], label="A<0:15>"))
    # Explicit bit reference into U1.A.
    page1.add_wire(Wire([Point(96, 208), Point(160, 208)], label="A<0>"))
    # Condensed bit reference (A1 == A<1>) into U1.B.
    page1.add_wire(Wire([Point(96, 176), Point(160, 176)], label="A1"))
    # Internal net U1.Y -> U2.A.
    page1.add_wire(Wire([Point(224, 192), Point(320, 192)], label="N1"))
    # Resistor bottom tap (R1.N) down onto the N1 wire (mid-segment tap).
    page1.add_wire(Wire([Point(368, 160), Point(288, 160), Point(288, 192)]))
    # Ground wire G1.P -> R1.P.
    page1.add_wire(Wire([Point(160, 96), Point(368, 96)]))
    # Output net with a postfix indicator, leaving a floating end.
    page1.add_wire(Wire([Point(384, 192), Point(448, 192)], label="OUT-"))
    page1.add_label(TextLabel("page one", Point(16, 784)))

    page2 = cell.add_page(Rect(0, 0, 1024, 800))
    u3 = page2.add_instance(
        Instance("U3", prims.get("inv"), Transform(Point(160, 160)))
    )
    m1 = page2.add_instance(
        Instance("M1", prims.get("mosn"), Transform(Point(320, 160)))
    )
    m1.properties.set("wl", "2u/0.5u")
    # Implicit continuation of OUT- from page 1 (same label, no connector).
    page2.add_wire(Wire([Point(96, 176), Point(160, 176)], label="OUT-"))
    # U3.Y -> M1.G with a jog.
    page2.add_wire(
        Wire([Point(224, 176), Point(288, 176), Point(288, 192), Point(320, 192)])
    )
    page2.add_label(TextLabel("page two", Point(16, 784)))

    # Silence unused-variable lint while keeping construction explicit.
    del u1, u2, u3
    return cell


def build_sample_plan(
    source_libraries: LibrarySet = None,
    target_libraries: LibrarySet = None,
    verify: bool = True,
    strategy: str = "minimal",
) -> MigrationPlan:
    """The full plan for migrating the sample (and chain) schematics."""
    return MigrationPlan(
        source_dialect=VIEWDRAW_LIKE,
        target_dialect=COMPOSER_LIKE,
        source_libraries=source_libraries or build_vl_libraries(),
        target_libraries=target_libraries or build_cd_libraries(),
        symbol_map=build_symbol_map(),
        property_rules=build_property_rules(),
        global_map=default_global_map(VIEWDRAW_LIKE, COMPOSER_LIKE),
        verify=verify,
        replacement_strategy=strategy,
    )


def generate_chain_schematic(
    libraries: LibrarySet,
    pages: int = 2,
    chains_per_page: int = 4,
    stages: int = 6,
    seed: int = 1996,
    offgrid_labels: int = 0,
) -> Schematic:
    """A parametric multi-page corpus cell: rows of inverter chains.

    Chains are joined across pages implicitly by shared labels, each chain
    row carries a bus-style label, and a fraction of instances get analog
    properties — the statistical shape of the paper's migration workload.
    ``offgrid_labels`` nudges that many wire-label anchors off the drawing
    grid (the hand-edit artifacts the paper blames for snapping losses):
    those anchors cannot scale exactly onto the target grid, so migration
    snaps them with a SCALING warning and an ``approximated`` lineage
    record each.
    """
    rng = random.Random(seed)
    prims = libraries.library("vl_prims")
    inv = prims.get("inv")
    cell = Schematic(f"chain_p{pages}x{chains_per_page}x{stages}", VIEWDRAW_LIKE.name)
    pitch_x = 160
    pitch_y = 96
    nudged = 0

    for page_number in range(1, pages + 1):
        frame_w = 160 + (stages + 1) * pitch_x
        frame_h = 160 + chains_per_page * pitch_y
        page = cell.add_page(Rect(0, 0, frame_w, frame_h))
        instances: List[Instance] = []
        for row in range(chains_per_page):
            y = 160 + row * pitch_y
            # Chain nets continue across the page boundary by shared label:
            # page p's trailing net and page p+1's incoming net are the same
            # electrical net, named CH<row>_<boundary>.
            incoming = f"CH{row}_{page_number - 1}"
            outgoing = f"CH{row}_{page_number}"
            wire = Wire([Point(96, y + 16), Point(160, y + 16)], label=incoming)
            if nudged < offgrid_labels:
                # x=97 is off the 8-unit lattice: 97 * 5/8 is not integral,
                # so rescaling must snap this anchor.
                wire.label_position = Point(97, y + 17)
                nudged += 1
            page.add_wire(wire)
            for stage in range(stages):
                x = 160 + stage * pitch_x
                name = f"P{page_number}R{row}S{stage}"
                instance = Instance(name, inv, Transform(Point(x, y)))
                if rng.random() < 0.25:
                    instance.properties.set("wl", f"{1 + stage}u/0.5u")
                instances.append(instance)
                if stage + 1 < stages:
                    page.add_wire(
                        Wire([Point(x + 64, y + 16), Point(x + pitch_x, y + 16)])
                    )
            # Trailing segment names the boundary net for the next page.
            end_x = 160 + (stages - 1) * pitch_x + 64
            page.add_wire(
                Wire([Point(end_x, y + 16), Point(end_x + 64, y + 16)], label=outgoing)
            )
        page.add_instances(instances)
    return cell
