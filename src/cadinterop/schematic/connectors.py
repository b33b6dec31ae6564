"""Hierarchy and off-page connector synthesis.

Section 2 ("Hierarchy and off page connectors"): the Viewdraw-like dialect
"does not require the explicit use of either hierarchy or off-page
connectors, however, [the Composer-like dialect] requires both."  Worse,
the source "connects same signal names across multiple pages implicitly"
while the target "requires these connections to be explicit by using
off-page connectors.  The connectivity challenge was addressed by
maintaining an understanding of the connections during the migration
process.  The geometrical challenge was addressed by adding off-page
connectors to the end of wires if a floating wire was determined, or to the
side of the schematic sheets for these internal connections."

This module implements exactly that: it finds floating wire ends to host
connectors, otherwise routes a stub toward the sheet edge (falling back to
direct attachment if the stub would short another net), and instantiates
the target dialect's native connector symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.common.geometry import Point, Rect, Segment, Transform
from cadinterop.schematic.dialects import Dialect
from cadinterop.schematic.model import (
    Instance,
    Library,
    LibrarySet,
    Page,
    PinDirection,
    Schematic,
    Symbol,
    SymbolPin,
    Wire,
    WireIndex,
)


def build_connector_library(dialect: Dialect) -> Library:
    """Build the native connector library a dialect expects.

    Every connector symbol carries one pin ``P`` at its origin; global
    symbols (power/ground) likewise.  Real libraries are richer, but this is
    the interface contract the migration needs.
    """
    names = dialect.connectors
    library = Library(names.library)
    body = Rect(0, 0, dialect.grid.pitch_units, dialect.grid.pitch_units)

    def connector(name: str, kind: str, direction: str) -> Symbol:
        return Symbol(
            library=names.library,
            name=name,
            body=body,
            pins=[SymbolPin("P", Point(0, 0), direction)],
            kind=kind,
        )

    library.add(connector(names.hier_in, "hier_connector", PinDirection.INPUT))
    library.add(connector(names.hier_out, "hier_connector", PinDirection.OUTPUT))
    library.add(connector(names.hier_inout, "hier_connector", PinDirection.BIDIRECTIONAL))
    library.add(connector(names.offpage, "offpage_connector", PinDirection.BIDIRECTIONAL))
    library.add(connector(names.power, "global", PinDirection.BIDIRECTIONAL))
    library.add(connector(names.ground, "global", PinDirection.BIDIRECTIONAL))
    return library


@dataclass(frozen=True)
class FloatingEnd:
    """A wire endpoint touching neither a pin nor another wire."""

    page_number: int
    wire_index: int
    end_index: int  # 0 or -1
    point: Point


def find_floating_ends(page: Page) -> List[FloatingEnd]:
    """Locate all floating wire ends on a page."""
    pin_points: Set[Point] = set()
    for instance in page.instances:
        pin_points.update(instance.pin_positions().values())

    wires = WireIndex(page.wires)
    floating: List[FloatingEnd] = []
    for index, wire in enumerate(page.wires):
        for end_index, point in ((0, wire.points[0]), (-1, wire.points[-1])):
            if point in pin_points:
                continue
            if not wires.wires_at(point.x, point.y) - {index}:
                floating.append(FloatingEnd(page.number, index, end_index, point))
    return floating


@dataclass
class ConnectorReport:
    """What connector synthesis did, for auditing and benchmarks."""

    offpage_added: int = 0
    hierarchy_added: int = 0
    placed_on_floating_end: int = 0
    placed_at_sheet_edge: int = 0
    placed_direct: int = 0


class _ConnectorNamer:
    """Generates unique instance names for synthesized connectors."""

    def __init__(self, schematic: Schematic, prefix: str) -> None:
        self._taken = {instance.name for _page, instance in schematic.all_instances()}
        self._prefix = prefix
        self._counter = 0

    def next(self) -> str:
        while True:
            self._counter += 1
            name = f"{self._prefix}{self._counter}"
            if name not in self._taken:
                self._taken.add(name)
                return name


def _stub_is_clear(page: Page, stub: Segment, ignore_wire: int) -> bool:
    """True if ``stub`` would not touch any other wire or instance pin."""
    for index, wire in enumerate(page.wires):
        if index == ignore_wire:
            continue
        for segment in wire.segments():
            if segment.touches(stub) or stub.touches(segment):
                return False
    for instance in page.instances:
        for point in instance.pin_positions().values():
            if stub.contains_point(point):
                return False
    return True


def _attach_connector(
    schematic: Schematic,
    page: Page,
    point: Point,
    symbol: Symbol,
    signal: str,
    namer: _ConnectorNamer,
) -> Instance:
    instance = Instance(
        name=namer.next(),
        symbol=symbol,
        transform=Transform(point),
    )
    instance.properties.set("signal", signal, origin="connector-synthesis")
    page.add_instance(instance)
    return instance


def _place_for_net(
    schematic: Schematic,
    page: Page,
    wire_index: int,
    floating: Optional[FloatingEnd],
    symbol: Symbol,
    signal: str,
    namer: _ConnectorNamer,
    report: ConnectorReport,
    log: IssueLog,
) -> None:
    """Place one connector for the net carried by ``page.wires[wire_index]``."""
    wire = page.wires[wire_index]
    if floating is not None:
        _attach_connector(schematic, page, floating.point, symbol, signal, namer)
        report.placed_on_floating_end += 1
        return

    # No floating end: try a stub to the nearest sheet edge from the wire's
    # first endpoint; fall back to direct attachment if the stub would short.
    anchor = wire.points[0]
    frame = page.frame
    edge_point = Point(frame.x1, anchor.y)
    if anchor.x - frame.x1 > frame.x2 - anchor.x:
        edge_point = Point(frame.x2, anchor.y)
    if edge_point != anchor:
        stub = Segment(anchor, edge_point)
        if _stub_is_clear(page, stub, ignore_wire=wire_index):
            page.add_wire(Wire([anchor, edge_point]))
            _attach_connector(schematic, page, edge_point, symbol, signal, namer)
            report.placed_at_sheet_edge += 1
            return

    _attach_connector(schematic, page, anchor, symbol, signal, namer)
    report.placed_direct += 1
    log.add(
        Severity.NOTE, Category.CONNECTIVITY, signal,
        f"connector placed directly on net (sheet-edge stub would short another net)",
    )


def insert_offpage_connectors(
    schematic: Schematic,
    dialect: Dialect,
    libraries: LibrarySet,
    log: Optional[IssueLog] = None,
    report: Optional[ConnectorReport] = None,
) -> ConnectorReport:
    """Make implicit cross-page connections explicit with off-page connectors.

    For every label appearing (as a wire label) on more than one page, an
    off-page connector bound to that signal is added on each such page.
    """
    log = log if log is not None else IssueLog()
    report = report if report is not None else ConnectorReport()
    namer = _ConnectorNamer(schematic, "offpage$")
    connector_symbol = libraries.resolve(
        dialect.connectors.library, dialect.connectors.offpage
    )

    # label -> page -> first labeled wire index
    label_sites: Dict[str, Dict[int, int]] = {}
    for page in schematic.pages:
        for index, wire in enumerate(page.wires):
            if wire.label:
                label_sites.setdefault(wire.label, {}).setdefault(page.number, index)

    floating_by_page: Dict[int, List[FloatingEnd]] = {
        page.number: find_floating_ends(page) for page in schematic.pages
    }

    for label, sites in sorted(label_sites.items()):
        if len(sites) < 2:
            continue
        for page_number, wire_index in sorted(sites.items()):
            page = schematic.page(page_number)
            floating = next(
                (
                    end
                    for end in floating_by_page[page_number]
                    if end.wire_index == wire_index
                ),
                None,
            )
            if floating is not None:
                floating_by_page[page_number].remove(floating)
            _place_for_net(
                schematic, page, wire_index, floating, connector_symbol, label,
                namer, report, log,
            )
            report.offpage_added += 1
        log.add(
            Severity.INFO, Category.CONNECTIVITY, label,
            f"implicit cross-page net made explicit on pages {sorted(sites)}",
            remedy="off-page connectors synthesized",
        )
    return report


def insert_hierarchy_connectors(
    schematic: Schematic,
    dialect: Dialect,
    libraries: LibrarySet,
    log: Optional[IssueLog] = None,
    report: Optional[ConnectorReport] = None,
) -> ConnectorReport:
    """Bind each schematic port to a hierarchy connector on its named net."""
    log = log if log is not None else IssueLog()
    report = report if report is not None else ConnectorReport()
    namer = _ConnectorNamer(schematic, "hier$")
    names = dialect.connectors
    symbol_for_direction = {
        PinDirection.INPUT: libraries.resolve(names.library, names.hier_in),
        PinDirection.OUTPUT: libraries.resolve(names.library, names.hier_out),
        PinDirection.BIDIRECTIONAL: libraries.resolve(names.library, names.hier_inout),
    }

    floating_by_page: Dict[int, List[FloatingEnd]] = {
        page.number: find_floating_ends(page) for page in schematic.pages
    }

    for port in schematic.ports:
        placed = False
        for page in schematic.pages:
            for index, wire in enumerate(page.wires):
                if wire.label != port.name:
                    continue
                floating = next(
                    (
                        end
                        for end in floating_by_page[page.number]
                        if end.wire_index == index
                    ),
                    None,
                )
                if floating is not None:
                    floating_by_page[page.number].remove(floating)
                _place_for_net(
                    schematic, page, index, floating,
                    symbol_for_direction[port.direction], port.name,
                    namer, report, log,
                )
                report.hierarchy_added += 1
                placed = True
                break
            if placed:
                break
        if not placed:
            log.add(
                Severity.ERROR, Category.CONNECTIVITY, port.name,
                "no labeled net found for port; hierarchy connector not placed",
                remedy="label the port's net or add the connector manually",
            )
    return report
