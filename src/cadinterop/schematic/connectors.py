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
    PinOffsets,
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


class _PageSites:
    """One page's wire index and pin points, for placing connectors.

    Stubs and connectors added through :meth:`add_wire` and
    :meth:`add_instance` are added here too, so every query answers for the
    page as it stands.
    """

    def __init__(self, page: Page, pins: PinOffsets) -> None:
        self.page = page
        self.wires = WireIndex(page.wires)
        self._pins = pins
        # Pin points by line: y -> xs and x -> ys.
        self._rows: Dict[int, Set[int]] = {}
        self._columns: Dict[int, Set[int]] = {}
        for instance in page.instances:
            self._add_pins(instance)

    def _add_pins(self, instance: Instance) -> None:
        transform = instance.transform
        ox, oy = transform.offset.x, transform.offset.y
        for _name, dx, dy in self._pins.of(instance.symbol, transform.orientation):
            x, y = ox + dx, oy + dy
            self._rows.setdefault(y, set()).add(x)
            self._columns.setdefault(x, set()).add(y)

    def add_wire(self, wire: Wire) -> None:
        self.page.add_wire(wire)
        self.wires.replace_wire(len(self.page.wires) - 1, (), wire.points)

    def add_instance(self, instance: Instance) -> None:
        self.page.add_instance(instance)
        self._add_pins(instance)

    def is_pin(self, point: Point) -> bool:
        return point.x in self._rows.get(point.y, ())

    def pin_on(self, stub: Segment) -> bool:
        """True if some pin lies on ``stub``."""
        a, b = stub.a, stub.b
        if stub.is_horizontal:
            along, fixed, lo, hi = self._rows, a.y, min(a.x, b.x), max(a.x, b.x)
        else:
            along, fixed, lo, hi = self._columns, a.x, min(a.y, b.y), max(a.y, b.y)
        return any(lo <= at <= hi for at in along.get(fixed, ()))


def find_floating_ends(page: Page) -> List[FloatingEnd]:
    """Locate all floating wire ends on a page."""
    return _floating_ends(_PageSites(page, PinOffsets()))


def _floating_ends(sites: _PageSites) -> List[FloatingEnd]:
    page = sites.page
    floating: List[FloatingEnd] = []
    for index, wire in enumerate(page.wires):
        for end_index, point in ((0, wire.points[0]), (-1, wire.points[-1])):
            if sites.is_pin(point):
                continue
            if not sites.wires.wires_at(point.x, point.y) - {index}:
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


def _stub_is_clear(sites: _PageSites, stub: Segment, ignore_wire: int) -> bool:
    """True if ``stub`` would not touch any other wire or instance pin."""
    if sites.wires.wires_touching(stub.a, stub.b) - {ignore_wire}:
        return False
    return not sites.pin_on(stub)


def _attach_connector(
    sites: _PageSites,
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
    sites.add_instance(instance)
    return instance


def _place_for_net(
    sites: _PageSites,
    wire_index: int,
    floating: Optional[FloatingEnd],
    symbol: Symbol,
    signal: str,
    namer: _ConnectorNamer,
    report: ConnectorReport,
    log: IssueLog,
) -> None:
    """Place one connector for the net carried by ``page.wires[wire_index]``."""
    page = sites.page
    wire = page.wires[wire_index]
    if floating is not None:
        _attach_connector(sites, floating.point, symbol, signal, namer)
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
        if _stub_is_clear(sites, stub, ignore_wire=wire_index):
            sites.add_wire(Wire([anchor, edge_point]))
            _attach_connector(sites, edge_point, symbol, signal, namer)
            report.placed_at_sheet_edge += 1
            return

    _attach_connector(sites, anchor, symbol, signal, namer)
    report.placed_direct += 1
    log.add(
        Severity.NOTE, Category.CONNECTIVITY, signal,
        f"connector placed directly on net (sheet-edge stub would short another net)",
    )


def _page_sites(schematic: Schematic) -> Dict[int, _PageSites]:
    pins = PinOffsets()
    return {page.number: _PageSites(page, pins) for page in schematic.pages}


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

    page_sites = _page_sites(schematic)
    floating_by_page: Dict[int, List[FloatingEnd]] = {
        number: _floating_ends(site) for number, site in page_sites.items()
    }

    for label, sites in sorted(label_sites.items()):
        if len(sites) < 2:
            continue
        for page_number, wire_index in sorted(sites.items()):
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
                page_sites[page_number], wire_index, floating, connector_symbol, label,
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

    page_sites = _page_sites(schematic)
    floating_by_page: Dict[int, List[FloatingEnd]] = {
        number: _floating_ends(site) for number, site in page_sites.items()
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
                    page_sites[page.number], index, floating,
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
