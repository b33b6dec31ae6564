"""Schematic data model: libraries, symbols, pages, instances, nets, labels.

The model is deliberately *vendor-neutral*: both synthetic dialects
(Viewdraw-like and Composer-like) serialize to and from this structure, and
the migration pipeline of :mod:`cadinterop.schematic.migrate` transforms one
dialect's conventions into the other's within it.

Connectivity is geometric, as in real schematic editors: wires are Manhattan
polylines, a net is the set of wires/pins/labels that touch.  The
:mod:`cadinterop.schematic.netlist` extractor derives logical connectivity
from this geometry, which is what migration verification compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from cadinterop.common.geometry import (
    Orientation,
    Point,
    Rect,
    Segment,
    Transform,
    path_segments,
)
from cadinterop.common.properties import PropertyBag, PropertyValue


class SchematicError(Exception):
    """Base error for schematic model violations."""


class PinDirection:
    """Pin / connector direction constants (string-valued for serialization)."""

    INPUT = "input"
    OUTPUT = "output"
    BIDIRECTIONAL = "bidirectional"
    ALL = (INPUT, OUTPUT, BIDIRECTIONAL)


@dataclass
class SymbolPin:
    """A pin on a symbol master, positioned in symbol-local coordinates."""

    name: str
    position: Point
    direction: str = PinDirection.BIDIRECTIONAL

    def __post_init__(self) -> None:
        if self.direction not in PinDirection.ALL:
            raise SchematicError(f"bad pin direction {self.direction!r} on pin {self.name!r}")


@dataclass
class Symbol:
    """A symbol master: body outline, pins, default properties.

    ``kind`` distinguishes ordinary components from the special masters the
    Composer-like dialect requires: hierarchy connectors, off-page
    connectors, and global symbols (power/ground).
    """

    library: str
    name: str
    view: str = "symbol"
    body: Rect = field(default_factory=lambda: Rect(0, 0, 32, 32))
    pins: List[SymbolPin] = field(default_factory=list)
    properties: PropertyBag = field(default_factory=PropertyBag)
    kind: str = "component"

    KINDS = ("component", "hier_connector", "offpage_connector", "global")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise SchematicError(f"bad symbol kind {self.kind!r}")
        seen = set()
        for pin in self.pins:
            if pin.name in seen:
                raise SchematicError(f"duplicate pin {pin.name!r} on symbol {self.full_name}")
            seen.add(pin.name)

    @property
    def full_name(self) -> str:
        return f"{self.library}/{self.name}/{self.view}"

    def pin(self, name: str) -> SymbolPin:
        for pin in self.pins:
            if pin.name == name:
                return pin
        raise SchematicError(f"symbol {self.full_name} has no pin {name!r}")

    def has_pin(self, name: str) -> bool:
        return any(pin.name == name for pin in self.pins)

    def pin_names(self) -> List[str]:
        return [pin.name for pin in self.pins]


class Library:
    """A named collection of symbol masters, keyed by (name, view)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._symbols: Dict[Tuple[str, str], Symbol] = {}

    def add(self, symbol: Symbol) -> Symbol:
        if symbol.library != self.name:
            raise SchematicError(
                f"symbol {symbol.full_name} belongs to library {symbol.library!r}, not {self.name!r}"
            )
        key = (symbol.name, symbol.view)
        if key in self._symbols:
            raise SchematicError(f"duplicate symbol {symbol.full_name}")
        self._symbols[key] = symbol
        return symbol

    def get(self, name: str, view: str = "symbol") -> Symbol:
        try:
            return self._symbols[(name, view)]
        except KeyError:
            raise SchematicError(f"library {self.name!r} has no symbol {name}/{view}") from None

    def has(self, name: str, view: str = "symbol") -> bool:
        return (name, view) in self._symbols

    def symbols(self) -> List[Symbol]:
        return list(self._symbols.values())

    def __len__(self) -> int:
        return len(self._symbols)


class LibrarySet:
    """All libraries visible to a design."""

    def __init__(self, libraries: Iterable[Library] = ()) -> None:
        self._libraries: Dict[str, Library] = {}
        for library in libraries:
            self.add(library)

    def add(self, library: Library) -> Library:
        if library.name in self._libraries:
            raise SchematicError(f"duplicate library {library.name!r}")
        self._libraries[library.name] = library
        return library

    def library(self, name: str) -> Library:
        try:
            return self._libraries[name]
        except KeyError:
            raise SchematicError(f"no library named {name!r}") from None

    def resolve(self, library: str, name: str, view: str = "symbol") -> Symbol:
        return self.library(library).get(name, view)

    def has(self, library: str, name: str, view: str = "symbol") -> bool:
        return library in self._libraries and self._libraries[library].has(name, view)

    def libraries(self) -> List[Library]:
        return list(self._libraries.values())


@dataclass
class Instance:
    """A placed occurrence of a symbol on a page."""

    name: str
    symbol: Symbol
    transform: Transform
    properties: PropertyBag = field(default_factory=PropertyBag)

    def pin_position(self, pin_name: str) -> Point:
        return self.transform.apply(self.symbol.pin(pin_name).position)

    def pin_positions(self) -> Dict[str, Point]:
        return {pin.name: self.transform.apply(pin.position) for pin in self.symbol.pins}

    def bounding_box(self) -> Rect:
        return self.transform.apply_rect(self.symbol.body)

    @property
    def orientation(self) -> Orientation:
        return self.transform.orientation


@dataclass
class Wire:
    """A Manhattan polyline carrying connectivity, optionally labeled.

    The label text is in the *owning dialect's* bus syntax; migration rewrites
    it (see :mod:`cadinterop.schematic.busnotation`).
    """

    points: List[Point]
    label: Optional[str] = None
    label_position: Optional[Point] = None

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise SchematicError("wire needs at least two points")
        # Validate Manhattan-ness eagerly; path_segments raises otherwise.
        path_segments(self.points)

    def segments(self) -> List[Segment]:
        return path_segments(self.points)

    @property
    def endpoints(self) -> Tuple[Point, Point]:
        return (self.points[0], self.points[-1])

    def length(self) -> int:
        return sum(seg.length for seg in self.segments())


#: One segment of a wire on its fixed line: (low coordinate, high coordinate,
#: wire number).
_Interval = Tuple[int, int, int]


class WireIndex:
    """Point-on-wire lookups over one page's wires, built once per page.

    Each segment becomes an interval on its fixed line: horizontal segments
    are bucketed by ``y``, vertical ones by ``x``, each bucket sorted by its
    low end.  Two wires touch exactly when a segment of one contains a
    segment end of the other, so every touch and pin-attach test on a page
    is a :meth:`wires_at` lookup instead of a scan over all wires.
    ``bare`` lists the wires with no segment (every point the same), which
    no lookup returns.

    The index is a snapshot: edit a wire's points and it is stale.
    """

    def __init__(self, wires: Sequence[Wire]) -> None:
        horizontal: Dict[int, List[_Interval]] = {}
        vertical: Dict[int, List[_Interval]] = {}
        self.bare: List[int] = []
        for number, wire in enumerate(wires):
            first = wire.points[0]
            px, py = first.x, first.y
            bare = True
            for point in wire.points:
                x, y = point.x, point.y
                if y == py:
                    if x == px:
                        continue  # a repeated point
                    interval = (x, px, number) if x < px else (px, x, number)
                    line, fixed = horizontal, y
                elif x == px:
                    interval = (y, py, number) if y < py else (py, y, number)
                    line, fixed = vertical, x
                else:
                    raise ValueError(f"segment {Point(px, py)}->{point} is not Manhattan")
                bucket = line.get(fixed)
                if bucket is None:
                    line[fixed] = [interval]
                else:
                    bucket.append(interval)
                px, py = x, y
                bare = False
            if bare:
                self.bare.append(number)
        for bucket in horizontal.values():
            bucket.sort()
        for bucket in vertical.values():
            bucket.sort()
        self._horizontal = horizontal
        self._vertical = vertical

    def segment_ends(self) -> Iterator[Tuple[int, int, int]]:
        """``(wire number, x, y)`` for both ends of every segment."""
        for y, bucket in self._horizontal.items():
            for lo, hi, number in bucket:
                yield number, lo, y
                yield number, hi, y
        for x, bucket in self._vertical.items():
            for lo, hi, number in bucket:
                yield number, x, lo
                yield number, x, hi

    def wires_at(self, x: int, y: int) -> Set[int]:
        """Numbers of the wires with a segment containing ``(x, y)``."""
        found: Set[int] = set()
        for along, bucket in ((x, self._horizontal.get(y)), (y, self._vertical.get(x))):
            if bucket:
                for lo, hi, number in bucket:
                    if lo > along:
                        break
                    if along <= hi:
                        found.add(number)
        return found


@dataclass
class TextLabel:
    """Free-standing annotation text (not connectivity-bearing).

    ``baseline_offset`` is the dialect font's anchor-to-baseline distance:
    the glyph baseline (bottom of an "E") sits ``baseline_offset`` *below*
    the anchor ``position``.  Copying an anchor verbatim between dialects
    with different offsets therefore moves the visible glyphs — the paper's
    "E appears as an F" cosmetic bug.
    """

    text: str
    position: Point
    height: int = 8
    width_per_char: int = 6
    baseline_offset: int = 0

    @property
    def baseline_y(self) -> int:
        return self.position.y - self.baseline_offset

    def bounding_box(self) -> Rect:
        width = max(1, len(self.text)) * self.width_per_char
        y1 = self.baseline_y
        return Rect(self.position.x, y1, self.position.x + width, y1 + self.height)


@dataclass
class Page:
    """One sheet of a multi-page schematic."""

    number: int
    frame: Rect
    instances: List[Instance] = field(default_factory=list)
    wires: List[Wire] = field(default_factory=list)
    labels: List[TextLabel] = field(default_factory=list)

    def add_instance(self, instance: Instance) -> Instance:
        if any(existing.name == instance.name for existing in self.instances):
            raise SchematicError(f"duplicate instance {instance.name!r} on page {self.number}")
        self.instances.append(instance)
        return instance

    def add_wire(self, wire: Wire) -> Wire:
        self.wires.append(wire)
        return wire

    def add_label(self, label: TextLabel) -> TextLabel:
        self.labels.append(label)
        return label

    def instance(self, name: str) -> Instance:
        for instance in self.instances:
            if instance.name == name:
                return instance
        raise SchematicError(f"page {self.number} has no instance {name!r}")

    def remove_instance(self, name: str) -> Instance:
        for index, instance in enumerate(self.instances):
            if instance.name == name:
                return self.instances.pop(index)
        raise SchematicError(f"page {self.number} has no instance {name!r}")


@dataclass
class Port:
    """A port of a schematic cell (its interface when used hierarchically)."""

    name: str
    direction: str = PinDirection.BIDIRECTIONAL

    def __post_init__(self) -> None:
        if self.direction not in PinDirection.ALL:
            raise SchematicError(f"bad port direction {self.direction!r} on port {self.name!r}")


class Schematic:
    """A schematic cell: ports plus one or more pages, in a named dialect.

    ``dialect`` is the name of the conventions the drawing currently obeys
    (grid, bus syntax, connector discipline); migration produces a new
    Schematic in the target dialect.
    """

    def __init__(
        self,
        name: str,
        dialect: str,
        ports: Optional[Sequence[Port]] = None,
        properties: Optional[PropertyBag] = None,
    ) -> None:
        self.name = name
        self.dialect = dialect
        self.ports: List[Port] = list(ports or [])
        self.properties = properties if properties is not None else PropertyBag()
        self.pages: List[Page] = []

    def add_page(self, frame: Rect) -> Page:
        page = Page(number=len(self.pages) + 1, frame=frame)
        self.pages.append(page)
        return page

    def page(self, number: int) -> Page:
        for page in self.pages:
            if page.number == number:
                return page
        raise SchematicError(f"schematic {self.name!r} has no page {number}")

    def port(self, name: str) -> Port:
        for port in self.ports:
            if port.name == name:
                return port
        raise SchematicError(f"schematic {self.name!r} has no port {name!r}")

    def add_port(self, port: Port) -> Port:
        if any(existing.name == port.name for existing in self.ports):
            raise SchematicError(f"duplicate port {port.name!r}")
        self.ports.append(port)
        return port

    def all_instances(self) -> Iterator[Tuple[Page, Instance]]:
        for page in self.pages:
            for instance in page.instances:
                yield page, instance

    def all_wires(self) -> Iterator[Tuple[Page, Wire]]:
        for page in self.pages:
            for wire in page.wires:
                yield page, wire

    def instance_count(self) -> int:
        return sum(len(page.instances) for page in self.pages)

    def wire_count(self) -> int:
        return sum(len(page.wires) for page in self.pages)

    def find_instance(self, name: str) -> Tuple[Page, Instance]:
        for page, instance in self.all_instances():
            if instance.name == name:
                return page, instance
        raise SchematicError(f"schematic {self.name!r} has no instance {name!r}")


class Design:
    """A hierarchical design: schematic cells plus the libraries they use."""

    def __init__(self, name: str, libraries: Optional[LibrarySet] = None) -> None:
        self.name = name
        self.libraries = libraries or LibrarySet()
        self._cells: Dict[str, Schematic] = {}
        self.top: Optional[str] = None

    def add_cell(self, schematic: Schematic, top: bool = False) -> Schematic:
        if schematic.name in self._cells:
            raise SchematicError(f"duplicate cell {schematic.name!r}")
        self._cells[schematic.name] = schematic
        if top or self.top is None:
            self.top = schematic.name
        return schematic

    def cell(self, name: str) -> Schematic:
        try:
            return self._cells[name]
        except KeyError:
            raise SchematicError(f"design {self.name!r} has no cell {name!r}") from None

    def has_cell(self, name: str) -> bool:
        return name in self._cells

    def cells(self) -> List[Schematic]:
        return list(self._cells.values())

    @property
    def top_cell(self) -> Schematic:
        if self.top is None:
            raise SchematicError(f"design {self.name!r} has no top cell")
        return self.cell(self.top)
