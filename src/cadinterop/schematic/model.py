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

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from cadinterop.common.geometry import (
    Orientation,
    Point,
    Rect,
    Segment,
    Transform,
    path_segments,
)
from cadinterop.common.properties import PropertyBag


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

    def __reduce__(self):
        """Pickle by constructor arguments with the transform unpacked, not
        the field dict: smaller and faster."""
        offset, orientation = self.transform.offset, self.transform.orientation
        return (
            _placed_instance,
            (self.name, self.symbol, offset.x, offset.y, orientation, self.properties),
        )

    def pin_position(self, pin_name: str) -> Point:
        return self.transform.apply(self.symbol.pin(pin_name).position)

    def pin_positions(self) -> Dict[str, Point]:
        return {pin.name: self.transform.apply(pin.position) for pin in self.symbol.pins}

    def bounding_box(self) -> Rect:
        return self.transform.apply_rect(self.symbol.body)

    @property
    def orientation(self) -> Orientation:
        return self.transform.orientation


def _placed_instance(
    name: str, symbol: Symbol, x: int, y: int, orientation: Orientation,
    properties: PropertyBag,
) -> Instance:
    """The instance of ``symbol`` placed at ``(x, y)`` in ``orientation``
    (how a pickled instance is restored)."""
    return Instance(name, symbol, Transform(Point(x, y), orientation), properties)


class PinOffsets:
    """Each symbol's pins as ``(name, dx, dy)`` under one orientation, taken once.

    ``dx, dy`` is the pin's position relative to the instance origin, so a
    pin sits at the origin plus its offset, exactly where
    :meth:`Instance.pin_position` puts it.  Symbols are mutable and
    unhashable, so a symbol's identity stands for it; the table holds every
    symbol it has seen, so no id is reused while its entries stand.  Make
    one table per call: it assumes no symbol's pins change while it lives.
    """

    def __init__(self) -> None:
        self._offsets: Dict[Tuple[int, Orientation], Tuple[Tuple[str, int, int], ...]] = {}
        self._symbols: List[Symbol] = []

    def of(self, symbol: Symbol, orientation: Orientation) -> Tuple[Tuple[str, int, int], ...]:
        key = (id(symbol), orientation)
        offsets = self._offsets.get(key)
        if offsets is None:
            a, b, c, d = orientation.matrix()
            offsets = self._offsets[key] = tuple(
                (pin.name, a * pin.position.x + b * pin.position.y,
                 c * pin.position.x + d * pin.position.y)
                for pin in symbol.pins
            )
            self._symbols.append(symbol)
        return offsets

    def positions(self, instance: Instance) -> Dict[str, Point]:
        """:meth:`Instance.pin_positions`, from the table."""
        transform = instance.transform
        ox, oy = transform.offset.x, transform.offset.y
        return {
            name: Point(ox + dx, oy + dy)
            for name, dx, dy in self.of(instance.symbol, transform.orientation)
        }


def _check_manhattan(points: Sequence[Point]) -> None:
    """Raise as :func:`path_segments` does if a step is neither horizontal
    nor vertical."""
    for a, b in zip(points, points[1:]):
        if a.x != b.x and a.y != b.y:
            raise ValueError(f"segment {a}->{b} is not Manhattan")


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
        # Validate Manhattan-ness eagerly, as path_segments would.
        _check_manhattan(self.points)

    def __reduce__(self):
        """Pickle the points as one flat tuple of coordinates."""
        return (
            _wire_from_flat,
            (tuple(chain.from_iterable(self.points)), self.label, self.label_position),
        )

    def segments(self) -> List[Segment]:
        return path_segments(self.points)

    @property
    def endpoints(self) -> Tuple[Point, Point]:
        return (self.points[0], self.points[-1])

    def length(self) -> int:
        return sum(seg.length for seg in self.segments())


def _wire_from_flat(
    flat: Tuple[int, ...], label: Optional[str], label_position: Optional[Point]
) -> Wire:
    """The wire through the points ``flat`` lists as ``x0, y0, x1, y1, ...``
    (how a pickled wire is restored)."""
    coordinates = iter(flat)
    return Wire(list(map(Point, coordinates, coordinates)), label, label_position)


#: One segment of a wire on its fixed line: (low coordinate, high coordinate,
#: wire number).
_Interval = Tuple[int, int, int]


def _intervals(points: Sequence[Point], number: int) -> List[Tuple[bool, int, _Interval]]:
    """``(vertical, fixed coordinate, interval)`` for each segment of wire
    ``number`` drawn through ``points``; repeated points make no segment."""
    result: List[Tuple[bool, int, _Interval]] = []
    if not points:
        return result
    px, py = points[0].x, points[0].y
    for point in points:
        x, y = point.x, point.y
        if y == py:
            if x == px:
                continue  # a repeated point
            result.append((False, y, (x, px, number) if x < px else (px, x, number)))
        elif x == px:
            result.append((True, x, (y, py, number) if y < py else (py, y, number)))
        else:
            raise ValueError(f"segment {Point(px, py)}->{point} is not Manhattan")
        px, py = x, y
    return result


class WireIndex:
    """Point-on-wire lookups over one page's wires, built once per page.

    Each segment becomes an interval on its fixed line: horizontal segments
    are bucketed by ``y``, vertical ones by ``x``, each bucket sorted.  Two
    wires touch exactly when a segment of one contains a segment end of the
    other, so every touch and pin-attach test on a page is a lookup instead
    of a scan over all wires.  ``bare`` lists, in ascending order, the wires
    with no segment (every point the same), which no lookup returns.

    The index is a snapshot: edit a wire's points and it is stale until
    :meth:`replace_wire` is told of the edit.
    """

    def __init__(self, wires: Sequence[Wire]) -> None:
        self._horizontal: Dict[int, List[_Interval]] = {}
        self._vertical: Dict[int, List[_Interval]] = {}
        self.bare: List[int] = []
        for number, wire in enumerate(wires):
            intervals = _intervals(wire.points, number)
            if not intervals:
                self.bare.append(number)
            for vertical, fixed, interval in intervals:
                line = self._vertical if vertical else self._horizontal
                bucket = line.get(fixed)
                if bucket is None:
                    line[fixed] = [interval]
                else:
                    bucket.append(interval)
        for bucket in self._horizontal.values():
            bucket.sort()
        for bucket in self._vertical.values():
            bucket.sort()

    def replace_wire(
        self, number: int, old_points: Sequence[Point], new_points: Sequence[Point]
    ) -> None:
        """Swap wire ``number``'s intervals from ``old_points`` to ``new_points``.

        Afterwards every lookup answers as an index built afresh from the
        edited wires would.  With no ``old_points`` this adds wire
        ``number`` (the next one appended to the page).
        """
        for vertical, fixed, interval in _intervals(old_points, number):
            line = self._vertical if vertical else self._horizontal
            bucket = line[fixed]
            del bucket[bisect_left(bucket, interval)]
            if not bucket:
                del line[fixed]
        intervals = _intervals(new_points, number)
        for vertical, fixed, interval in intervals:
            line = self._vertical if vertical else self._horizontal
            bucket = line.get(fixed)
            if bucket is None:
                line[fixed] = [interval]
            else:
                insort(bucket, interval)
        position = bisect_left(self.bare, number)
        listed = position < len(self.bare) and self.bare[position] == number
        if listed and intervals:
            del self.bare[position]
        elif not listed and not intervals:
            self.bare.insert(position, number)

    def wires_at(self, x: int, y: int) -> Set[int]:
        """Numbers of the wires with a segment containing ``(x, y)``."""
        found: Set[int] = set()
        for lo, hi, number in self._horizontal.get(y, ()):
            if lo > x:
                break
            if x <= hi:
                found.add(number)
        for lo, hi, number in self._vertical.get(x, ()):
            if lo > y:
                break
            if y <= hi:
                found.add(number)
        return found

    def touching_pairs(self) -> List[Tuple[int, int]]:
        """Pairs of different wires that touch, enough to join all that do.

        Each segment end is paired with every wire whose perpendicular
        segment contains it.  On one line, sorted intervals that overlap
        form runs; each is paired with the run's interval reaching farthest
        so far, which it overlaps.  Joining the pairs gives the same
        connected groups as joining every touching pair.
        """
        pairs: List[Tuple[int, int]] = []
        for lines, across in (
            (self._horizontal, self._vertical), (self._vertical, self._horizontal)
        ):
            for fixed, bucket in lines.items():
                reach = reacher = None
                for lo, hi, number in bucket:
                    if reacher is None or lo > reach:
                        reach, reacher = hi, number
                    else:
                        if number != reacher:
                            pairs.append((reacher, number))
                        if hi > reach:
                            reach, reacher = hi, number
                    for end in (lo, hi):
                        crossing = across.get(end)
                        if crossing:
                            for other_lo, other_hi, other in crossing:
                                if other_lo > fixed:
                                    break
                                if fixed <= other_hi and other != number:
                                    pairs.append((number, other))
        return pairs

    def wires_touching(self, a: Point, b: Point) -> Set[int]:
        """Numbers of the wires with a segment that touches segment ``a``-``b``.

        Segments touch when either contains an end of the other (as
        :meth:`Segment.touches` in either order).
        """
        if a.y == b.y:
            along, across, fixed = self._horizontal, self._vertical, a.y
            lo, hi = (a.x, b.x) if a.x < b.x else (b.x, a.x)
        else:
            along, across, fixed = self._vertical, self._horizontal, a.x
            lo, hi = (a.y, b.y) if a.y < b.y else (b.y, a.y)
        found: Set[int] = set()
        for other_lo, other_hi, number in along.get(fixed, ()):
            if other_lo > hi:
                break
            if other_hi >= lo:
                found.add(number)
        for line, bucket in across.items():
            if lo <= line <= hi:
                at_end = line == lo or line == hi
                for other_lo, other_hi, number in bucket:
                    if other_lo > fixed:
                        break
                    if other_lo == fixed or other_hi == fixed or (at_end and other_hi >= fixed):
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
        self.add_instances((instance,))
        return instance

    def add_instances(self, instances: Iterable[Instance]) -> None:
        """Append ``instances`` in order; a name already on the page raises.

        Names are checked against one set, so adding n instances is linear.
        """
        names = {existing.name for existing in self.instances}
        for instance in instances:
            if instance.name in names:
                raise SchematicError(
                    f"duplicate instance {instance.name!r} on page {self.number}"
                )
            names.add(instance.name)
            self.instances.append(instance)

    def add_wire(self, wire: Wire) -> Wire:
        self.wires.append(wire)
        return wire

    def add_label(self, label: TextLabel) -> TextLabel:
        self.labels.append(label)
        return label

    def instance(self, name: str) -> Instance:
        return self.instances[self.instance_position(name)]

    def instance_position(self, name: str) -> int:
        """Where instance ``name`` sits in :attr:`instances`."""
        for position, instance in enumerate(self.instances):
            if instance.name == name:
                return position
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

    def cells(self) -> List[Schematic]:
        return list(self._cells.values())

    @property
    def top_cell(self) -> Schematic:
        if self.top is None:
            raise SchematicError(f"design {self.name!r} has no top cell")
        return self.cell(self.top)
