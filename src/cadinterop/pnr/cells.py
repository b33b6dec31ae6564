"""Cell abstract views: what every P&R tool needs, each in its own way.

Section 4 ("Cell definition"): "All P&R tools require an abstract
view/definition of the design cells or blocks that they are to assemble.
These abstract views consist of many parts including cell/block boundaries,
site types, legal orientations, a complex (and sometimes comprehensive) set
of pin data, and routing blockages...  The parts of a pin are: a name,
location, shape, layer, and a set of connection properties.  The connection
properties include access direction, multiple connect, equivalent connect,
must connect, and connect by abutment.  Each P&R tool supports a slightly
different set of input data requirements.  For instance, some tools read
access direction as a property, while others try to determine it from the
routing blockages."

Both access-direction conventions are implemented: explicit properties on
:class:`CellPin`, and :func:`derive_access_from_blockages`, which infers
the directions a router can approach a pin from by checking which sides of
the pin shape are clear of blockage metal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from cadinterop.common.geometry import Orientation, Rect

#: Router approach directions.
ACCESS_DIRECTIONS: Tuple[str, ...] = ("north", "south", "east", "west")


@dataclass(frozen=True)
class ConnectionProps:
    """The paper's five connection properties."""

    access: Optional[FrozenSet[str]] = None  # None = not specified (derive)
    multiple_connect: bool = False
    equivalent_group: Optional[str] = None  # pins in a group are interchangeable
    must_connect: bool = False
    connect_by_abutment: bool = False

    def __post_init__(self) -> None:
        if self.access is not None:
            bad = set(self.access) - set(ACCESS_DIRECTIONS)
            if bad:
                raise ValueError(f"bad access directions {sorted(bad)}")


@dataclass(frozen=True)
class PinShape:
    """One metal rectangle of a pin."""

    layer: str
    rect: Rect


@dataclass
class CellPin:
    """A pin of a cell abstract."""

    name: str
    shapes: List[PinShape]
    props: ConnectionProps = field(default_factory=ConnectionProps)
    use: str = "signal"  # signal / power / ground / clock

    USES = ("signal", "power", "ground", "clock")

    def __post_init__(self) -> None:
        if not self.shapes:
            raise ValueError(f"pin {self.name!r} needs at least one shape")
        if self.use not in self.USES:
            raise ValueError(f"bad pin use {self.use!r}")

    def bounding_box(self) -> Rect:
        box = self.shapes[0].rect
        for shape in self.shapes[1:]:
            box = box.union(shape.rect)
        return box


@dataclass(frozen=True)
class Blockage:
    """A routing obstruction inside the cell."""

    layer: str
    rect: Rect


@dataclass
class CellAbstract:
    """The abstract (LEF-like) view of one cell or block."""

    name: str
    width: int
    height: int
    site: str = "core"
    kind: str = "stdcell"  # stdcell / macro / pad
    legal_orientations: Tuple[Orientation, ...] = (
        Orientation.R0, Orientation.MY,
    )
    pins: List[CellPin] = field(default_factory=list)
    blockages: List[Blockage] = field(default_factory=list)

    KINDS = ("stdcell", "macro", "pad")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"bad cell kind {self.kind!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("cell dimensions must be positive")
        seen: Set[str] = set()
        for pin in self.pins:
            if pin.name in seen:
                raise ValueError(f"duplicate pin {pin.name!r} on cell {self.name!r}")
            seen.add(pin.name)

    @property
    def boundary(self) -> Rect:
        return Rect(0, 0, self.width, self.height)

    def pin(self, name: str) -> CellPin:
        for pin in self.pins:
            if pin.name == name:
                return pin
        raise KeyError(f"cell {self.name!r} has no pin {name!r}")

    def has_pin(self, name: str) -> bool:
        return any(pin.name == name for pin in self.pins)

    def pin_names(self) -> List[str]:
        return [pin.name for pin in self.pins]

    def equivalent_groups(self) -> Dict[str, List[str]]:
        groups: Dict[str, List[str]] = {}
        for pin in self.pins:
            if pin.props.equivalent_group:
                groups.setdefault(pin.props.equivalent_group, []).append(pin.name)
        return groups


def derive_access_from_blockages(cell: CellAbstract, pin_name: str, clearance: int = 2) -> FrozenSet[str]:
    """Infer access directions by probing for blockage metal around the pin.

    For each side of the pin's bounding box, a probe strip ``clearance``
    units deep is tested against same-layer blockages and the cell
    boundary; a clear strip means the router can approach from that side.
    This is the "determine it from the routing blockages" convention, and
    it is *more conservative* than an explicit property — the mismatch the
    backplane must paper over.
    """
    pin = cell.pin(pin_name)
    box = pin.bounding_box()
    layers = {shape.layer for shape in pin.shapes}
    boundary = cell.boundary

    probes = {
        "north": Rect(box.x1, box.y2, box.x2, box.y2 + clearance),
        "south": Rect(box.x1, box.y1 - clearance, box.x2, box.y1),
        "east": Rect(box.x2, box.y1, box.x2 + clearance, box.y2),
        "west": Rect(box.x1 - clearance, box.y1, box.x1, box.y2),
    }
    clear: Set[str] = set()
    for direction, probe in probes.items():
        if not boundary.contains_rect(probe):
            # Probing past the cell edge: approach is from outside, which
            # is always legal for boundary pins.
            clear.add(direction)
            continue
        blocked = any(
            blockage.layer in layers and blockage.rect.intersects(probe)
            for blockage in cell.blockages
        )
        if not blocked:
            clear.add(direction)
    return frozenset(clear)


def effective_access(cell: CellAbstract, pin_name: str, mode: str) -> FrozenSet[str]:
    """Access directions under a tool's convention.

    ``mode`` is ``"property"`` (use the explicit property, fall back to
    derivation when absent) or ``"derived"`` (always derive — the tool
    ignores the property even when present).
    """
    if mode not in ("property", "derived"):
        raise ValueError(f"bad access mode {mode!r}")
    pin = cell.pin(pin_name)
    if mode == "property" and pin.props.access is not None:
        return pin.props.access
    return derive_access_from_blockages(cell, pin_name)


class CellLibrary:
    """A named set of cell abstracts."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._cells: Dict[str, CellAbstract] = {}

    def add(self, cell: CellAbstract) -> CellAbstract:
        if cell.name in self._cells:
            raise ValueError(f"duplicate cell {cell.name!r}")
        self._cells[cell.name] = cell
        return cell

    def cell(self, name: str) -> CellAbstract:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"library {self.name!r} has no cell {name!r}") from None

    def cells(self) -> List[CellAbstract]:
        return list(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, name: str) -> bool:
        return name in self._cells
