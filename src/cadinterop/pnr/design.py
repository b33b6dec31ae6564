"""The structural design a P&R flow assembles: instances, nets, pads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from cadinterop.common.geometry import ORIGIN, Orientation, Point, Rect, Transform
from cadinterop.pnr.cells import CellAbstract


@dataclass
class PnRInstance:
    """A placeable occurrence of a cell abstract."""

    name: str
    cell: CellAbstract
    location: Optional[Point] = None
    orientation: Orientation = Orientation.R0

    @property
    def placed(self) -> bool:
        return self.location is not None

    def outline(self) -> Rect:
        if self.location is None:
            raise ValueError(f"instance {self.name!r} is not placed")
        transform = Transform(self.location, self.orientation)
        return transform.apply_rect(self.cell.boundary)

    def pin_position(self, pin_name: str) -> Point:
        """Center of the pin's bounding box in die coordinates."""
        if self.location is None:
            raise ValueError(f"instance {self.name!r} is not placed")
        offset = pin_offset(self.cell, pin_name, self.orientation)
        return offset.translated(self.location.x, self.location.y)


def pin_offset(cell: CellAbstract, pin_name: str, orientation: Orientation) -> Point:
    """Center of a pin's box under ``orientation``, relative to the origin.

    Adding an instance's location gives its pin position exactly:
    ``Rect.center`` floors, and flooring commutes with an integer
    translation.
    """
    box = cell.pin(pin_name).bounding_box()
    return Transform(ORIGIN, orientation).apply_rect(box).center


class PinOffsets:
    """:func:`pin_offset` as ``(dx, dy)``, taken once per (cell, pin, orientation).

    Cell abstracts are mutable and unhashable, so a cell's identity stands
    for it.  The table holds every cell it has seen, so no id is reused
    while its entries stand.
    """

    def __init__(self) -> None:
        self._offsets: Dict[Tuple[int, str, Orientation], Tuple[int, int]] = {}
        self._cells: List[CellAbstract] = []

    def of(self, instance: PnRInstance, pin_name: str) -> Tuple[int, int]:
        cell = instance.cell
        key = (id(cell), pin_name, instance.orientation)
        offset = self._offsets.get(key)
        if offset is None:
            point = pin_offset(cell, pin_name, instance.orientation)
            offset = self._offsets[key] = (point.x, point.y)
            self._cells.append(cell)
        return offset


#: A net terminal: ("inst", instance name, pin name) or ("pad", pad name, "").
Terminal = Tuple[str, str, str]


def inst_terminal(instance: str, pin: str) -> Terminal:
    return ("inst", instance, pin)


def pad_terminal(name: str) -> Terminal:
    return ("pad", name, "")


class PnRDesign:
    """Instances + logical nets; the input to placement and routing."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.instances: Dict[str, PnRInstance] = {}
        self.nets: Dict[str, List[Terminal]] = {}

    def add_instance(self, instance: PnRInstance) -> PnRInstance:
        if instance.name in self.instances:
            raise ValueError(f"duplicate instance {instance.name!r}")
        self.instances[instance.name] = instance
        return instance

    def add_net(self, name: str, terminals: Sequence[Terminal]) -> None:
        if name in self.nets:
            raise ValueError(f"duplicate net {name!r}")
        for kind, instance_name, pin_name in terminals:
            if kind == "inst":
                instance = self.instances.get(instance_name)
                if instance is None:
                    raise ValueError(f"net {name!r}: unknown instance {instance_name!r}")
                if not instance.cell.has_pin(pin_name):
                    raise ValueError(
                        f"net {name!r}: {instance.cell.name!r} has no pin {pin_name!r}"
                    )
            elif kind != "pad":
                raise ValueError(f"bad terminal kind {kind!r}")
        self.nets[name] = list(terminals)

    def instance(self, name: str) -> PnRInstance:
        try:
            return self.instances[name]
        except KeyError:
            raise KeyError(f"no instance named {name!r}") from None

