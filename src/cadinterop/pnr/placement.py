"""Row-based standard-cell placement with greedy HPWL improvement.

Not a competitive placer — a *sufficient* one: it legalizes instances onto
site rows, honors placement keepouts and pre-placed macros, and improves
half-perimeter wirelength with swap passes, so the routing and coupling
experiments downstream run on sane placements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from cadinterop.common.geometry import Orientation, Point, Rect
from cadinterop.obs import get_tracer
from cadinterop.pnr.design import PnRDesign, PnRInstance, pin_offset
from cadinterop.pnr.floorplan import Floorplan
from cadinterop.pnr.tech import Technology


@dataclass
class PlacementResult:
    """Outcome of a placement run."""

    placed: int
    hpwl: int
    rows_used: int
    swap_improvements: int


def hpwl(design: PnRDesign, pad_positions: Optional[Dict[str, Point]] = None) -> int:
    """Total half-perimeter wirelength over all nets."""
    total = 0
    pads = pad_positions or {}
    for terminals in design.nets.values():
        points: List[Point] = []
        for kind, name, pin in terminals:
            if kind == "inst":
                instance = design.instance(name)
                if instance.placed:
                    points.append(instance.pin_position(pin))
            elif name in pads:
                points.append(pads[name])
        if len(points) >= 2:
            box = Rect.bounding(points)
            total += box.width + box.height
    return total


class RowPlacer:
    """Legalize-and-improve placement into floorplan rows."""

    def __init__(
        self,
        tech: Technology,
        floorplan: Floorplan,
        site_name: str = "core",
        seed: int = 1,
    ) -> None:
        self.tech = tech
        self.floorplan = floorplan
        self.site = tech.sites[site_name]
        self.rng = random.Random(seed)

    def _slot_blocked(self, rect: Rect) -> bool:
        for keepout in self.floorplan.keepouts:
            if not keepout.layers and keepout.rect.intersects(rect):
                return True
        for block in self.floorplan.blocks.values():
            if block.location is not None and block.outline().intersects(rect):
                return True
        return False

    def _build_slots(self, widths: Sequence[int]) -> List[List[Point]]:
        """Slot origins per row, wide enough for the widest cell."""
        die = self.floorplan.die
        slot_width = max(widths) if widths else self.site.width
        # Round up to a whole number of sites.
        sites_per_slot = -(-slot_width // self.site.width)
        slot_width = sites_per_slot * self.site.width
        rows: List[List[Point]] = []
        y = die.y1
        while y + self.site.height <= die.y2:
            row: List[Point] = []
            x = die.x1
            while x + slot_width <= die.x2:
                rect = Rect(x, y, x + slot_width, y + self.site.height)
                if not self._slot_blocked(rect):
                    row.append(Point(x, y))
                x += slot_width
            rows.append(row)
            y += self.site.height
        return rows

    def place(
        self,
        design: PnRDesign,
        pad_positions: Optional[Dict[str, Point]] = None,
        swap_passes: int = 2,
    ) -> PlacementResult:
        with get_tracer().span("pnr:place", design=design.name) as span:
            movable = [
                instance
                for instance in design.instances.values()
                if not instance.placed and instance.cell.kind == "stdcell"
            ]
            rows = self._build_slots([i.cell.width for i in movable])
            slots = [point for row in rows for point in row]
            if len(slots) < len(movable):
                raise ValueError(
                    f"floorplan has {len(slots)} slots for {len(movable)} cells"
                )

            # Initial placement: deterministic shuffle then assignment.
            order = list(movable)
            self.rng.shuffle(order)
            for instance, slot in zip(order, slots):
                instance.location = slot

            # Greedy improvement: swap pairs if HPWL improves.  A swap moves
            # only its two instances, so only the nets touching them are
            # re-measured.
            nets_of = _net_index(design, pad_positions)
            improvements = 0
            for _ in range(swap_passes):
                improved = False
                for i in range(len(order)):
                    for j in range(i + 1, min(i + 8, len(order))):
                        a, b = order[i], order[j]
                        nets = nets_of[a.name]
                        nets = nets + [net for net in nets_of[b.name] if net not in nets]
                        before = sum(net.hpwl() for net in nets)
                        a.location, b.location = b.location, a.location
                        after = sum(net.hpwl() for net in nets)
                        if after < before:
                            improvements += 1
                            improved = True
                        else:
                            a.location, b.location = b.location, a.location
                if not improved:
                    break

            rows_used = len({instance.location.y for instance in movable}) if movable else 0
            span.set(cells=len(movable), swaps=improvements)
            return PlacementResult(
                placed=len(movable),
                hpwl=hpwl(design, pad_positions),
                rows_used=rows_used,
                swap_improvements=improvements,
            )


class _PlacedNet:
    """One net as the swap pass sees it.

    ``movers`` are the placed instances on it, each with its pin's offset
    from the instance origin; ``fixed`` are its pad points.  Equality is
    identity.
    """

    __slots__ = ("movers", "fixed")

    def __init__(
        self, movers: Sequence[Tuple[PnRInstance, int, int]], fixed: Sequence[Point]
    ) -> None:
        self.movers = tuple(movers)
        self.fixed = tuple(fixed)

    def hpwl(self) -> int:
        xs = [instance.location.x + dx for instance, dx, _dy in self.movers]
        ys = [instance.location.y + dy for instance, _dx, dy in self.movers]
        xs.extend(point.x for point in self.fixed)
        ys.extend(point.y for point in self.fixed)
        return max(xs) - min(xs) + max(ys) - min(ys)


def _net_index(
    design: PnRDesign, pad_positions: Optional[Dict[str, Point]]
) -> Dict[str, List[_PlacedNet]]:
    """Instance name -> the nets touching it, in design order.

    Only nets with two or more placed points have a wirelength, so only
    those are indexed.  Pin offsets are taken once per (cell, pin,
    orientation); the cell's identity stands for it, since cell abstracts
    are mutable and unhashable.
    """
    pads = pad_positions or {}
    offsets: Dict[Tuple[int, str, Orientation], Point] = {}
    index: Dict[str, List[_PlacedNet]] = {name: [] for name in design.instances}
    for terminals in design.nets.values():
        movers: List[Tuple[PnRInstance, int, int]] = []
        fixed: List[Point] = []
        for kind, name, pin in terminals:
            if kind == "inst":
                instance = design.instance(name)
                if instance.placed:
                    key = (id(instance.cell), pin, instance.orientation)
                    offset = offsets.get(key)
                    if offset is None:
                        offset = offsets[key] = pin_offset(
                            instance.cell, pin, instance.orientation
                        )
                    movers.append((instance, offset.x, offset.y))
            elif name in pads:
                fixed.append(pads[name])
        if len(movers) + len(fixed) < 2:
            continue
        net = _PlacedNet(movers, fixed)
        for name in dict.fromkeys(instance.name for instance, _x, _y in movers):
            index[name].append(net)
    return index
