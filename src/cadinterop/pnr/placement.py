"""Row-based standard-cell placement with greedy HPWL improvement.

Not a competitive placer — a *sufficient* one: it legalizes instances onto
site rows, honors placement keepouts and pre-placed macros, and improves
half-perimeter wirelength with swap passes, so the routing and coupling
experiments downstream run on sane placements.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from cadinterop.common.geometry import Point, Rect
from cadinterop.obs import get_tracer
from cadinterop.pnr.design import PinOffsets, PnRDesign, PnRInstance
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

    def _build_slots(self, widths: Sequence[int]) -> List[List[Point]]:
        """Slot origins per row, wide enough for the widest cell.

        A slot is blocked where it meets a placement keepout or a placed
        block (closed rectangles, as ``Rect.intersects`` has them).  Each
        row takes the blockers whose y-range meets it, sorted by ``x1`` with
        a running maximum of ``x2``: the slot ``[x, x + width]`` meets one
        exactly when the blockers starting at or before ``x + width`` reach
        ``x``, which one bisection answers.
        """
        die = self.floorplan.die
        slot_width = max(widths) if widths else self.site.width
        # Round up to a whole number of sites.
        sites_per_slot = -(-slot_width // self.site.width)
        slot_width = sites_per_slot * self.site.width
        blockers = [
            keepout.rect for keepout in self.floorplan.keepouts if not keepout.layers
        ] + [
            block.outline()
            for block in self.floorplan.blocks.values()
            if block.location is not None
        ]
        blockers.sort(key=lambda rect: rect.x1)
        rows: List[List[Point]] = []
        y = die.y1
        while y + self.site.height <= die.y2:
            starts: List[int] = []
            reach: List[int] = []
            for rect in blockers:
                if rect.y1 <= y + self.site.height and rect.y2 >= y:
                    starts.append(rect.x1)
                    reach.append(max(rect.x2, reach[-1]) if reach else rect.x2)
            row: List[Point] = []
            x = die.x1
            while x + slot_width <= die.x2:
                k = bisect_right(starts, x + slot_width)
                if not k or reach[k - 1] < x:
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

            # Greedy improvement: swap pairs if HPWL improves.  The pass works
            # on instance indices into ``order`` and their coordinates.  A
            # swap moves only its two instances, so ``before`` is the sum of
            # the cached wirelengths of the nets touching them, and only
            # ``after`` is measured.
            xs = [instance.location.x for instance in order]
            ys = [instance.location.y for instance in order]
            nets, nets_of = _net_index(design, order, pad_positions)
            lengths = [_length(net, xs, ys) for net in nets]
            improvements = 0
            for _ in range(swap_passes):
                improved = False
                for i in range(len(order)):
                    nets_i = nets_of[i]
                    for j in range(i + 1, min(i + 8, len(order))):
                        touched = nets_i | nets_of[j]
                        before = sum([lengths[n] for n in touched])
                        xs[i], xs[j] = xs[j], xs[i]
                        ys[i], ys[j] = ys[j], ys[i]
                        after = [_length(nets[n], xs, ys) for n in touched]
                        if sum(after) < before:
                            improvements += 1
                            improved = True
                            for n, length in zip(touched, after):
                                lengths[n] = length
                        else:
                            xs[i], xs[j] = xs[j], xs[i]
                            ys[i], ys[j] = ys[j], ys[i]
                if not improved:
                    break
            for instance, x, y in zip(order, xs, ys):
                instance.location = Point(x, y)

            rows_used = len({instance.location.y for instance in movable}) if movable else 0
            span.set(cells=len(movable), swaps=improvements)
            return PlacementResult(
                placed=len(movable),
                hpwl=sum(lengths),
                rows_used=rows_used,
                swap_improvements=improvements,
            )


#: A net as the swap pass sees it: its pins on movable instances as
#: ``(instance index, dx, dy)``, and the bounding box ``(x1, x2, y1, y2)`` of
#: its fixed points (pads and pins of instances placed before the pass);
#: ``_EMPTY`` when it has none.
_Net = Tuple[Tuple[Tuple[int, int, int], ...], Tuple[int, int, int, int]]

_FAR = 1 << 62
_EMPTY = (_FAR, -_FAR, _FAR, -_FAR)


def _length(net: _Net, xs: Sequence[int], ys: Sequence[int]) -> int:
    """Half-perimeter wirelength of ``net`` with the movers at ``xs``, ``ys``."""
    pins, (x1, x2, y1, y2) = net
    for i, dx, dy in pins:
        x = xs[i] + dx
        if x < x1:
            x1 = x
        if x > x2:
            x2 = x
        y = ys[i] + dy
        if y < y1:
            y1 = y
        if y > y2:
            y2 = y
    return x2 - x1 + y2 - y1


def _net_index(
    design: PnRDesign,
    movers: Sequence[PnRInstance],
    pad_positions: Optional[Dict[str, Point]],
) -> Tuple[List[_Net], List[FrozenSet[int]]]:
    """Every net with a wirelength, and per mover the indices of its nets.

    A net has a wirelength when it has two or more placed points; the ones
    with no mover keep a fixed one, and count only toward the total.
    """
    pads = pad_positions or {}
    offsets = PinOffsets()
    index_of = {instance.name: i for i, instance in enumerate(movers)}
    nets: List[_Net] = []
    nets_of: List[Set[int]] = [set() for _ in movers]
    for terminals in design.nets.values():
        pins: List[Tuple[int, int, int]] = []
        fixed: List[Point] = []
        for kind, name, pin in terminals:
            if kind == "inst":
                instance = design.instance(name)
                if instance.placed:
                    dx, dy = offsets.of(instance, pin)
                    i = index_of.get(name)
                    if i is None:
                        fixed.append(instance.location.translated(dx, dy))
                    else:
                        pins.append((i, dx, dy))
            elif name in pads:
                fixed.append(pads[name])
        if len(pins) + len(fixed) < 2:
            continue
        box = _EMPTY
        if fixed:
            xs = [point.x for point in fixed]
            ys = [point.y for point in fixed]
            box = (min(xs), max(xs), min(ys), max(ys))
        for i, _dx, _dy in pins:
            nets_of[i].add(len(nets))
        nets.append((tuple(pins), box))
    return nets, [frozenset(touching) for touching in nets_of]
