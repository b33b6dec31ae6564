"""Component replacement with minimal net-segment rip-up (paper Figure 1).

"Exar's requirements included taking the existing schematics ... and
replacing the ... primitive library components with existing library
components from the Cadence system.  As shown in Figure 1, this component
replacement required ripping up specific existing components, along with the
segments of the nets connected to the pins of those components.  The ripped
up net segments were then rerouted to the pins of the replacement
components symbols.  The number of ripped up net segments was minimized,
and the resulting ... schematic ... appeared graphically very similar to
the original."

Two strategies are provided so the minimization claim is measurable:

* :func:`replace_component` — the paper's approach: only the wire segments
  that *end on* a moved pin are ripped; each is rerouted with at most one
  added jog.
* ``strategy="naive"`` — rip every segment of every attached wire and
  reroute each from its far end with a fresh L-route; the baseline that
  shows what minimization buys (benchmark E1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.common.geometry import Point, Transform
from cadinterop.schematic.model import (
    Instance,
    Page,
    PinOffsets,
    SchematicError,
    Symbol,
    Wire,
    WireIndex,
)
from cadinterop.schematic.symbolmap import SymbolMapping


@dataclass
class ReplacementStats:
    """Accounting for one component replacement."""

    instance: str
    ripped_segments: int = 0
    added_segments: int = 0
    retained_segments: int = 0
    moved_pins: int = 0
    unmoved_pins: int = 0

    def __reduce__(self):
        """Pickle by constructor arguments, not the field dict: smaller and faster."""
        return (
            ReplacementStats,
            (self.instance, self.ripped_segments, self.added_segments,
             self.retained_segments, self.moved_pins, self.unmoved_pins),
        )

    @property
    def total_original_segments(self) -> int:
        return self.ripped_segments + self.retained_segments

    @property
    def similarity(self) -> float:
        """Fraction of original attached-wire segments left untouched."""
        total = self.total_original_segments
        return 1.0 if total == 0 else self.retained_segments / total


class RipupError(SchematicError):
    """Replacement could not be completed (unreachable pin, bad wiring)."""


def replace_component(
    page: Page,
    instance_name: str,
    mapping: SymbolMapping,
    target_symbol: Symbol,
    log: Optional[IssueLog] = None,
    strategy: str = "minimal",
    index: Optional[WireIndex] = None,
    pins: Optional[PinOffsets] = None,
) -> ReplacementStats:
    """Replace one instance on ``page`` per ``mapping``, rerouting its nets.

    The replacement instance is placed at the original transform composed
    with the mapping's origin offset and rotation code, so it lands where
    the original sat, and goes to the end of the page's instance list.
    Wires attached to each source pin are rerouted to the corresponding
    target pin (through the pin-name map).

    ``index`` is the page's :class:`WireIndex`, if the caller keeps one
    across several replacements on the page; every rerouted wire is swapped
    in it, so it stays current.  Without one, a fresh index is built.
    ``pins`` is a pin offset table the caller may share between calls.
    """
    if strategy not in ("minimal", "naive"):
        raise ValueError(f"unknown strategy {strategy!r}")
    log = log if log is not None else IssueLog()
    pins = pins if pins is not None else PinOffsets()
    position = page.instance_position(instance_name)
    old_instance = page.instances[position]
    stats = ReplacementStats(instance=instance_name)

    correction = Transform(mapping.origin_offset, mapping.rotation)
    new_transform = correction.compose(old_instance.transform)
    new_instance = Instance(
        name=old_instance.name,
        symbol=target_symbol,
        transform=new_transform,
        properties=old_instance.properties.copy(),
    )

    # Old pin position -> new pin position, via the pin-name map.
    old_positions = pins.positions(old_instance)
    new_positions = pins.positions(new_instance)
    pin_moves: Dict[Point, Point] = {}
    for old_pin, old_pos in old_positions.items():
        new_pin = mapping.map_pin(old_pin)
        if new_pin not in new_positions:
            raise RipupError(
                f"pin {old_pin!r} of {instance_name!r} has no target pin "
                f"{new_pin!r} on {target_symbol.full_name}"
            )
        new_pos = new_positions[new_pin]
        pin_moves[old_pos] = new_pos
        if old_pos == new_pos:
            stats.unmoved_pins += 1
        else:
            stats.moved_pins += 1

    # The new instance has the old one's name, so the swap cannot clash.
    del page.instances[position]
    page.instances.append(new_instance)

    # Only wires through an old pin position or ending on one can need
    # work; visit them in page order so warnings keep their order.  A wire
    # ending on a pin has a segment through it unless it has no segment at
    # all, and then its every point is the same.
    if index is None:
        index = WireIndex(page.wires)
    tapped = {old_pos: index.wires_at(old_pos.x, old_pos.y) for old_pos in pin_moves}
    visit = set().union(*tapped.values())
    visit.update(n for n in index.bare if page.wires[n].points[0] in pin_moves)

    for wire_index in sorted(visit):
        wire = page.wires[wire_index]
        attached_ends = [
            (end_index, point)
            for end_index, point in ((0, wire.points[0]), (-1, wire.points[-1]))
            if point in pin_moves
        ]
        mid_attach = any(
            wire_index in wires and old_pos not in wire.endpoints
            for old_pos, wires in tapped.items()
        )
        if mid_attach:
            log.add(
                Severity.WARNING, Category.CONNECTIVITY, instance_name,
                f"wire taps pin mid-segment; rerouting endpoint-attached wires only",
                remedy="verification will flag any broken connection",
            )
        if not attached_ends:
            continue

        # Rerouting assigns new point lists and never edits the old one.
        old_points = wire.points
        try:
            if strategy == "naive":
                _naive_reroute(wire, attached_ends, pin_moves, stats)
            else:
                _minimal_reroute(wire, attached_ends, pin_moves, stats)
        finally:
            if wire.points is not old_points:
                index.replace_wire(wire_index, old_points, wire.points)

    return stats


def _segment_count(points: List[Point]) -> int:
    """``len(path_segments(points))`` without building the segments."""
    count = 0
    previous = points[0]
    for point in points:
        if point.x != previous.x or point.y != previous.y:
            count += 1
        previous = point
    return count


def _minimal_reroute(
    wire: Wire,
    attached_ends: List[Tuple[int, Point]],
    pin_moves: Dict[Point, Point],
    stats: ReplacementStats,
) -> None:
    """Move only the terminal segment(s) touching a moved pin."""
    original_segment_count = _segment_count(wire.points)
    touched = 0
    for end_index, old_pos in attached_ends:
        new_pos = pin_moves[old_pos]
        if new_pos == old_pos:
            continue
        touched += _reroute_end(wire, end_index, new_pos, stats)
    stats.retained_segments += max(0, original_segment_count - touched)


def _reroute_end(wire: Wire, end_index: int, new_pos: Point, stats: ReplacementStats) -> int:
    """Rewire one end of ``wire`` to ``new_pos``; returns segments ripped."""
    points = wire.points
    if end_index == 0:
        anchor = points[1]
        end_pos = points[0]
    else:
        anchor = points[-2]
        end_pos = points[-1]

    # One original segment (anchor -> end) is always consumed.
    if new_pos == anchor:
        # Degenerate: the pin moved onto the anchor; drop the segment.
        replacement: List[Point] = [new_pos]
        added = 0
    elif new_pos.x == anchor.x or new_pos.y == anchor.y:
        replacement = [new_pos]
        added = 1
    else:
        # Need a jog: prefer the elbow that keeps the original segment's axis.
        old_segment_horizontal = anchor.y == end_pos.y
        if old_segment_horizontal:
            elbow = Point(new_pos.x, anchor.y)
        else:
            elbow = Point(anchor.x, new_pos.y)
        replacement = [elbow, new_pos]
        added = 2

    if end_index == 0:
        wire.points = list(reversed(replacement)) + points[1:]
    else:
        wire.points = points[:-1] + replacement
    _cleanup_polyline(wire)
    stats.ripped_segments += 1
    stats.added_segments += added
    return 1


def _naive_reroute(
    wire: Wire,
    attached_ends: List[Tuple[int, Point]],
    pin_moves: Dict[Point, Point],
    stats: ReplacementStats,
) -> None:
    """Baseline: throw the whole wire away and L-route from the far end."""
    original_segments = _segment_count(wire.points)
    stats.ripped_segments += original_segments

    # Determine the far anchor (an end NOT attached to a moved pin, else the
    # first attached end's new position becomes the start).
    attached_indices = {idx for idx, _pos in attached_ends}
    if 0 in attached_indices and -1 in attached_indices:
        start = pin_moves[wire.points[0]]
        end = pin_moves[wire.points[-1]]
    elif 0 in attached_indices:
        start = pin_moves[wire.points[0]]
        end = wire.points[-1]
    else:
        start = wire.points[0]
        end = pin_moves[wire.points[-1]]

    if start == end:
        # Cannot produce a legal zero-length wire; keep a minimal stub by
        # offsetting through a unit elbow (counts as rerouting artifact).
        wire.points = [start, Point(start.x + 1, start.y), Point(start.x + 1, start.y + 1)]
        stats.added_segments += 2
        return
    if start.x == end.x or start.y == end.y:
        wire.points = [start, end]
        stats.added_segments += 1
    else:
        elbow = Point(end.x, start.y)
        wire.points = [start, elbow, end]
        stats.added_segments += 2
    _cleanup_polyline(wire)


def _cleanup_polyline(wire: Wire) -> None:
    """Remove repeated points and merge collinear runs in place."""
    cleaned: List[Point] = []
    for point in wire.points:
        if cleaned and point == cleaned[-1]:
            continue
        if len(cleaned) >= 2:
            a, b = cleaned[-2], cleaned[-1]
            collinear_x = a.x == b.x == point.x
            collinear_y = a.y == b.y == point.y
            if collinear_x or collinear_y:
                cleaned[-1] = point
                continue
        cleaned.append(point)
    if len(cleaned) < 2:
        raise RipupError("rerouting collapsed a wire to a single point")
    wire.points = cleaned


@dataclass
class BatchReplacementReport:
    """Aggregate stats over a page- or design-wide replacement pass."""

    per_instance: List[ReplacementStats] = field(default_factory=list)

    def add(self, stats: ReplacementStats) -> None:
        self.per_instance.append(stats)

    @property
    def total_ripped(self) -> int:
        return sum(s.ripped_segments for s in self.per_instance)

    @property
    def total_retained(self) -> int:
        return sum(s.retained_segments for s in self.per_instance)

    @property
    def mean_similarity(self) -> float:
        if not self.per_instance:
            return 1.0
        return sum(s.similarity for s in self.per_instance) / len(self.per_instance)

    @property
    def replacements(self) -> int:
        return len(self.per_instance)
