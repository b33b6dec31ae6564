"""Floorplanning: blocks, pin constraints, keepouts, global-net strategies.

Section 4 ("Block floorplanning"): "During floorplanning, a designer makes
decisions on block aspect ratios and size, general and literal pin
locations, and special blockages marking keep out zones.  He also defines
the general routing strategies for global signals such as power, ground and
clock.  Once the designer is satisfied with the floorplan, he must then
convey all of the appropriate information to the P&R tools."

And ("Interconnect topology"): per-net width, spacing, and shielding rules
— the constraints some tools "can not support" and the rest accept "in
inconsistent language or semantics".  The neutral representation here is
what :mod:`cadinterop.pnr.backplane` conveys to each tool dialect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from cadinterop.common.geometry import Point, Rect


@dataclass
class PinConstraint:
    """Where a block/die pin should land.

    Either a *general* constraint (an edge) or a *literal* one (an exact
    location on that edge).
    """

    name: str
    edge: str  # north / south / east / west
    offset: Optional[int] = None  # literal position along the edge, if given
    layer: Optional[str] = None

    EDGES = ("north", "south", "east", "west")

    def __post_init__(self) -> None:
        if self.edge not in self.EDGES:
            raise ValueError(f"bad edge {self.edge!r}")

    @property
    def is_literal(self) -> bool:
        return self.offset is not None


@dataclass
class Block:
    """A floorplan block with size/aspect decisions."""

    name: str
    area: int
    aspect_ratio: float = 1.0  # width / height
    location: Optional[Point] = None
    pin_constraints: List[PinConstraint] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.area <= 0:
            raise ValueError("block area must be positive")
        if self.aspect_ratio <= 0:
            raise ValueError("aspect ratio must be positive")

    @property
    def width(self) -> int:
        return max(1, round(math.sqrt(self.area * self.aspect_ratio)))

    @property
    def height(self) -> int:
        return max(1, round(self.area / self.width))

    def outline(self) -> Rect:
        if self.location is None:
            raise ValueError(f"block {self.name!r} is not placed")
        return Rect(
            self.location.x,
            self.location.y,
            self.location.x + self.width,
            self.location.y + self.height,
        )


@dataclass(frozen=True)
class Keepout:
    """A keep-out zone: no cells, and optionally no routing on layers."""

    rect: Rect
    layers: Tuple[str, ...] = ()  # empty = placement-only keepout


@dataclass(frozen=True)
class GlobalNetStrategy:
    """Routing strategy for a global signal (power/ground/clock)."""

    net: str
    kind: str  # power / ground / clock
    style: str  # ring / trunk / spine
    layer: str
    width: int
    shielded: bool = False

    KINDS = ("power", "ground", "clock")
    STYLES = ("ring", "trunk", "spine")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"bad global net kind {self.kind!r}")
        if self.style not in self.STYLES:
            raise ValueError(f"bad strategy style {self.style!r}")
        if self.width <= 0:
            raise ValueError("strategy width must be positive")


@dataclass(frozen=True)
class NetRule:
    """Per-net topology control: the Section 4 width/spacing/shield trio."""

    net: str
    width_tracks: int = 1
    spacing_tracks: int = 1
    shield: bool = False

    def __post_init__(self) -> None:
        if self.width_tracks < 1 or self.spacing_tracks < 1:
            raise ValueError("net rule tracks must be >= 1")


class Floorplan:
    """The designer's physical intent for one die."""

    def __init__(self, name: str, die: Rect) -> None:
        self.name = name
        self.die = die
        self.blocks: Dict[str, Block] = {}
        self.keepouts: List[Keepout] = []
        self.strategies: Dict[str, GlobalNetStrategy] = {}
        self.net_rules: Dict[str, NetRule] = {}
        self.pin_constraints: List[PinConstraint] = []  # die-level pins

    def add_block(self, block: Block) -> Block:
        if block.name in self.blocks:
            raise ValueError(f"duplicate block {block.name!r}")
        self.blocks[block.name] = block
        return block

    def add_keepout(self, keepout: Keepout) -> Keepout:
        self.keepouts.append(keepout)
        return keepout

    def add_strategy(self, strategy: GlobalNetStrategy) -> GlobalNetStrategy:
        if strategy.net in self.strategies:
            raise ValueError(f"duplicate strategy for net {strategy.net!r}")
        self.strategies[strategy.net] = strategy
        return strategy

    def add_net_rule(self, rule: NetRule) -> NetRule:
        if rule.net in self.net_rules:
            raise ValueError(f"duplicate rule for net {rule.net!r}")
        self.net_rules[rule.net] = rule
        return rule

    def add_pin_constraint(self, constraint: PinConstraint) -> PinConstraint:
        self.pin_constraints.append(constraint)
        return constraint

    def validate(self) -> List[str]:
        """Return a list of consistency problems (empty = clean)."""
        problems: List[str] = []
        placed = [b for b in self.blocks.values() if b.location is not None]
        for block in placed:
            if not self.die.contains_rect(block.outline()):
                problems.append(f"block {block.name!r} extends past the die")
        for i, a in enumerate(placed):
            for b in placed[i + 1 :]:
                outline_a, outline_b = a.outline(), b.outline()
                if outline_a.intersects(outline_b):
                    overlap = outline_a.intersection(outline_b)
                    if overlap.area > 0:
                        problems.append(f"blocks {a.name!r} and {b.name!r} overlap")
        for keepout in self.keepouts:
            if not self.die.contains_rect(keepout.rect):
                problems.append("keepout extends past the die")
        for constraint in self.pin_constraints:
            if constraint.is_literal:
                limit = (
                    self.die.width
                    if constraint.edge in ("north", "south")
                    else self.die.height
                )
                if not 0 <= constraint.offset <= limit:
                    problems.append(
                        f"pin {constraint.name!r} offset {constraint.offset} "
                        f"outside the {constraint.edge} edge"
                    )
        return problems

    def pin_location(self, constraint: PinConstraint) -> Point:
        """Resolve a pin constraint to a die-boundary point.

        Literal constraints resolve exactly; general ones land mid-edge.
        """
        die = self.die
        if constraint.edge in ("north", "south"):
            x = die.x1 + (constraint.offset if constraint.is_literal else die.width // 2)
            y = die.y2 if constraint.edge == "north" else die.y1
        else:
            y = die.y1 + (constraint.offset if constraint.is_literal else die.height // 2)
            x = die.x2 if constraint.edge == "east" else die.x1
        return Point(x, y)
