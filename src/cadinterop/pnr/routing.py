"""Grid router honoring per-net width, spacing, and shielding rules.

A two-layer Lee/A* router on the technology's routing grid.  Its purpose in
this library is interoperability-shaped: it *accepts* the full Section 4
constraint vocabulary (per-net width, spacing, shields) so the backplane
experiments can compare a tool that honors those constraints against
dialects that drop them — the measurable consequence is coupling
capacitance (:mod:`cadinterop.pnr.parasitics`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from cadinterop.common.geometry import Point, Rect
from cadinterop.obs import get_tracer
from cadinterop.pnr.design import PnRDesign, Terminal
from cadinterop.pnr.floorplan import Floorplan, GlobalNetStrategy, NetRule
from cadinterop.pnr.tech import Layer, Technology

#: A routing-grid node: (layer name, column index, row index).
Node = Tuple[str, int, int]

#: Occupancy marker for shield wires.
SHIELD = "$shield"


@dataclass
class RoutedNet:
    """One net's realized geometry on the grid."""

    name: str
    nodes: Set[Node] = field(default_factory=set)
    vias: int = 0
    rule: NetRule = field(default_factory=lambda: NetRule("?"))

    @property
    def wirelength_tracks(self) -> int:
        return max(0, len({(l, x, y) for l, x, y in self.nodes}) - 1)


@dataclass
class RoutingResult:
    """All routed nets plus failures and shield accounting."""

    routed: Dict[str, RoutedNet] = field(default_factory=dict)
    failed: List[str] = field(default_factory=list)
    shield_nodes: int = 0

    @property
    def success_rate(self) -> float:
        total = len(self.routed) + len(self.failed)
        return 1.0 if total == 0 else len(self.routed) / total

    @property
    def total_wirelength(self) -> int:
        return sum(net.wirelength_tracks for net in self.routed.values())


class GridRouter:
    """Routes a placed design over a floorplan with per-net rules."""

    def __init__(
        self,
        tech: Technology,
        floorplan: Floorplan,
        pad_positions: Optional[Dict[str, Point]] = None,
    ) -> None:
        self.tech = tech
        self.floorplan = floorplan
        self.pads = pad_positions or {}
        die = floorplan.die
        self.cols = max(1, die.width // tech.pitch)
        self.rows = max(1, die.height // tech.pitch)
        self.layers = {layer.name: layer for layer in tech.routing_layers()}
        self.occupancy: Dict[Node, str] = {}
        #: clearance (in tracks) each routed net demands around its wires
        self._net_margin: Dict[str, int] = {}
        self._blocked: Set[Node] = set()
        #: per layer, the moves out of a node on it, in search order: one
        #: track either way along the layer's direction (cost 1), then a
        #: via to each other layer at the same (x, y) (cost 2); entries
        #: are (layer, dx, dy, cost)
        self._moves: Dict[str, Tuple[Tuple[str, int, int, int], ...]] = {}
        for name, layer in self.layers.items():
            dx, dy = (1, 0) if layer.direction == "horizontal" else (0, 1)
            self._moves[name] = ((name, -dx, -dy, 1), (name, dx, dy, 1)) + tuple(
                (other, 0, 0, 2) for other in self.layers if other != name
            )
        for keepout in floorplan.keepouts:
            for layer_name in keepout.layers:
                if layer_name in self.layers:
                    self._block_rect(layer_name, keepout.rect)

    # -- grid helpers -------------------------------------------------------

    def _block_rect(self, layer_name: str, rect: Rect) -> None:
        die = self.floorplan.die
        x1 = max(0, (rect.x1 - die.x1) // self.tech.pitch)
        x2 = min(self.cols - 1, (rect.x2 - die.x1) // self.tech.pitch)
        y1 = max(0, (rect.y1 - die.y1) // self.tech.pitch)
        y2 = min(self.rows - 1, (rect.y2 - die.y1) // self.tech.pitch)
        for ix in range(x1, x2 + 1):
            for iy in range(y1, y2 + 1):
                self._blocked.add((layer_name, ix, iy))

    def snap(self, point: Point) -> Tuple[int, int]:
        die = self.floorplan.die
        ix = min(self.cols - 1, max(0, (point.x - die.x1) // self.tech.pitch))
        iy = min(self.rows - 1, max(0, (point.y - die.y1) // self.tech.pitch))
        return (ix, iy)

    def _usable(self, node: Node, net: str, margin: int, reach: int) -> bool:
        if node in self._blocked:
            return False
        owner = self.occupancy.get(node)
        if owner is not None and owner != net:
            return False
        layer_name, ix, iy = node
        layer = self.layers[layer_name]
        # Clearance is symmetric: respect both this net's margin and the
        # margin any already-routed neighbor demanded for itself.
        for d in range(1, reach + 1):
            if layer.direction == "horizontal":
                around = ((layer_name, ix, iy - d), (layer_name, ix, iy + d))
            else:
                around = ((layer_name, ix - d, iy), (layer_name, ix + d, iy))
            for neighbor in around:
                neighbor_owner = self.occupancy.get(neighbor)
                if neighbor_owner is None or neighbor_owner == net:
                    continue
                required = max(margin, self._net_margin.get(neighbor_owner, 0))
                if d <= required:
                    return False
        return True

    # -- routing --------------------------------------------------------------

    def _terminal_nodes(self, design: PnRDesign, terminal: Terminal) -> List[Node]:
        kind, name, pin = terminal
        if kind == "inst":
            position = design.instance(name).pin_position(pin)
        else:
            if name not in self.pads:
                raise KeyError(f"no pad position for {name!r}")
            position = self.pads[name]
        ix, iy = self.snap(position)
        return [(layer.name, ix, iy) for layer in self.layers.values()]

    def route_net(
        self,
        design: PnRDesign,
        net: str,
        rule: Optional[NetRule] = None,
    ) -> Optional[RoutedNet]:
        """Route one net; returns None on failure (occupancy untouched)."""
        rule = rule or self.floorplan.net_rules.get(net) or NetRule(net)
        margin = (rule.width_tracks - 1) + (rule.spacing_tracks - 1)
        terminals = design.nets[net]
        if len(terminals) < 2:
            routed = RoutedNet(net, rule=rule)
            return routed

        # A foreign wire d tracks across can only make a node unusable when
        # d is within this net's margin or the margin its owner demanded,
        # so clearance probes stop at the widest of those.
        reach = max(margin, max(self._net_margin.values(), default=0))
        # Occupancy and margins change only when this call commits, so one
        # usability verdict per node serves every terminal's search.
        verdicts: Dict[Node, bool] = {}
        routed_nodes: Set[Node] = set()
        vias = 0
        # Connect each terminal to the growing tree.
        tree: Set[Node] = set(self._terminal_nodes(design, terminals[0]))
        for terminal in terminals[1:]:
            # A terminal's nodes are one grid point's layer stack.
            targets = set(self._terminal_nodes(design, terminal))
            _l, tx, ty = next(iter(targets))
            path = self._astar(tree | routed_nodes, (tx, ty), net, margin, reach, verdicts)
            if path is None:
                return None
            for index, node in enumerate(path):
                routed_nodes.add(node)
                if index > 0 and path[index - 1][0] != node[0]:
                    vias += 1
            tree |= targets

        result = RoutedNet(net, nodes=routed_nodes, vias=vias, rule=rule)
        for node in routed_nodes:
            self.occupancy[node] = net
        self._net_margin[net] = margin
        return result

    def _astar(
        self,
        sources: Set[Node],
        target: Tuple[int, int],
        net: str,
        margin: int,
        reach: int,
        verdicts: Dict[Node, bool],
    ) -> Optional[List[Node]]:
        """Cheapest path from ``sources`` to any layer at grid point ``target``.

        ``verdicts`` caches :meth:`_usable` answers for this net; the
        caller keeps it only while occupancy and margins stand still.
        """
        tx, ty = target
        cols, rows = self.cols, self.rows
        occupancy = self.occupancy
        moves = self._moves
        heappush, heappop = heapq.heappush, heapq.heappop
        open_heap: List[Tuple[int, int, Node]] = []
        best: Dict[Node, int] = {}
        parent: Dict[Node, Optional[Node]] = {}
        counter = 0
        for source in sources:
            # Sources are admitted on hard occupancy only: a pin that sits
            # inside another net's clearance zone must still be escapable
            # (typically via the other layer).
            if source in self._blocked:
                continue
            if occupancy.get(source, net) != net:
                continue
            best[source] = 0
            parent[source] = None
            heappush(open_heap, (abs(source[1] - tx) + abs(source[2] - ty), counter, source))
            counter += 1

        while open_heap:
            _f, _c, node = heappop(open_heap)
            cost = best[node]
            if node[1] == tx and node[2] == ty:
                path: List[Node] = []
                current: Optional[Node] = node
                while current is not None:
                    path.append(current)
                    current = parent[current]
                return list(reversed(path))
            layer_name, x, y = node
            for move_layer, dx, dy, step in moves[layer_name]:
                nx, ny = x + dx, y + dy
                if not (0 <= nx < cols and 0 <= ny < rows):
                    continue
                neighbor = (move_layer, nx, ny)
                # Terminals are always enterable by their own net; margin
                # applies to the routing fabric in between.
                if nx == tx and ny == ty:
                    if occupancy.get(neighbor, net) != net:
                        continue
                else:
                    usable = verdicts.get(neighbor)
                    if usable is None:
                        usable = verdicts[neighbor] = self._usable(neighbor, net, margin, reach)
                    if not usable:
                        continue
                new_cost = cost + step
                if new_cost < best.get(neighbor, 1 << 30):
                    best[neighbor] = new_cost
                    parent[neighbor] = node
                    heappush(
                        open_heap,
                        (new_cost + abs(nx - tx) + abs(ny - ty), counter, neighbor),
                    )
                    counter += 1
        return None

    def add_shields(self, routed: RoutedNet) -> int:
        """Lay grounded shield tracks alongside a shielded net's wires."""
        added = 0
        for layer_name, ix, iy in routed.nodes:
            layer = self.layers[layer_name]
            for offset in (-1, 1):
                if layer.direction == "horizontal":
                    node = (layer_name, ix, iy + offset)
                else:
                    node = (layer_name, ix + offset, iy)
                _l, nx, ny = node
                if not (0 <= nx < self.cols and 0 <= ny < self.rows):
                    continue
                if node in self._blocked or node in self.occupancy:
                    continue
                self.occupancy[node] = SHIELD
                added += 1
        return added

    def realize_strategy(self, strategy: "GlobalNetStrategy", inset_tracks: int = 1) -> RoutedNet:
        """Generate the geometry of a global-net routing strategy.

        The paper's floorplanner "defines the general routing strategies
        for global signals such as power, ground and clock"; this realizes
        them on the grid:

        * ``ring`` — a rectangular loop ``inset_tracks`` inside the die
          boundary on the strategy's layer;
        * ``trunk`` — a horizontal band across the die's vertical middle;
        * ``spine`` — a vertical band down the die's horizontal middle.

        ``strategy.width`` is taken in routing tracks.  A shielded
        strategy gets grounded shield tracks alongside.  Occupied nodes
        belong to the strategy's net; call before signal routing so
        signals detour around the global structures, as real flows do.
        """
        nodes: Set[Node] = set()
        width = max(1, strategy.width)
        layer = self.layers.get(strategy.layer)
        if layer is None:
            raise KeyError(f"strategy layer {strategy.layer!r} not in technology")

        def claim(node: Node) -> None:
            _l, ix, iy = node
            if 0 <= ix < self.cols and 0 <= iy < self.rows:
                if node not in self._blocked and self.occupancy.get(node, strategy.net) == strategy.net:
                    nodes.add(node)

        if strategy.style == "ring":
            for offset in range(width):
                low = inset_tracks + offset
                high_col = self.cols - 1 - inset_tracks - offset
                high_row = self.rows - 1 - inset_tracks - offset
                for ix in range(low, high_col + 1):
                    claim((strategy.layer, ix, low))
                    claim((strategy.layer, ix, high_row))
                for iy in range(low, high_row + 1):
                    claim((strategy.layer, low, iy))
                    claim((strategy.layer, high_col, iy))
        elif strategy.style == "trunk":
            middle = self.rows // 2
            for offset in range(width):
                for ix in range(self.cols):
                    claim((strategy.layer, ix, middle + offset))
        else:  # spine
            middle = self.cols // 2
            for offset in range(width):
                for iy in range(self.rows):
                    claim((strategy.layer, middle + offset, iy))

        routed = RoutedNet(strategy.net, nodes=nodes, rule=NetRule(strategy.net))
        for node in nodes:
            self.occupancy[node] = strategy.net
        self._net_margin[strategy.net] = 0
        if strategy.shielded:
            self.add_shields(routed)
        return routed

    def route_design(
        self,
        design: PnRDesign,
        honor_rules: bool = True,
        honored_features: Optional[Set[str]] = None,
    ) -> RoutingResult:
        """Route every net, optionally degrading the rule vocabulary.

        ``honored_features`` (when ``honor_rules``) restricts which rule
        fields apply — e.g. a dialect that supports width but not spacing
        passes ``{"width"}``.  This is the backplane's degradation hook.
        """
        with get_tracer().span("pnr:route", design=design.name) as span:
            result = RoutingResult()
            features = honored_features if honored_features is not None else {
                "width", "spacing", "shield",
            }
            # Reserve every net's primary terminal node (the pin's own layer)
            # up front so no other net can route across a pin it does not own.
            # Upper-layer nodes above a pin stay free — crossing over a foreign
            # pin on another layer is legal.
            for net, terminals in design.nets.items():
                for terminal in terminals:
                    node = self._terminal_nodes(design, terminal)[0]
                    if self.occupancy.get(node, net) == net:
                        self.occupancy[node] = net
            # Route rule-carrying nets first (they need the room).
            ordered = sorted(
                design.nets,
                key=lambda n: (self.floorplan.net_rules.get(n) is None, n),
            )
            for net in ordered:
                rule = self.floorplan.net_rules.get(net) or NetRule(net)
                if not honor_rules:
                    effective = NetRule(net)
                else:
                    effective = NetRule(
                        net,
                        width_tracks=rule.width_tracks if "width" in features else 1,
                        spacing_tracks=rule.spacing_tracks if "spacing" in features else 1,
                        shield=rule.shield and "shield" in features,
                    )
                routed = self.route_net(design, net, effective)
                if routed is None:
                    result.failed.append(net)
                    continue
                result.routed[net] = routed
                if effective.shield:
                    result.shield_nodes += self.add_shields(routed)
            span.set(nets=len(design.nets), routed=len(result.routed), failed=len(result.failed))
            return result
