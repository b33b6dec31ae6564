"""Grid router honoring per-net width, spacing, and shielding rules.

A two-layer Lee/A* router on the technology's routing grid.  Its purpose in
this library is interoperability-shaped: it *accepts* the full Section 4
constraint vocabulary (per-net width, spacing, shields) so the backplane
experiments can compare a tool that honors those constraints against
dialects that drop them — the measurable consequence is coupling
capacitance (:mod:`cadinterop.pnr.parasitics`).

The search and its bookkeeping run on integer node ids over flat per-id
arrays (see :class:`GridRouter`); :data:`Node` tuples are the output form,
in ``occupancy`` and :class:`RoutedNet`, made once per routed node.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from cadinterop.common.geometry import Point, Rect
from cadinterop.obs import get_tracer
from cadinterop.pnr.design import PinOffsets, PnRDesign, Terminal
from cadinterop.pnr.floorplan import Floorplan, GlobalNetStrategy, NetRule
from cadinterop.pnr.tech import Technology

#: A routing-grid node as the router reports it: (layer name, column index,
#: row index).  The search itself works on integer ids (``GridRouter._id``).
Node = Tuple[str, int, int]

#: Occupancy marker for shield wires.
SHIELD = "$shield"

#: A* cost of a node no search has reached.
UNREACHED = 1 << 30


@dataclass
class RoutedNet:
    """One net's realized geometry on the grid."""

    name: str
    nodes: Set[Node] = field(default_factory=set)
    vias: int = 0
    rule: NetRule = field(default_factory=lambda: NetRule("?"))

    @property
    def wirelength_tracks(self) -> int:
        return max(0, len(self.nodes) - 1)


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
    """Routes a placed design over a floorplan with per-net rules.

    The search runs on integer node ids.  Each layer is a plane of
    ``(cols + 2) x (rows + 2)`` ids: the grid plus a one-track ring of wall
    nodes around it, so a one-track move is a constant id delta (``±1``
    along x, ``±stride`` along y, ``±k * plane`` for a via) that needs no
    bounds test and cannot wrap into another row or layer.  ``Node`` tuples
    are the output form, made from ids only when a net is committed.
    """

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
        #: the routed result: which net (or ``SHIELD``) holds each node.
        #: Read-only output; the router writes it through :meth:`_claim`.
        self.occupancy: Dict[Node, str] = {}
        #: clearance (in tracks) each routed net demands around its wires
        self._net_margin: Dict[str, int] = {}
        self._layer_names = list(self.layers)
        self._layer_index = {name: k for k, name in enumerate(self._layer_names)}
        self._stride = stride = self.cols + 2
        self._plane = plane = stride * (self.rows + 2)
        size = plane * len(self._layer_names)
        #: per id, the net or ``SHIELD`` holding it (``occupancy`` by id)
        self._owner: List[Optional[str]] = [None] * size
        #: per id, 1 for the ring around each layer and routing keepouts
        self._wall = bytearray(size)
        #: per id, A* cost so far; ``UNREACHED`` everywhere between searches
        self._best = [UNREACHED] * size
        #: ``|k - zero|`` at index ``k``, for ``zero`` the longest padded
        #: side: slices of it are the heuristic's gaps to a target coordinate
        self._zero = zero = max(stride, self.rows + 2) - 1
        self._ramp = [abs(k - zero) for k in range(2 * zero + 1)]
        self._pin_offsets = PinOffsets()
        ring_row, ring_column = b"\x01" * stride, b"\x01" * self.rows
        for base in range(0, size, plane):
            self._wall[base:base + stride] = ring_row
            self._wall[base + plane - stride:base + plane] = ring_row
            self._wall[base + stride:base + plane - stride:stride] = ring_column
            self._wall[base + 2 * stride - 1:base + plane - stride:stride] = ring_column
        #: per layer index, the moves out of a node on it, in search order:
        #: one track either way along the layer's direction (cost 1), then
        #: a via to each other layer at the same (x, y) (cost 2); entries
        #: are (id delta, dx, dy, cost)
        self._moves: List[Tuple[Tuple[int, int, int, int], ...]] = []
        for k, name in enumerate(self._layer_names):
            if self.layers[name].direction == "horizontal":
                along = ((-1, -1, 0, 1), (1, 1, 0, 1))
            else:
                along = ((-stride, 0, -1, 1), (stride, 0, 1, 1))
            self._moves.append(along + tuple(
                ((j - k) * plane, 0, 0, 2) for j in range(len(self._layer_names)) if j != k
            ))
        for keepout in floorplan.keepouts:
            for layer_name in keepout.layers:
                if layer_name in self.layers:
                    self._block_rect(layer_name, keepout.rect)

    # -- grid helpers -------------------------------------------------------

    def _id(self, node: Node) -> int:
        layer_name, ix, iy = node
        return self._layer_index[layer_name] * self._plane + (iy + 1) * self._stride + ix + 1

    def _node(self, node_id: int) -> Node:
        layer, xy = divmod(node_id, self._plane)
        y, x = divmod(xy, self._stride)
        return (self._layer_names[layer], x - 1, y - 1)

    def _claim(self, node_id: int, node: Node, owner: str) -> None:
        """Give ``node`` (the tuple form of ``node_id``) to ``owner``, a net or ``SHIELD``."""
        self.occupancy[node] = owner
        self._owner[node_id] = owner

    def _block_rect(self, layer_name: str, rect: Rect) -> None:
        die = self.floorplan.die
        x1 = max(0, (rect.x1 - die.x1) // self.tech.pitch)
        x2 = min(self.cols - 1, (rect.x2 - die.x1) // self.tech.pitch)
        y1 = max(0, (rect.y1 - die.y1) // self.tech.pitch)
        y2 = min(self.rows - 1, (rect.y2 - die.y1) // self.tech.pitch)
        row = b"\x01" * (x2 - x1 + 1)  # empty when the rect misses the die
        for iy in range(y1, y2 + 1):
            start = self._id((layer_name, x1, iy))
            self._wall[start:start + len(row)] = row

    def snap(self, point: Point) -> Tuple[int, int]:
        return self._snap(point.x, point.y)

    def _snap(self, x: int, y: int) -> Tuple[int, int]:
        die = self.floorplan.die
        ix = min(self.cols - 1, max(0, (x - die.x1) // self.tech.pitch))
        iy = min(self.rows - 1, max(0, (y - die.y1) // self.tech.pitch))
        return (ix, iy)

    def _clear(self, node_id: int, net: str, margin: int, reach: int) -> bool:
        """No foreign wire within clearance across ``node_id``'s layer.

        Clearance is symmetric: respect both this net's margin and the
        margin any already-routed neighbor demanded for itself.
        """
        layer, xy = divmod(node_id, self._plane)
        y, x = divmod(xy, self._stride)
        if self.layers[self._layer_names[layer]].direction == "horizontal":
            pos, limit, step = y, self.rows, self._stride
        else:
            pos, limit, step = x, self.cols, 1
        owners = self._owner
        # Probes past the ring would wrap into another row or layer, so
        # each side stops at the grid's edge.
        for d in range(1, reach + 1):
            for side in (-d, d):
                if not 1 <= pos + side <= limit:
                    continue
                owner = owners[node_id + side * step]
                if owner is None or owner == net:
                    continue
                if d <= max(margin, self._net_margin.get(owner, 0)):
                    return False
        return True

    # -- routing --------------------------------------------------------------

    def _terminal_point(self, design: PnRDesign, terminal: Terminal) -> Tuple[int, int]:
        """The grid point a terminal snaps to: its pin's, or its pad's."""
        kind, name, pin = terminal
        if kind == "inst":
            instance = design.instance(name)
            if instance.location is None:
                raise ValueError(f"instance {name!r} is not placed")
            dx, dy = self._pin_offsets.of(instance, pin)
            return self._snap(instance.location.x + dx, instance.location.y + dy)
        if name not in self.pads:
            raise KeyError(f"no pad position for {name!r}")
        return self.snap(self.pads[name])

    def _stack(self, point: Tuple[int, int]) -> List[int]:
        """The ids of a grid point's layer stack, bottom first."""
        base = (point[1] + 1) * self._stride + point[0] + 1
        return list(range(base, len(self._wall), self._plane))

    def reserve_terminals(self, design: PnRDesign) -> None:
        """Reserve every net's primary terminal node (the pin's own layer).

        Done before routing so no other net can route across a pin it does
        not own.  Upper-layer nodes above a pin stay free — crossing over a
        foreign pin on another layer is legal.
        """
        pin_layer = self._layer_names[0]
        owners = self._owner
        for net, terminals in design.nets.items():
            for terminal in terminals:
                point = self._terminal_point(design, terminal)
                node_id = self._stack(point)[0]
                owner = owners[node_id]
                if owner is None or owner == net:
                    self._claim(node_id, (pin_layer, *point), net)

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
        # Owners and margins change only when this call commits, so one
        # clearance verdict per id (0 unknown, 1 clear, 2 not) serves every
        # terminal's search.
        verdicts = bytearray(len(self._wall))
        plane = self._plane
        # The ids on this net's paths, in the order they were first reached.
        routed: Dict[int, None] = {}
        vias = 0
        # Connect each terminal to the growing tree.
        tree = set(self._stack(self._terminal_point(design, terminals[0])))
        for terminal in terminals[1:]:
            target = self._terminal_point(design, terminal)
            path = self._astar(tree.union(routed), target, net, margin, reach, verdicts)
            if path is None:
                return None
            layer = path[0] // plane
            for node_id in path:
                routed[node_id] = None
                if node_id // plane != layer:
                    layer = node_id // plane
                    vias += 1
            tree.update(self._stack(target))

        # Tuples are added in first-reached order, as a set of them built
        # path by path would be, so ``nodes`` iterates, and ``occupancy``
        # fills, in the same order.
        nodes: Set[Node] = set()
        ids: Dict[Node, int] = {}
        for node_id in routed:
            node = self._node(node_id)
            nodes.add(node)
            ids[node] = node_id
        for node in nodes:
            self._claim(ids[node], node, net)
        self._net_margin[net] = margin
        return RoutedNet(net, nodes=nodes, vias=vias, rule=rule)

    def _astar(
        self,
        sources: Set[int],
        target: Tuple[int, int],
        net: str,
        margin: int,
        reach: int,
        verdicts: bytearray,
    ) -> Optional[List[int]]:
        """Cheapest path from ``sources`` to any layer at grid point ``target``.

        ``sources`` are node ids; the path is a list of node ids, from a
        source to the target's node, or None when no path exists.

        The search order is: lowest ``f``, then lowest ``h`` (the Manhattan
        gap to ``target``), then push order, with sources pushed in
        ascending id.  An entry left behind by a later improvement of its
        node is skipped, so no node is expanded twice.

        The heuristic is consistent and moves are one track (cost 1, ``h``
        ±1) or a via (cost 2, ``h`` unchanged), so every push lands at the
        expanded node's ``f`` or at ``f + 2``.  At the same ``f`` there is
        at most one: the track move toward the target, one ``h`` below the
        node being expanded, which was the lowest entry; so it is always the
        next node to expand.  The search follows it at once and never
        queues it.  Every other push goes to a bucket keyed ``f * span + h``
        (``span`` bounds ``h``), a FIFO list that is complete before it is
        taken; a heap of bucket keys gives the next one.

        ``verdicts`` caches :meth:`_clear` answers by id for this net; the
        caller keeps it only while owners and margins stand still.
        """
        plane, stride = self._plane, self._stride
        # Padded coordinates of the target, and its offset within a plane.
        tx, ty = target[0] + 1, target[1] + 1
        target_xy = ty * stride + tx
        wall, owners, moves = self._wall, self._owner, self._moves
        # The heuristic's two terms, by padded coordinate.
        ramp, zero = self._ramp, self._zero
        x_gap = ramp[zero - tx:zero - tx + stride]
        y_gap = ramp[zero - ty:zero - ty + self.rows + 2]
        span = stride + self.rows + 2
        buckets: Dict[int, List[int]] = {}
        best = self._best
        parent: Dict[int, int] = {}
        try:
            for source_id in sorted(sources):
                # Sources are admitted on hard occupancy only: a pin that
                # sits inside another net's clearance zone must still be
                # escapable (typically via the other layer).
                owner = owners[source_id]
                if wall[source_id] or (owner is not None and owner != net):
                    continue
                best[source_id] = 0
                parent[source_id] = -1
                y, x = divmod(source_id % plane, stride)
                h = x_gap[x] + y_gap[y]
                buckets.setdefault(h * span + h, []).append(source_id)
            keys = list(buckets)
            heapq.heapify(keys)

            while keys:
                key = heapq.heappop(keys)
                f, queued_h = divmod(key, span)
                queued_cost = f - queued_h
                for node in buckets.pop(key):
                    if best[node] != queued_cost:
                        continue  # stale: the node was improved after this push
                    cost, h = queued_cost, queued_h
                    # Expand ``node``, then the same-``f`` child it pushed,
                    # if any, and so on down the chain.
                    while node >= 0:
                        layer, xy = divmod(node, plane)
                        if xy == target_xy:
                            path = []
                            while node >= 0:
                                path.append(node)
                                node = parent[node]
                            path.reverse()
                            return path
                        y, x = divmod(xy, stride)
                        ahead = -1
                        for delta, dx, dy, step in moves[layer]:
                            neighbor = node + delta
                            owner = owners[neighbor]
                            if owner is not None and owner != net:
                                continue
                            # Terminals are always enterable by their own
                            # net; walls and margin apply to the routing
                            # fabric in between.
                            if wall[neighbor]:
                                if neighbor % plane != target_xy:
                                    continue
                            elif reach:
                                verdict = verdicts[neighbor]
                                if not verdict:
                                    verdict = verdicts[neighbor] = (
                                        1 if self._clear(neighbor, net, margin, reach) else 2
                                    )
                                if verdict == 2 and neighbor % plane != target_xy:
                                    continue
                            new_cost = cost + step
                            if new_cost < best[neighbor]:
                                best[neighbor] = new_cost
                                parent[neighbor] = node
                                gap = x_gap[x + dx] + y_gap[y + dy]
                                if gap < h:
                                    ahead = neighbor
                                    continue
                                slot = (new_cost + gap) * span + gap
                                entries = buckets.get(slot)
                                if entries is None:
                                    buckets[slot] = [neighbor]
                                    heapq.heappush(keys, slot)
                                else:
                                    entries.append(neighbor)
                        node, cost, h = ahead, cost + 1, h - 1
            return None
        finally:
            # Hand the next search an all-unreached ``best``.
            for touched in parent:
                best[touched] = UNREACHED

    def add_shields(self, routed: RoutedNet) -> int:
        """Lay grounded shield tracks alongside a shielded net's wires."""
        added = 0
        for node in routed.nodes:
            node_id = self._id(node)
            step = self._stride if self.layers[node[0]].direction == "horizontal" else 1
            for offset in (-1, 1):
                # One track off the grid is the wall ring.
                shield_id = node_id + offset * step
                if self._wall[shield_id] or self._owner[shield_id] is not None:
                    continue
                self._claim(shield_id, self._node(shield_id), SHIELD)
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
                node_id = self._id(node)
                if not self._wall[node_id] and self._owner[node_id] in (None, strategy.net):
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
            self._claim(self._id(node), node, strategy.net)
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
            self.reserve_terminals(design)
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
