"""The grid router, row placer and extractor against straightforward oracles.

``GridRouter`` searches integer node ids on a grid padded with a ring of
wall nodes, keeps each net's tree and paths as ids (``_astar`` takes id
sources and returns an id path), bounds its clearance probes by the widest
margin in play, caches one clearance verdict per node for each
``route_net`` call, and keeps its open set in FIFO buckets keyed ``(f,
h)``, following the one same-``f`` child of an expansion at once.
``RowPlacer`` finds free slots with one sweep per row over the blockers
sorted by ``x1`` and swaps on integer arrays, measuring only the new
wirelength of the nets a swap touches against a cached one per net, with
pin offsets taken once per (cell, pin, orientation).  ``extract`` indexes
occupancy by (layer, fixed coordinate) and counts couplings per
(aggressor, layer, distance).  This module keeps the code they replaced
as test-local oracles: the router on tuple nodes with its own tuple-keyed
grid state and terminal nodes, which always probes out to ``MAX_MARGIN``
tracks, asks every question afresh and keeps a heap keyed ``(f, h, push
counter)`` (sources pushed in the router's id order, stale entries
skipped); the placer's scan that tests every slot against every blocker,
the ``_local_hpwl`` that scans every net of the design per swap and the
``pin_position`` that transforms the pin box on every call; and
``oracle_extract``, which probes tuple keys node by node (in sorted order,
so its sums do not follow the hash seed).

On hypothesis-generated floorplans with routing keepouts, placement
keepouts and placed blocks (often touching slot edges exactly), global-net
strategies (rings on the edge tracks included), fixed and movable
instances in every orientation, pads inside the die and on its sides,
2-5-terminal nets, nets along the die's edges and width/spacing/shield
rules, both sides must produce the same placement, or the same "floorplan
has N slots" error, and the same routing result, down to the order of the
occupancy map; so must the fixed cases, the three ALU flows of the
``rtl-to-layout`` benchmark among them.  Slots must equal the scan's on
generated floorplans off the origin, and ``extract`` must find the
oracle's aggressors, with every value within 1e-12, on generated layouts
(shields and strategies included) and the three ALU flows.

The search order is a choice among equal-cost paths: a consistent
heuristic guarantees the cost, not the path (``test_equal_cost_detours``).
``PushOrderRouter`` keeps the order before the goal-directed one (a heap
keyed ``(f, push counter)``), and two gates hold the new order to it:
every search must find a path of push order's cost from the same grid
state (``PushOrderCostGate``), and over a fixed generated corpus (without
placement blockers, so it stays the corpus it was) the router may fail no
more nets, with total wirelength and vias within ``QUALITY_TOLERANCE``
(``TestRoutingQuality``).

Generated rules stay within the oracle's 4-track margin cap; clearance
beyond it is covered in ``test_floorplan_place_route.py``.
"""

from __future__ import annotations

import copy
import heapq
import random
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

import pytest
from hypothesis import HealthCheck, Phase, given, reject, seed, settings, strategies as st

from cadinterop import rtl2gds
from cadinterop.common.geometry import Orientation, Point, Rect, Transform
from cadinterop.hdl import parser, synth
from cadinterop.pnr.cells import CellAbstract, CellPin, PinShape
from cadinterop.pnr.design import PnRDesign, PnRInstance, inst_terminal, pad_terminal
from cadinterop.pnr.floorplan import Block, Floorplan, GlobalNetStrategy, Keepout, NetRule
from cadinterop.pnr.parasitics import MAX_COUPLING_TRACKS, NetParasitics, ParasiticReport, extract
from cadinterop.pnr.placement import PlacementResult, RowPlacer
from cadinterop.pnr.routing import SHIELD, UNREACHED, GridRouter, Node, RoutedNet, RoutingResult
from cadinterop.pnr.samples import (
    build_bus_scenario,
    build_cell_library,
    build_floorplan,
    generate_design,
)
from cadinterop.pnr.tech import Technology, generic_two_layer_tech
from perfbench.workloads import rtl_to_layout


# -- oracles: the router and placer steps as they were ------------------------


class OracleRouter(GridRouter):
    """The router with its pre-index search: fixed probe depth, no caches.

    It keeps its own tuple-keyed grid state (``_blocked``, ``occupancy``),
    every method that writes it and its own terminal nodes (from
    ``oracle_pin_position``), so only ``snap`` and the net ordering of
    ``route_design`` are shared with ``GridRouter``.
    """

    #: farthest clearance any rule can demand (bounds the probe loop)
    MAX_MARGIN = 4

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
        for keepout in floorplan.keepouts:
            for layer_name in keepout.layers:
                if layer_name in self.layers:
                    self._block_rect(layer_name, keepout.rect)

    def _block_rect(self, layer_name: str, rect: Rect) -> None:
        die = self.floorplan.die
        x1 = max(0, (rect.x1 - die.x1) // self.tech.pitch)
        x2 = min(self.cols - 1, (rect.x2 - die.x1) // self.tech.pitch)
        y1 = max(0, (rect.y1 - die.y1) // self.tech.pitch)
        y2 = min(self.rows - 1, (rect.y2 - die.y1) // self.tech.pitch)
        for ix in range(x1, x2 + 1):
            for iy in range(y1, y2 + 1):
                self._blocked.add((layer_name, ix, iy))

    def _terminal_nodes(self, design: PnRDesign, terminal) -> List[Node]:
        kind, name, pin = terminal
        if kind == "inst":
            position = oracle_pin_position(design.instance(name), pin)
        else:
            if name not in self.pads:
                raise KeyError(f"no pad position for {name!r}")
            position = self.pads[name]
        ix, iy = self.snap(position)
        return [(layer.name, ix, iy) for layer in self.layers.values()]

    def reserve_terminals(self, design: PnRDesign) -> None:
        for net, terminals in design.nets.items():
            for terminal in terminals:
                node = self._terminal_nodes(design, terminal)[0]
                if self.occupancy.get(node, net) == net:
                    self.occupancy[node] = net

    def add_shields(self, routed: RoutedNet) -> int:
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

    def realize_strategy(self, strategy: GlobalNetStrategy, inset_tracks: int = 1) -> RoutedNet:
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

    def _neighbors(self, node: Node) -> List[Tuple[Node, int]]:
        layer_name, ix, iy = node
        layer = self.layers[layer_name]
        result: List[Tuple[Node, int]] = []
        if layer.direction == "horizontal":
            steps = ((ix - 1, iy), (ix + 1, iy))
        else:
            steps = ((ix, iy - 1), (ix, iy + 1))
        for nx, ny in steps:
            if 0 <= nx < self.cols and 0 <= ny < self.rows:
                result.append(((layer_name, nx, ny), 1))
        # Via to the other layers at the same (x, y); cost 2.
        for other in self.layers.values():
            if other.name != layer_name:
                result.append(((other.name, ix, iy), 2))
        return result

    def _usable(self, node: Node, net: str, margin: int) -> bool:
        if node in self._blocked:
            return False
        owner = self.occupancy.get(node)
        if owner is not None and owner != net:
            return False
        layer_name, ix, iy = node
        layer = self.layers[layer_name]
        # Clearance is symmetric: respect both this net's margin and the
        # margin any already-routed neighbor demanded for itself.
        for d in range(1, self.MAX_MARGIN + 1):
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

        routed_nodes: Set[Node] = set()
        vias = 0
        # Connect each terminal to the growing tree.
        tree: Set[Node] = set(self._terminal_nodes(design, terminals[0]))
        for terminal in terminals[1:]:
            targets = set(self._terminal_nodes(design, terminal))
            path = self._astar(tree | routed_nodes, targets, net, margin)
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
        targets: Set[Node],
        net: str,
        margin: int,
    ) -> Optional[List[Node]]:
        target_xy = {(x, y) for _l, x, y in targets}

        def heuristic(node: Node) -> int:
            _l, x, y = node
            return min(abs(x - tx) + abs(y - ty) for tx, ty in target_xy)

        open_heap: List[Tuple[int, int, int, Node]] = []
        best: Dict[Node, int] = {}
        parent: Dict[Node, Optional[Node]] = {}
        counter = 0
        # Sources go in the router's id order: layer, then row, then column.
        layer_order = {name: k for k, name in enumerate(self.layers)}
        for source in sorted(sources, key=lambda n: (layer_order[n[0]], n[2], n[1])):
            # Sources are admitted on hard occupancy only: a pin that sits
            # inside another net's clearance zone must still be escapable
            # (typically via the other layer).
            if source in self._blocked:
                continue
            if self.occupancy.get(source, net) != net:
                continue
            best[source] = 0
            parent[source] = None
            h = heuristic(source)
            heapq.heappush(open_heap, (h, h, counter, source))
            counter += 1

        while open_heap:
            f, h, _c, node = heapq.heappop(open_heap)
            cost = best[node]
            if cost + h != f:
                continue  # a stale entry: the node was improved after this push
            if node in targets:
                path: List[Node] = []
                current: Optional[Node] = node
                while current is not None:
                    path.append(current)
                    current = parent[current]
                return list(reversed(path))
            for neighbor, step in self._neighbors(node):
                # Terminals are always enterable by their own net; margin
                # applies to the routing fabric in between.
                if neighbor not in targets and not self._usable(neighbor, net, margin):
                    continue
                if neighbor in targets and self.occupancy.get(neighbor, net) != net:
                    continue
                new_cost = cost + step
                if new_cost < best.get(neighbor, 1 << 30):
                    best[neighbor] = new_cost
                    parent[neighbor] = node
                    h = heuristic(neighbor)
                    heapq.heappush(open_heap, (new_cost + h, h, counter, neighbor))
                    counter += 1
        return None


class PushOrderRouter(GridRouter):
    """The router with the search order it had before the goal-directed one.

    Its open set is one FIFO list per ``f``, expanded in rising ``f`` and,
    within a bucket, in push order (a heap keyed ``(f, push counter)``);
    stale entries are expanded again.  Sources are pushed in ascending id,
    as the router pushes them: in set order, which follows the string-hash
    seed, 303 of 2,000 generated layouts differ between ``PYTHONHASHSEED``
    0 and 1, so a gate against it would pass or fail by seed.  It is the
    cost reference: the goal-directed order may pick another of several
    equal-cost paths, never a costlier one.
    """

    def _astar(
        self,
        sources: Set[int],
        target: Tuple[int, int],
        net: str,
        margin: int,
        reach: int,
        verdicts: bytearray,
    ) -> Optional[List[int]]:
        plane, stride = self._plane, self._stride
        # Padded coordinates of the target, and its offset within a plane.
        tx, ty = target[0] + 1, target[1] + 1
        target_xy = ty * stride + tx
        wall, owners, moves = self._wall, self._owner, self._moves
        # The heuristic's two terms, by padded coordinate.
        x_gap = [abs(x - tx) for x in range(stride)]
        y_gap = [abs(y - ty) for y in range(self.rows + 2)]
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
                buckets.setdefault(x_gap[x] + y_gap[y], []).append(source_id)

            while buckets:
                f = min(buckets)
                bucket = buckets[f]
                # Pushes at this ``f`` append to ``bucket`` while it is being
                # iterated, so they are expanded in this pass, in push order.
                # A node improved after its push stays behind in a higher
                # bucket, as a heap would keep its stale entry; expanding it
                # again lowers no cost.
                for node in bucket:
                    cost = best[node]
                    layer, xy = divmod(node, plane)
                    if xy == target_xy:
                        path: List[int] = []
                        while node >= 0:
                            path.append(node)
                            node = parent[node]
                        return list(reversed(path))
                    y, x = divmod(xy, stride)
                    for delta, dx, dy, step in moves[layer]:
                        neighbor = node + delta
                        owner = owners[neighbor]
                        if owner is not None and owner != net:
                            continue
                        # Terminals are always enterable by their own net;
                        # walls and margin apply to the routing fabric in
                        # between.
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
                            key = new_cost + x_gap[x + dx] + y_gap[y + dy]
                            entries = buckets.get(key)
                            if entries is None:
                                buckets[key] = [neighbor]
                            else:
                                entries.append(neighbor)
                del buckets[f]
            return None
        finally:
            # Hand the next search an all-unreached ``best``.
            for touched in parent:
                best[touched] = UNREACHED


def oracle_pin_position(instance: PnRInstance, pin_name: str) -> Point:
    """Center of the pin's bounding box in die coordinates."""
    if instance.location is None:
        raise ValueError(f"instance {instance.name!r} is not placed")
    box = instance.cell.pin(pin_name).bounding_box()
    transform = Transform(instance.location, instance.orientation)
    return transform.apply_rect(box).center


def oracle_hpwl(design: PnRDesign, pad_positions: Optional[Dict[str, Point]] = None) -> int:
    """Total half-perimeter wirelength over all nets."""
    total = 0
    pads = pad_positions or {}
    for terminals in design.nets.values():
        points: List[Point] = []
        for kind, name, pin in terminals:
            if kind == "inst":
                instance = design.instance(name)
                if instance.placed:
                    points.append(oracle_pin_position(instance, pin))
            elif name in pads:
                points.append(pads[name])
        if len(points) >= 2:
            box = Rect.bounding(points)
            total += box.width + box.height
    return total


class OraclePlacer(RowPlacer):
    """The placer whose swap pass re-scans every net of the design.

    Its slots come from a scan that tests every slot against every
    placement keepout and placed block.
    """

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

        # Greedy improvement: swap pairs if HPWL improves.
        improvements = 0
        for _ in range(swap_passes):
            improved = False
            for i in range(len(order)):
                for j in range(i + 1, min(i + 8, len(order))):
                    a, b = order[i], order[j]
                    before = self._local_hpwl(design, [a, b], pad_positions)
                    a.location, b.location = b.location, a.location
                    after = self._local_hpwl(design, [a, b], pad_positions)
                    if after < before:
                        improvements += 1
                        improved = True
                    else:
                        a.location, b.location = b.location, a.location
            if not improved:
                break

        rows_used = len({instance.location.y for instance in movable}) if movable else 0
        return PlacementResult(
            placed=len(movable),
            hpwl=oracle_hpwl(design, pad_positions),
            rows_used=rows_used,
            swap_improvements=improvements,
        )

    def _local_hpwl(
        self,
        design: PnRDesign,
        instances: Sequence[PnRInstance],
        pad_positions: Optional[Dict[str, Point]],
    ) -> int:
        """HPWL over only the nets touching ``instances`` (cheap delta)."""
        names = {instance.name for instance in instances}
        pads = pad_positions or {}
        total = 0
        seen: Set[str] = set()
        for net, terminals in design.nets.items():
            if net in seen:
                continue
            if not any(k == "inst" and i in names for k, i, _p in terminals):
                continue
            seen.add(net)
            points: List[Point] = []
            for kind, name, pin in terminals:
                if kind == "inst":
                    instance = design.instance(name)
                    if instance.placed:
                        points.append(oracle_pin_position(instance, pin))
                elif name in pads:
                    points.append(pads[name])
            if len(points) >= 2:
                box = Rect.bounding(points)
                total += box.width + box.height
        return total


def oracle_extract(
    tech: Technology, routing: RoutingResult, occupancy: Dict[Node, str]
) -> ParasiticReport:
    """Parasitics probed node by node on the tuple occupancy map.

    Nodes are walked in sorted order, so the float sums do not follow the
    hash seed.
    """
    report = ParasiticReport()
    pitch = tech.pitch
    for name, routed in routing.routed.items():
        parasitics = NetParasitics(name)
        for node in sorted(routed.nodes):
            layer_name, ix, iy = node
            layer = tech.layer(layer_name)
            parasitics.area_cap += layer.area_cap * pitch
            # Probe both perpendicular directions for the nearest neighbor.
            for sign in (-1, 1):
                for distance in range(1, MAX_COUPLING_TRACKS + 1):
                    if layer.direction == "horizontal":
                        probe = (layer_name, ix, iy + sign * distance)
                    else:
                        probe = (layer_name, ix + sign * distance, iy)
                    owner = occupancy.get(probe)
                    if owner is None:
                        continue
                    if owner == name:
                        break  # own wire: no coupling contribution this side
                    if owner == SHIELD:
                        break  # grounded shield terminates the field
                    parasitics.coupling[owner] = (
                        parasitics.coupling.get(owner, 0.0)
                        + layer.coupling_at(distance) * pitch
                    )
                    break  # nearest neighbor only
        report.nets[name] = parasitics
    return report


# -- comparison helpers -------------------------------------------------------


TECH = generic_two_layer_tech()


def routing_signature(router: GridRouter, result) -> tuple:
    """Everything a routing run produces, orders included."""
    return (
        [
            (name, net.nodes, net.vias, net.rule)
            for name, net in result.routed.items()
        ],
        result.failed,
        result.shield_nodes,
        list(router.occupancy.items()),
    )


def placement_signature(design: PnRDesign, result: PlacementResult) -> tuple:
    return (
        result,
        [(i.name, i.location, i.orientation) for i in design.instances.values()],
    )


def place_and_route(placer_cls, router_cls, case, **route_kwargs):
    """Place a copy of the case's design, realize its strategies, route.

    Returns the placed design, the placement result, the router, the
    realized strategies and the routing result.
    """
    floorplan, design, pads, strategies, seed = case
    design = copy.deepcopy(design)
    placed = placer_cls(TECH, floorplan, seed=seed).place(design, pads)
    router = router_cls(TECH, floorplan, pads)
    realized = [router.realize_strategy(strategy, inset) for strategy, inset in strategies]
    return design, placed, router, realized, router.route_design(design, **route_kwargs)


#: How ``place`` reports a floorplan with too few free slots.
NO_ROOM = r"floorplan has \d+ slots for \d+ cells"


def place_and_route_or_reject(router_cls, case, **route_kwargs):
    """``place_and_route`` with ``RowPlacer``; a case whose floorplan cannot
    seat its cells is rejected, as it leaves nothing to route."""
    try:
        return place_and_route(RowPlacer, router_cls, case, **route_kwargs)
    except ValueError as error:
        if re.fullmatch(NO_ROOM, str(error)):
            reject()
        raise


def flow_signature(placer_cls, router_cls, case, **route_kwargs):
    design, placed, router, realized, result = place_and_route(
        placer_cls, router_cls, case, **route_kwargs
    )
    return (
        placement_signature(design, placed),
        [(r.name, r.nodes) for r in realized],
        routing_signature(router, result),
    )


def assert_equivalent(case, **route_kwargs):
    try:
        want = flow_signature(OraclePlacer, OracleRouter, case, **route_kwargs)
    except ValueError as error:
        if not re.fullmatch(NO_ROOM, str(error)):
            raise
        with pytest.raises(ValueError) as raised:
            flow_signature(RowPlacer, GridRouter, case, **route_kwargs)
        assert str(raised.value) == str(error), "the placers count slots differently"
        return
    got = flow_signature(RowPlacer, GridRouter, case, **route_kwargs)
    assert got[0] == want[0], "placement differs"
    assert got[1] == want[1], "strategy geometry differs"
    assert got[2][0] == want[2][0], "routed nets differ"
    assert got[2][1] == want[2][1], "failed nets differ"
    assert got[2][2] == want[2][2], "shield counts differ"
    assert got[2][3] == want[2][3], "occupancy differs"


def assert_same_parasitics(got: ParasiticReport, want: ParasiticReport) -> None:
    """The same nets and aggressors, with values equal to within 1e-12.

    The sums differ in order only; ``extract`` lists aggressors by name.
    """
    assert list(got.nets) == list(want.nets)
    for name, net in want.nets.items():
        extracted = got.nets[name]
        assert extracted.area_cap == pytest.approx(net.area_cap, rel=1e-12), name
        assert set(extracted.coupling) == set(net.coupling), name
        assert list(extracted.coupling) == sorted(extracted.coupling), name
        for aggressor, value in net.coupling.items():
            assert extracted.coupling[aggressor] == pytest.approx(value, rel=1e-12), (
                name, aggressor,
            )


def extract_both_ways(router: GridRouter, result: RoutingResult) -> None:
    assert_same_parasitics(
        extract(TECH, result, router.occupancy),
        oracle_extract(TECH, result, router.occupancy),
    )


def path_cost(router: GridRouter, path: List[int]) -> int:
    """Tracks plus twice the vias: the cost A* minimizes, of a path of ids."""
    layers = [node // router._plane for node in path]
    return sum(1 if a == b else 2 for a, b in zip(layers, layers[1:]))


class PushOrderCostGate(GridRouter):
    """``GridRouter`` that repeats each search in push order and compares costs.

    Both searches start from the same grid state, so they must agree on
    whether a path exists and on its cost; the paths themselves may differ.
    """

    def _astar(self, sources, target, net, margin, reach, verdicts):
        path = super()._astar(sources, target, net, margin, reach, verdicts)
        reference = PushOrderRouter._astar(self, sources, target, net, margin, reach, verdicts)
        assert (path is None) == (reference is None), f"{net}: only one order finds a path"
        if path is not None:
            cost, reference_cost = path_cost(self, path), path_cost(self, reference)
            assert cost == reference_cost, f"{net}: cost {cost}, push order {reference_cost}"
        return path


def routing_totals(router_cls, case) -> Tuple[int, int, int]:
    """(failed nets, wirelength in tracks, vias) of routing the case."""
    *_, result = place_and_route(RowPlacer, router_cls, case)
    return (
        len(result.failed),
        result.total_wirelength,
        sum(net.vias for net in result.routed.values()),
    )


# -- generated cases ----------------------------------------------------------


@st.composite
def cells(draw, index: int) -> CellAbstract:
    """A cell 1-3 sites wide with 1-3 single- or two-shape pins."""
    width = 10 * draw(st.integers(1, 3))
    pins = []
    for p in range(draw(st.integers(1, 3))):
        shapes = []
        for _ in range(draw(st.integers(1, 2))):
            x1 = draw(st.integers(0, width - 1))
            y1 = draw(st.integers(0, 39))
            x2 = draw(st.integers(x1, min(width, x1 + 7)))
            y2 = draw(st.integers(y1, min(40, y1 + 9)))
            shapes.append(PinShape("M1", Rect(x1, y1, x2, y2)))
        pins.append(CellPin(f"P{p}", shapes))
    return CellAbstract(
        f"c{index}", width=width, height=40, pins=pins,
        legal_orientations=tuple(Orientation),
    )


def edge_biased(low: int, high: int):
    """A coordinate in [low, high], one draw in two on an end (a grid edge)."""
    return st.one_of(st.sampled_from([low, high]), st.integers(low, high))


SIDES = ("right", "top", "left", "bottom")


@st.composite
def pad_points(draw, die: Rect, sides: Sequence[str] = ("inside",) + SIDES) -> Point:
    """A pad position inside the die or on one of its sides."""
    x, y = draw(st.integers(die.x1, die.x2)), draw(st.integers(die.y1, die.y2))
    side = draw(st.sampled_from(sides))
    if side == "left":
        x = die.x1
    elif side == "right":
        x = die.x2
    elif side == "bottom":
        y = die.y1
    elif side == "top":
        y = die.y2
    return Point(x, y)


@st.composite
def net_rules(draw, net: str) -> NetRule:
    """A rule demanding 1-4 tracks of clearance: (width - 1) + (spacing - 1)."""
    margin = draw(st.integers(1, 4))
    width = draw(st.integers(1, min(3, margin + 1)))
    return NetRule(
        net, width_tracks=width, spacing_tracks=margin + 2 - width, shield=draw(st.booleans())
    )


def slot_aligned(low: int, high: int):
    """A coordinate in [low, high], one draw in two on a multiple of 10.

    Slots are a whole number of 10-unit sites wide and rows 40 high, so
    aligned blockers touch slot edges exactly.
    """
    first, last = -(-low // 10), high // 10
    if first > last:
        return st.integers(low, high)
    return st.one_of(st.integers(first, last).map(lambda k: 10 * k), st.integers(low, high))


@st.composite
def placement_blockers(draw, floorplan: Floorplan) -> None:
    """Add 0-3 placement keepouts and, one time in three, a placed block."""
    die = floorplan.die
    for _ in range(draw(st.integers(0, 3))):
        x1, y1 = draw(slot_aligned(die.x1, die.x2)), draw(slot_aligned(die.y1, die.y2))
        rect = Rect(x1, y1, x1 + draw(slot_aligned(0, 40)), y1 + draw(slot_aligned(0, 40)))
        floorplan.add_keepout(Keepout(rect))
    if draw(st.integers(0, 2)) == 0:
        location = Point(draw(slot_aligned(die.x1, die.x2)), draw(slot_aligned(die.y1, die.y2)))
        floorplan.add_block(Block(
            "blk", area=draw(st.integers(1, 1600)),
            aspect_ratio=draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])),
            location=location,
        ))


@st.composite
def cases(draw, blockers: bool = False):
    """(floorplan, design, pads, (strategy, inset) pairs, placement seed).

    With ``blockers``, the floorplan also takes ``placement_blockers``, and
    can then leave too few slots for the design's cells.  Without, the
    draws are the ones ``TestRoutingQuality``'s seeded corpus was
    measured on.
    """
    cols = draw(st.integers(16, 36))
    rows = draw(st.integers(8, 24))
    die = Rect(0, 0, cols * TECH.pitch, rows * TECH.pitch)
    floorplan = Floorplan("gen", die)
    for _ in range(draw(st.integers(0, 2))):
        x1 = draw(st.integers(0, die.x2 - 10))
        y1 = draw(st.integers(0, die.y2 - 10))
        rect = Rect(x1, y1, x1 + draw(st.integers(0, 30)), y1 + draw(st.integers(0, 30)))
        layers = draw(st.sampled_from([("M1",), ("M2",), ("M1", "M2")]))
        floorplan.add_keepout(Keepout(rect, layers=layers))
    if blockers:
        draw(placement_blockers(floorplan))

    library = [draw(cells(k)) for k in range(draw(st.integers(1, 3)))]
    slot = max(cell.width for cell in library)
    capacity = (die.width // slot) * (die.height // 40)
    design = PnRDesign("gen")
    for k in range(draw(st.integers(1, min(8, capacity)))):
        cell = draw(st.sampled_from(library))
        orientation = draw(st.sampled_from(cell.legal_orientations))
        design.add_instance(PnRInstance(f"u{k}", cell, orientation=orientation))
    if draw(st.booleans()):
        # A pre-placed macro: a fixed point on its nets for the placer,
        # often against the die's edges so its pins sit on the first and
        # last rows and columns.
        cell = draw(st.sampled_from(library))
        location = Point(
            draw(edge_biased(0, die.x2 - cell.width)), draw(edge_biased(0, die.y2 - 40))
        )
        design.add_instance(
            PnRInstance(
                "fixed", cell, location=location,
                orientation=draw(st.sampled_from(cell.legal_orientations)),
            )
        )

    pads = {
        f"pad{k}": draw(pad_points(die))
        for k in range(draw(st.integers(0, 4)))
    }
    terminals = [
        inst_terminal(instance.name, pin.name)
        for instance in design.instances.values()
        for pin in instance.cell.pins
    ] + [pad_terminal(name) for name in pads]
    for n in range(draw(st.integers(1, 6))):
        count = min(len(terminals), draw(st.integers(2, 5)))
        chosen = draw(st.lists(st.sampled_from(terminals), min_size=count, max_size=count))
        design.add_net(f"n{n}", chosen)
        if draw(st.integers(0, 2)) == 0:
            floorplan.add_net_rule(draw(net_rules(f"n{n}")))
    # A net between two pads on one side of the die runs on its first or
    # last row or column, where clearance probes meet the grid's edge (and,
    # past it, would wrap to the opposite side).  Each side gets one in
    # three cases in four; nets route in side order, so a wire on the far
    # side is often down before its mirror image.
    for e, side in enumerate(SIDES):
        if draw(st.integers(0, 3)) == 0:
            continue
        ends = [f"edge{e}a", f"edge{e}b"]
        for name in ends:
            pads[name] = draw(pad_points(die, (side,)))
        design.add_net(f"e{e}", [pad_terminal(name) for name in ends])
        floorplan.add_net_rule(draw(net_rules(f"e{e}")))

    strategies = []
    if draw(st.booleans()):
        # A ring at inset 0 runs on the die's edge tracks.
        strategies.append((
            GlobalNetStrategy(
                "PWR", "power",
                draw(st.sampled_from(GlobalNetStrategy.STYLES)),
                layer=draw(st.sampled_from(["M1", "M2"])),
                width=draw(st.integers(1, 2)),
                shielded=draw(st.booleans()),
            ),
            draw(st.integers(0, 2)),
        ))
    return floorplan, design, pads, strategies, draw(st.integers(0, 1000))


#: 120 examples per test, or the loaded profile's count where that is larger
#: (``--hypothesis-profile=routing-stress``, see ``conftest.py``).
GENERATED = settings(
    max_examples=max(120, settings.default.max_examples),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestGeneratedEquivalence:
    @GENERATED
    @given(case=cases(blockers=True), features=st.sampled_from(
        [None, set(), {"width"}, {"spacing"}, {"width", "spacing"}]
    ))
    def test_place_and_route_match_oracles(self, case, features):
        assert_equivalent(case, honored_features=features)

    @GENERATED
    @given(case=cases(blockers=True))
    def test_rules_ignored_match_oracles(self, case):
        assert_equivalent(case, honor_rules=False)

    @GENERATED
    @given(case=cases(blockers=True), features=st.sampled_from([None, set()]))
    def test_every_search_costs_what_push_order_costs(self, case, features):
        place_and_route_or_reject(PushOrderCostGate, case, honored_features=features)


@st.composite
def floorplans(draw) -> Floorplan:
    """A die of 1-6 rows off the origin, with routing and placement blockers."""
    x0, y0 = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    die = Rect(x0, y0, x0 + draw(st.integers(0, 300)), y0 + draw(st.integers(0, 240)))
    floorplan = Floorplan("slots", die)
    for _ in range(draw(st.integers(0, 2))):
        # Routing keepouts take no slots.
        x1, y1 = draw(st.integers(x0, die.x2)), draw(st.integers(y0, die.y2))
        floorplan.add_keepout(Keepout(Rect(x1, y1, x1 + 30, y1 + 30), layers=("M1",)))
    draw(placement_blockers(floorplan))
    return floorplan


class TestGeneratedParasitics:
    @GENERATED
    @given(
        case=cases(blockers=True), features=st.sampled_from([None, set(), {"width", "spacing"}])
    )
    def test_extract_matches_oracle(self, case, features):
        *_, router, _realized, result = place_and_route_or_reject(
            GridRouter, case, honored_features=features
        )
        extract_both_ways(router, result)


class TestGeneratedPlacement:
    @GENERATED
    @given(floorplan=floorplans(), widths=st.lists(st.integers(1, 45), max_size=4))
    def test_slots_match_the_scan(self, floorplan, widths):
        got = RowPlacer(TECH, floorplan)._build_slots(widths)
        assert got == OraclePlacer(TECH, floorplan)._build_slots(widths)


#: Size of the fixed corpus the quality report routes both ways.
QUALITY_CASES = 500
#: The corpus's seed.  It is the one ``derandomize=True`` derived from the
#: source of ``route_both_ways`` when the corpus was first drawn; pinned, so
#: that editing the test does not swap the corpus.  Over it both orders fail
#: 1,150 nets and, where they fail equally, lay 18,424 tracks and 1,404 vias.
QUALITY_SEED = int(
    "17733079753358387838313633900690250361848162951242274871529651991715930801113"
    "556717727954582874367033731727439990008"
)
#: How far total wirelength and total vias may stray from push order's.
QUALITY_TOLERANCE = 0.01


class TestRoutingQuality:
    def test_goal_directed_order_routes_as_well_as_push_order(self):
        """Over a fixed generated corpus: no more failed nets, the same wire.

        Totals are compared over the cases where both orders fail the same
        number of nets; the per-case counts are printed (run with ``-s``).
        """
        rows = []

        @seed(QUALITY_SEED)
        @settings(
            max_examples=QUALITY_CASES, database=None,
            phases=[Phase.generate], deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(case=cases())
        def route_both_ways(case):
            rows.append((routing_totals(PushOrderRouter, case), routing_totals(GridRouter, case)))

        route_both_ways()
        assert len(rows) >= QUALITY_CASES
        failed = [sum(side[0] for side in sides) for sides in zip(*rows)]
        report = [
            f"{len(rows)} cases, failed nets {failed[0]} -> {failed[1]}:"
            f" fewer in {sum(new[0] < old[0] for old, new in rows)},"
            f" more in {sum(new[0] > old[0] for old, new in rows)}"
        ]
        equal = [(old, new) for old, new in rows if new[0] == old[0]]
        totals = {}
        for index, name in ((1, "wirelength"), (2, "vias")):
            old_total, new_total = totals[name] = [
                sum(side[index] for side in sides) for sides in zip(*equal)
            ]
            report.append(
                f"{name} over {len(equal)} equal-failure cases {old_total} -> {new_total}"
                f" ({new_total / old_total - 1:+.2%}):"
                f" lower in {sum(new[index] < old[index] for old, new in equal)},"
                f" higher in {sum(new[index] > old[index] for old, new in equal)}"
            )
        print("\nrouting quality, push order -> goal-directed: " + "; ".join(report))
        assert failed[1] <= failed[0], report[0]
        for old_total, new_total in totals.values():
            assert abs(new_total - old_total) <= QUALITY_TOLERANCE * old_total, report


# -- fixed cases --------------------------------------------------------------


def sample_case(cells_count: int, seed: int):
    floorplan = build_floorplan()
    design, pads = generate_design(build_cell_library(), cells=cells_count)
    return floorplan, design, pads, [(s, 1) for s in floorplan.strategies.values()], seed


def alu_case(slices: int, seed: int):
    """The ``rtl-to-layout`` benchmark's ALU flow, lowered onto the sample cells."""
    source, inputs, outputs = rtl_to_layout.alu_source(slices)
    rtl = parser.parse_module(source)
    hardware = rtl2gds.strip_testbench(synth.synthesize(rtl).netlist)
    conversion = rtl2gds.gate_netlist_to_pnr(hardware, build_cell_library())
    flow = rtl_to_layout.Flow(slices, source, inputs, outputs, seed, [])
    floorplan, pads = rtl_to_layout.floorplan(rtl.name, conversion.cells_emitted, flow)
    return floorplan, conversion.design, pads, [], seed


class TestFixedEquivalence:
    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_sample_floorplan(self, seed):
        assert_equivalent(sample_case(12, seed))

    @pytest.mark.parametrize(
        "slices,seed", rtl_to_layout.FLOWS,
        ids=[f"alu{slices}_p{seed}" for slices, seed in rtl_to_layout.FLOWS],
    )
    def test_alu_flow(self, slices, seed):
        """The oracle's layout, push order's cost for every search, and the
        oracle's parasitics."""
        case = alu_case(slices, seed)
        assert_equivalent(case)
        *_, router, _realized, result = place_and_route(RowPlacer, PushOrderCostGate, case)
        extract_both_ways(router, result)

    def test_equal_cost_detours(self):
        """n0 has two detours of 19 nodes and 4 vias; the search order picks one.

        Taking equal-``f`` entries nearest the target first jogs on M2 at
        column 1, as the oracle does; push order jogs at column 2.  Both
        cost the same: 14 tracks and 4 vias.
        """
        floorplan = Floorplan("detours", Rect(0, 0, 80, 45))
        floorplan.add_keepout(Keepout(Rect(0, 0, 1, 2), layers=("M1",)))
        floorplan.add_keepout(Keepout(Rect(15, 20, 15, 30), layers=("M1",)))
        pads = {
            "pad0": Point(0, 0), "pad1": Point(2, 34), "edge1a": Point(1, 45),
            "edge1b": Point(0, 45), "edge3a": Point(0, 0), "edge3b": Point(30, 0),
        }
        design = PnRDesign("detours")
        for net, ends, width, spacing in (
            ("n0", ("pad1", "pad0"), 2, 1),
            ("e1", ("edge1a", "edge1b"), 1, 3),
            ("e3", ("edge3a", "edge3b"), 3, 1),
        ):
            design.add_net(net, [pad_terminal(end) for end in ends])
            floorplan.add_net_rule(NetRule(net, width_tracks=width, spacing_tracks=spacing))
        case = (floorplan, design, pads, [], 0)
        assert_equivalent(case)

        shared = (
            {("M1", x, 0) for x in range(4)} | {("M2", 3, y) for y in range(8)}
            | {("M1", 0, 6), ("M1", 1, 6), ("M1", 2, 7), ("M1", 3, 7)}
        )
        jogs = {
            GridRouter: {("M1", 1, 7), ("M2", 1, 6), ("M2", 1, 7)},
            PushOrderRouter: {("M1", 2, 6), ("M2", 2, 6), ("M2", 2, 7)},
        }
        costs = set()
        for router_cls, jog in jogs.items():
            *_, result = place_and_route(RowPlacer, router_cls, case)
            n0 = result.routed["n0"]
            assert n0.nodes == shared | jog, router_cls.__name__
            tracks = len(n0.nodes) - 1 - n0.vias
            costs.add(tracks + 2 * n0.vias)
        assert costs == {14 + 2 * 4}

    @pytest.mark.parametrize("width,spacing", [(1, 1), (2, 2), (3, 3), (2, 4)])
    def test_bus_scenario(self, width, spacing):
        floorplan, design, pads = build_bus_scenario()
        floorplan.net_rules["crit"] = NetRule(
            "crit", width_tracks=width, spacing_tracks=spacing, shield=True
        )
        assert_equivalent((floorplan, design, pads, [], 1))

    def test_pin_positions_in_every_orientation(self):
        rng = random.Random(5)
        for cell in build_cell_library().cells():
            for orientation in Orientation:
                for _ in range(4):
                    location = Point(rng.randrange(-50, 500), rng.randrange(-50, 500))
                    instance = PnRInstance("u", cell, location, orientation)
                    for pin in cell.pins:
                        assert instance.pin_position(pin.name) == oracle_pin_position(
                            instance, pin.name
                        ), (cell.name, pin.name, orientation)
