"""Connectivity extraction from schematic geometry.

Schematic editors define connectivity geometrically: wires that touch are
one electrical net, a pin is connected to the wire passing through its
location, labels name nets, and — depending on dialect — nets on different
pages join either implicitly by sharing a name (Viewdraw-like) or only
through explicit off-page connector instances (Composer-like).  Global
symbols (power/ground) join the global net of their name wherever placed.

This extractor produces a :class:`Netlist` — net name -> set of
(instance, pin) terminals — which is the canonical form that migration
verification (:mod:`cadinterop.schematic.verify`) compares between source
and translated designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.common.geometry import Point
from cadinterop.schematic.dialects import Dialect, get_dialect
from cadinterop.schematic.model import PinOffsets, Schematic, WireIndex


Terminal = Tuple[str, str]  # (instance name, pin name)


@dataclass
class Net:
    """One extracted electrical net."""

    name: str
    terminals: Set[Terminal] = field(default_factory=set)
    labels: Set[str] = field(default_factory=set)
    pages: Set[int] = field(default_factory=set)
    is_global: bool = False
    wire_length: int = 0

    @property
    def terminal_count(self) -> int:
        return len(self.terminals)


class Netlist:
    """Extracted nets keyed by name, plus extraction diagnostics."""

    def __init__(self, cell_name: str) -> None:
        self.cell_name = cell_name
        self.nets: Dict[str, Net] = {}
        self.log = IssueLog()

    def net(self, name: str) -> Net:
        return self.nets[name]

    def add_net(self, net: Net) -> Net:
        self.nets[net.name] = net
        return net

    def net_of_terminal(self, terminal: Terminal) -> Optional[Net]:
        for net in self.nets.values():
            if terminal in net.terminals:
                return net
        return None

    def terminal_map(self) -> Dict[Terminal, str]:
        mapping: Dict[Terminal, str] = {}
        for net in self.nets.values():
            for terminal in net.terminals:
                mapping[terminal] = net.name
        return mapping

    def signature(self) -> FrozenSet[Tuple[FrozenSet[Terminal], bool]]:
        """A name-free structural signature: the partition of terminals.

        Two netlists with identical signatures have identical connectivity
        even if every net was renamed — exactly what migration must
        preserve.  Single-terminal nets are included: a dangling pin that
        becomes connected (or vice versa) must change the signature.
        """
        return frozenset(
            (frozenset(net.terminals), net.is_global)
            for net in self.nets.values()
            if net.terminals
        )

    def __len__(self) -> int:
        return len(self.nets)


def _path_length(points: Sequence[Point]) -> int:
    """A Manhattan polyline's length: the sum of its steps."""
    total = 0
    ax, ay = points[0]
    for bx, by in points:
        total += abs(bx - ax) + abs(by - ay)
        ax, ay = bx, by
    return total


def extract(schematic: Schematic, dialect: Optional[Dialect] = None) -> Netlist:
    """Extract the netlist of one schematic cell.

    ``dialect`` defaults to the schematic's own dialect and controls the
    cross-page discipline and connector-symbol recognition.
    """
    active = dialect or get_dialect(schematic.dialect)
    netlist = Netlist(schematic.name)

    # Union-find over integer nodes: every page's wires first, numbered in
    # page order, then each distinct (page, pin point) in the order the
    # pins are met.  A union keeps the lower root, so a group's root is its
    # lowest node and no node's parent is above it.
    parent: List[int] = []

    def find(node: int) -> int:
        root = parent[node]
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        parent[node] = root
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb

    indexes = []
    wire_count = 0
    for page in schematic.pages:
        indexes.append((page, WireIndex(page.wires), wire_count))
        wire_count += len(page.wires)
    parent.extend(range(wire_count))
    for _page, index, base in indexes:
        # Merge wires that touch geometrically: a segment of one contains a
        # segment end of the other.
        for a, b in index.touching_pairs():
            union(base + a, base + b)

    # Attach instance pins to wires passing through their location; pins at
    # identical locations connect by abutment even with no wire.  Point
    # ``i`` is node ``wire_count + i``.  Connector pins are bound later
    # through their own point: an instance name may repeat on another page.
    points: Dict[Tuple[int, int, int], int] = {}
    point_pages: List[int] = []
    point_terminals: List[List[Terminal]] = []
    connector_pins: List[Tuple[str, str, str, str, int]] = []
    pins = PinOffsets()
    for page, index, base in indexes:
        page_number = page.number
        for instance in page.instances:
            name, transform = instance.name, instance.transform
            kind = instance.symbol.kind
            if kind != "component":
                signal = str(
                    instance.properties.get("signal")
                    or instance.properties.get("net")
                    or instance.symbol.name
                )
            ox, oy = transform.offset.x, transform.offset.y
            for pin_name, dx, dy in pins.of(instance.symbol, transform.orientation):
                x, y = ox + dx, oy + dy
                key = (page_number, x, y)
                point = points.get(key)
                if point is None:
                    # A new point joins the wires through it; a pin on a
                    # point already met joins them through that point.
                    point = points[key] = len(point_pages)
                    point_pages.append(page_number)
                    point_terminals.append([])
                    node = len(parent)
                    parent.append(node)
                    for number in index.wires_at(x, y):
                        union(node, base + number)
                point_terminals[point].append((name, pin_name))
                if kind != "component":
                    connector_pins.append((kind, signal, name, pin_name, point))

    # Point every node at its root in one pass from the lowest: a node's
    # parent is below it, so it already points at the root.
    node_count = len(parent)
    for node in range(node_count):
        parent[node] = parent[parent[node]]

    # Gather provisional nets in root order, each filled in node order: a
    # group is met first at its root.  Geometry joins nothing across pages,
    # so each net lies on one page.  ``slots`` maps a root to its net.
    slots = [0] * node_count
    net_pages: List[int] = []
    net_terminals: List[Set[Terminal]] = []
    net_labels: List[Set[str]] = []
    net_lengths: List[int] = []
    for page, _index, base in indexes:
        page_number = page.number
        for node, wire in enumerate(page.wires, base):
            root = parent[node]
            if root == node:
                slot = slots[node] = len(net_pages)
                net_pages.append(page_number)
                net_terminals.append(set())
                net_labels.append(set())
                net_lengths.append(0)
            else:
                slot = slots[root]
            net_lengths[slot] += _path_length(wire.points)
            if wire.label:
                net_labels[slot].add(wire.label)
    for node, (page_number, terminals) in enumerate(
        zip(point_pages, point_terminals), wire_count
    ):
        root = parent[node]
        if root == node:
            slots[node] = len(net_pages)
            net_pages.append(page_number)
            net_terminals.append(set(terminals))
            net_labels.append(set())
            net_lengths.append(0)
        else:
            net_terminals[slots[root]].update(terminals)
    # Provisional net ``i`` is slot ``kept[i]``; a lone unlabeled wire with
    # no segment is no net.
    kept = [
        slot for slot in range(len(net_pages))
        if net_terminals[slot] or net_labels[slot] or net_lengths[slot]
    ]
    provisional_of = {slot: idx for idx, slot in enumerate(kept)}

    # Handle connector instances: their single pin joins the net at its
    # location (already done geometrically); the *meaning* differs by kind.
    # A pin whose net holds no wire and no other terminal binds nothing.
    global_binding: Dict[int, str] = {}  # provisional index -> global net name
    offpage_binding: Dict[int, str] = {}
    hier_binding: Dict[int, str] = {}
    bindings = {
        "global": global_binding,
        "offpage_connector": offpage_binding,
        "hier_connector": hier_binding,
    }
    for kind, signal, name, pin_name, point in connector_pins:
        root = parent[wire_count + point]
        slot = slots[root]
        if root >= wire_count and net_terminals[slot] == {(name, pin_name)}:
            netlist.log.add(
                Severity.WARNING, Category.CONNECTIVITY, name,
                f"{kind} connector pin {pin_name!r} is not attached to anything",
            )
            continue
        binding = bindings.get(kind)
        if binding is not None:
            binding[provisional_of[slot]] = signal

    # Merge nets by binding name: globals always; off-page connectors in
    # explicit dialects; same-label nets across pages in implicit dialects.
    # The same union-find runs again, now over provisional net indexes.
    parent[:] = range(len(kept))

    def merge_by(binding: Dict[int, str]) -> None:
        by_name: Dict[str, int] = {}
        for idx, name in binding.items():
            if name in by_name:
                union(by_name[name], idx)
            else:
                by_name[name] = idx

    merge_by(global_binding)
    merge_by(offpage_binding)

    if active.implicit_cross_page_by_name:
        by_label: Dict[str, int] = {}
        for idx, slot in enumerate(kept):
            for label in net_labels[slot]:
                if label in by_label:
                    union(by_label[label], idx)
                else:
                    by_label[label] = idx

    # Merged nets come in the order of each group's lowest index, its root.
    groups: Dict[int, List[int]] = {}
    for idx in range(len(kept)):
        root = parent[idx] = parent[parent[idx]]
        if root == idx:
            groups[idx] = [idx]
        else:
            groups[root].append(idx)

    # Every bound name joins its provisional net's labels, and a global
    # binding makes its group global.
    global_roots = {parent[idx] for idx in global_binding}
    for binding in (global_binding, offpage_binding, hier_binding):
        for idx, signal in binding.items():
            net_labels[kept[idx]].add(signal)

    # Name nets: prefer a label bound to a port, then any label, else
    # synthesize.  Hierarchy connectors bind a net to a schematic port name.
    port_names = {port.name for port in schematic.ports}
    counter = 0
    used_names: Set[str] = set()
    for root, members in groups.items():
        # The net takes over its first member's sets; the others join them.
        first = kept[root]
        net = Net(
            "", net_terminals[first], net_labels[first], {net_pages[first]},
            root in global_roots, net_lengths[first],
        )
        for idx in members[1:]:
            slot = kept[idx]
            net.terminals |= net_terminals[slot]
            net.labels |= net_labels[slot]
            net.pages.add(net_pages[slot])
            net.wire_length += net_lengths[slot]
        labels = net.labels
        if not labels:
            counter += 1
            name = f"unnamed${counter}"
        else:
            port_labels = labels & port_names
            name = min(port_labels) if port_labels else min(labels)
        if name in used_names:
            netlist.log.add(
                Severity.ERROR, Category.CONNECTIVITY, name,
                "two disjoint nets carry the same name after extraction",
                remedy="expected a single net; check off-page connector usage",
            )
            suffix = 2
            while f"{name}${suffix}" in used_names:
                suffix += 1
            name = f"{name}${suffix}"
        used_names.add(name)
        net.name = name
        netlist.add_net(net)
        if len(labels) > 1 and not net.is_global:
            netlist.log.add(
                Severity.WARNING, Category.CONNECTIVITY, net.name,
                f"net carries multiple labels {sorted(labels)}; shorted nets?",
            )

    # Implicit cross-page connection without labels cannot be resolved; in
    # explicit dialects an unlabeled multi-page net is impossible by
    # construction, but a same-name pair NOT joined by an off-page connector
    # deserves a diagnostic because the implicit dialect would have joined it.
    if not active.implicit_cross_page_by_name:
        seen: Dict[str, int] = {}
        for net in netlist.nets.values():
            for label in net.labels:
                seen[label] = seen.get(label, 0) + 1
        # In label order: a net's labels are a set, whose order would make
        # the log depend on the interpreter's hash seed.
        for label, count in sorted(seen.items()):
            if count > 1:
                netlist.log.add(
                    Severity.ERROR, Category.CONNECTIVITY, label,
                    f"label appears on {count} disjoint nets; {active.name} does not "
                    "connect same-named nets implicitly",
                    remedy="insert off-page connectors to make the connection explicit",
                )

    return netlist
