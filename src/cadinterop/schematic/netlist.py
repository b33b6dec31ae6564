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
from cadinterop.schematic.model import PinOffsets, Schematic, Wire, WireIndex


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
    for a, b in zip(points, points[1:]):
        total += abs(b.x - a.x) + abs(b.y - a.y)
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
    # pins are met.  Nets come out in the order of their lowest node.
    parent: List[int] = []
    wires: List[Tuple[int, Wire]] = []

    def find(node: int) -> int:
        root = parent[node]
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        parent[node] = root
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    indexes = []
    for page in schematic.pages:
        index = WireIndex(page.wires)
        base = len(wires)
        indexes.append((page, index, base))
        wires.extend((page.number, wire) for wire in page.wires)
    wire_count = len(wires)
    parent.extend(range(wire_count))
    for _page, index, base in indexes:
        # Merge wires that touch geometrically: a segment of one contains a
        # segment end of the other.
        for a, b in index.touching_pairs():
            union(base + a, base + b)

    # Attach instance pins to wires passing through their location; pins at
    # identical locations connect by abutment even with no wire.  Point
    # ``i`` is node ``wire_count + i``.
    points: Dict[Tuple[int, int, int], int] = {}
    point_pages: List[int] = []
    point_terminals: List[List[Terminal]] = []
    pins = PinOffsets()
    for page, index, base in indexes:
        page_number = page.number
        for instance in page.instances:
            name, transform = instance.name, instance.transform
            ox, oy = transform.offset.x, transform.offset.y
            for pin_name, dx, dy in pins.of(instance.symbol, transform.orientation):
                x, y = ox + dx, oy + dy
                key = (page_number, x, y)
                point = points.get(key)
                if point is None:
                    point = points[key] = len(point_pages)
                    point_pages.append(page_number)
                    point_terminals.append([])
                    parent.append(len(parent))
                point_terminals[point].append((name, pin_name))
                for number in index.wires_at(x, y):
                    union(wire_count + point, base + number)

    # Build provisional nets from connected groups, each filled in node
    # order.
    by_root: Dict[int, Net] = {}

    def net_of(node: int) -> Net:
        root = find(node)
        net = by_root.get(root)
        if net is None:
            net = by_root[root] = Net(name="")
        return net

    for node, (page_number, wire) in enumerate(wires):
        net = net_of(node)
        net.pages.add(page_number)
        net.wire_length += _path_length(wire.points)
        if wire.label:
            net.labels.add(wire.label)
    for point, (page_number, terminals) in enumerate(zip(point_pages, point_terminals)):
        net = net_of(wire_count + point)
        net.terminals.update(terminals)
        net.pages.add(page_number)
    provisional = [
        net for net in by_root.values() if net.terminals or net.labels or net.wire_length
    ]

    # Handle connector instances: their single pin joins the net at its
    # location (already done geometrically); the *meaning* differs by kind.
    global_binding: Dict[int, str] = {}  # provisional index -> global net name
    offpage_binding: Dict[int, str] = {}
    hier_binding: Dict[int, str] = {}

    # A terminal's first provisional net (an instance name may repeat on
    # another page, so later nets do not overwrite earlier ones).
    provisional_index: Dict[Terminal, int] = {}
    for idx, net in enumerate(provisional):
        for terminal in net.terminals:
            provisional_index.setdefault(terminal, idx)

    for page in schematic.pages:
        for instance in page.instances:
            kind = instance.symbol.kind
            if kind == "component":
                continue
            signal = str(
                instance.properties.get("signal")
                or instance.properties.get("net")
                or instance.symbol.name
            )
            for pin_name in instance.symbol.pin_names():
                idx = provisional_index.get((instance.name, pin_name))
                if idx is None:
                    netlist.log.add(
                        Severity.WARNING, Category.CONNECTIVITY, instance.name,
                        f"{kind} connector pin {pin_name!r} is not attached to anything",
                    )
                    continue
                if kind == "global":
                    global_binding[idx] = signal
                elif kind == "offpage_connector":
                    offpage_binding[idx] = signal
                elif kind == "hier_connector":
                    hier_binding[idx] = signal

    # Merge nets by binding name: globals always; off-page connectors in
    # explicit dialects; same-label nets across pages in implicit dialects.
    # The same union-find runs again, now over provisional net indexes.
    parent[:] = range(len(provisional))

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
        for idx, net in enumerate(provisional):
            for label in net.labels:
                if label in by_label:
                    union(by_label[label], idx)
                else:
                    by_label[label] = idx

    # Hierarchy connectors bind a net to a schematic port name.
    port_names = {port.name for port in schematic.ports}

    # Merged nets are created in the order of each group's lowest index,
    # whichever root the union-find picked, so names do not depend on it.
    merged: Dict[int, Net] = {}
    for idx, net in enumerate(provisional):
        root = find(idx)
        if root not in merged:
            merged[root] = Net(name="")
        target = merged[root]
        target.terminals |= net.terminals
        target.labels |= net.labels
        target.pages |= net.pages
        target.wire_length += net.wire_length
        if idx in global_binding:
            target.is_global = True
            target.labels.add(global_binding[idx])
        if idx in offpage_binding:
            target.labels.add(offpage_binding[idx])
        if idx in hier_binding:
            target.labels.add(hier_binding[idx])

    # Name nets: prefer a label bound to a port, then any label, else synthesize.
    counter = 0
    used_names: Set[str] = set()
    for net in merged.values():
        port_labels = sorted(net.labels & port_names)
        other_labels = sorted(net.labels - port_names)
        if port_labels:
            name = port_labels[0]
        elif other_labels:
            name = other_labels[0]
        else:
            counter += 1
            name = f"unnamed${counter}"
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
        if len(net.labels) > 1 and not net.is_global:
            netlist.log.add(
                Severity.WARNING, Category.CONNECTIVITY, net.name,
                f"net carries multiple labels {sorted(net.labels)}; shorted nets?",
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
