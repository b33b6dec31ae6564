"""The per-page wire index against brute-force geometry oracles.

:class:`~cadinterop.schematic.model.WireIndex` replaced three pairwise
scans: wire-against-wire touch tests and pin attachment in netlist
extraction, the wire selection in ``replace_component``, and the
wire-end search in ``find_floating_ends``; the sheet-edge stub check of
connector placement followed.  This module keeps those scans, as they
were before the index, as test-local oracles and checks on
hypothesis-generated multi-page Manhattan schematics that the indexed code
gives exactly the same answers: every net field in the same order, the
same diagnostics in the same order, the same rip-up statistics, wire
points and warnings, the same floating ends and the same stub verdicts.
Rip-up may carry one index through a page's replacements; after every
replacement that index must answer as one built afresh would.

The generator works on a small lattice so that T-junctions, collinear
overlaps, crossings that do not touch, pins mid-segment, repeated points
and wires with no segment at all come up often.  Labels repeat across
pages, instance names repeat across pages, and global, off-page and
hierarchy connectors bind nets by signal name, under both dialects.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.common.geometry import Orientation, Point, Rect, Segment, Transform
from cadinterop.schematic.connectors import (
    FloatingEnd,
    _PageSites,
    _stub_is_clear,
    find_floating_ends,
)
from cadinterop.schematic.dialects import COMPOSER_LIKE, VIEWDRAW_LIKE, Dialect, get_dialect
from cadinterop.schematic.model import (
    Instance,
    Page,
    PinDirection,
    PinOffsets,
    Port,
    Schematic,
    Symbol,
    SymbolPin,
    Wire,
    WireIndex,
)
from cadinterop.schematic.netlist import Net, Netlist, Terminal, extract
from cadinterop.schematic.ripup import (
    ReplacementStats,
    RipupError,
    _minimal_reroute,
    _naive_reroute,
    replace_component,
)
from cadinterop.schematic.migrate import Migrator
from cadinterop.schematic.samples import (
    build_sample_plan,
    build_vl_libraries,
    generate_chain_schematic,
)
from cadinterop.schematic.symbolmap import SymbolKey, SymbolMapping


# -- oracles: the pairwise scans the index replaced ---------------------------


class _UnionFind:
    """Plain union-find over arbitrary hashable keys (the oracle's own)."""

    def __init__(self) -> None:
        self._parent: Dict[object, object] = {}

    def add(self, key: object) -> None:
        self._parent.setdefault(key, key)

    def find(self, key: object) -> object:
        self.add(key)
        root = key
        while self._parent[root] is not root:
            root = self._parent[root]
        while self._parent[key] is not root:
            self._parent[key], key = root, self._parent[key]
        return root

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra is not rb:
            self._parent[rb] = ra

    def groups(self) -> Dict[object, List[object]]:
        result: Dict[object, List[object]] = {}
        for key in self._parent:
            result.setdefault(self.find(key), []).append(key)
        return result


def _touches_point(wire: Wire, point: Point) -> bool:
    return any(seg.contains_point(point) for seg in wire.segments())


def _wires_touch(a: Wire, b: Wire) -> bool:
    for seg_a in a.segments():
        for seg_b in b.segments():
            if seg_a.touches(seg_b):
                return True
    return False


def pairwise_extract(schematic: Schematic, dialect: Optional[Dialect] = None) -> Netlist:
    """Oracle: the extractor as it was before the wire index.

    ``dialect`` defaults to the schematic's own dialect and controls the
    cross-page discipline and connector-symbol recognition.
    """
    active = dialect or get_dialect(schematic.dialect)
    netlist = Netlist(schematic.name)
    uf = _UnionFind()

    # node keys: ("wire", page#, index) and ("pt", page#, x, y)
    wire_nodes: Dict[Tuple[int, int], Wire] = {}

    for page in schematic.pages:
        for index, wire in enumerate(page.wires):
            key = ("wire", page.number, index)
            uf.add(key)
            wire_nodes[(page.number, index)] = wire
        # Merge wires that touch geometrically.
        for i in range(len(page.wires)):
            for j in range(i + 1, len(page.wires)):
                if _wires_touch(page.wires[i], page.wires[j]):
                    uf.union(("wire", page.number, i), ("wire", page.number, j))

    # Attach instance pins to wires passing through their location; pins at
    # identical locations connect by abutment even with no wire.
    pin_terminals: Dict[Tuple[int, Point], List[Tuple[Terminal, Instance]]] = {}
    for page in schematic.pages:
        for instance in page.instances:
            for pin_name, position in instance.pin_positions().items():
                terminal = (instance.name, pin_name)
                point_key = ("pt", page.number, position.x, position.y)
                uf.add(point_key)
                pin_terminals.setdefault((page.number, position), []).append((terminal, instance))
                for index, wire in enumerate(page.wires):
                    if _touches_point(wire, position):
                        uf.union(point_key, ("wire", page.number, index))

    groups = uf.groups()

    # Build provisional nets from connected groups.
    provisional: List[Net] = []
    provisional_of_root: Dict[object, int] = {}
    wired_roots: Set[object] = set()
    for root, members in groups.items():
        net = Net(name="")
        for member in members:
            kind = member[0]
            if kind == "wire":
                _, page_number, index = member
                wire = wire_nodes[(page_number, index)]
                net.pages.add(page_number)
                net.wire_length += wire.length()
                wired_roots.add(root)
                if wire.label:
                    net.labels.add(wire.label)
            else:
                _, page_number, x, y = member
                for terminal, _instance in pin_terminals.get((page_number, Point(x, y)), []):
                    net.terminals.add(terminal)
                net.pages.add(page_number)
        if net.terminals or net.labels or net.wire_length:
            provisional_of_root[root] = len(provisional)
            provisional.append(net)

    # Handle connector instances: their single pin joins the net at its
    # location (already done geometrically); the *meaning* differs by kind.
    global_binding: Dict[int, str] = {}  # provisional index -> global net name
    offpage_binding: Dict[int, str] = {}
    hier_binding: Dict[int, str] = {}

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
            for pin_name, position in instance.pin_positions().items():
                # The pin's own point: its instance name may repeat on
                # another page.
                root = uf.find(("pt", page.number, position.x, position.y))
                idx = provisional_of_root[root]
                if root not in wired_roots and provisional[idx].terminals == {
                    (instance.name, pin_name)
                }:
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
    merge_uf = _UnionFind()
    for idx in range(len(provisional)):
        merge_uf.add(idx)

    def merge_by(binding: Dict[int, str]) -> None:
        by_name: Dict[str, int] = {}
        for idx, name in binding.items():
            if name in by_name:
                merge_uf.union(by_name[name], idx)
            else:
                by_name[name] = idx

    merge_by(global_binding)
    merge_by(offpage_binding)

    if active.implicit_cross_page_by_name:
        by_label: Dict[str, int] = {}
        for idx, net in enumerate(provisional):
            for label in net.labels:
                if label in by_label:
                    merge_uf.union(by_label[label], idx)
                else:
                    by_label[label] = idx

    # Hierarchy connectors bind a net to a schematic port name.
    port_names = {port.name for port in schematic.ports}

    merged: Dict[object, Net] = {}
    for idx, net in enumerate(provisional):
        root = merge_uf.find(idx)
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
        for label, count in sorted(seen.items()):
            if count > 1:
                netlist.log.add(
                    Severity.ERROR, Category.CONNECTIVITY, label,
                    f"label appears on {count} disjoint nets; {active.name} does not "
                    "connect same-named nets implicitly",
                    remedy="insert off-page connectors to make the connection explicit",
                )

    return netlist


def scan_replace_component(
    page: Page,
    instance_name: str,
    mapping: SymbolMapping,
    target_symbol: Symbol,
    log: Optional[IssueLog] = None,
    strategy: str = "minimal",
) -> ReplacementStats:
    """Oracle: ``replace_component`` visiting every wire, testing every pin."""
    log = log if log is not None else IssueLog()
    old_instance = page.instance(instance_name)
    stats = ReplacementStats(instance=instance_name)
    correction = Transform(mapping.origin_offset, mapping.rotation)
    new_instance = Instance(
        name=old_instance.name,
        symbol=target_symbol,
        transform=correction.compose(old_instance.transform),
        properties=old_instance.properties.copy(),
    )
    old_positions = old_instance.pin_positions()
    new_positions = new_instance.pin_positions()
    pin_moves: Dict[Point, Point] = {}
    for old_pin, old_pos in old_positions.items():
        new_pos = new_positions[mapping.map_pin(old_pin)]
        pin_moves[old_pos] = new_pos
        if old_pos == new_pos:
            stats.unmoved_pins += 1
        else:
            stats.moved_pins += 1
    page.remove_instance(instance_name)
    page.add_instance(new_instance)

    for wire in list(page.wires):
        attached_ends = [
            (end_index, point)
            for end_index, point in ((0, wire.points[0]), (-1, wire.points[-1]))
            if point in pin_moves
        ]
        mid_attach = any(
            _touches_point(wire, old_pos) and old_pos not in wire.endpoints
            for old_pos in pin_moves
        )
        if mid_attach:
            log.add(
                Severity.WARNING, Category.CONNECTIVITY, instance_name,
                f"wire taps pin mid-segment; rerouting endpoint-attached wires only",
                remedy="verification will flag any broken connection",
            )
        if not attached_ends:
            continue
        if strategy == "naive":
            _naive_reroute(wire, attached_ends, pin_moves, stats)
        else:
            _minimal_reroute(wire, attached_ends, pin_moves, stats)
    return stats


def scan_floating_ends(page: Page) -> List[FloatingEnd]:
    """Oracle: ``find_floating_ends`` testing each end against every wire."""
    pin_points: Set[Point] = set()
    for instance in page.instances:
        pin_points.update(instance.pin_positions().values())
    floating: List[FloatingEnd] = []
    for index, wire in enumerate(page.wires):
        for end_index, point in ((0, wire.points[0]), (-1, wire.points[-1])):
            if point in pin_points:
                continue
            if not any(
                _touches_point(other, point)
                for other_index, other in enumerate(page.wires)
                if other_index != index
            ):
                floating.append(FloatingEnd(page.number, index, end_index, point))
    return floating


def scan_stub_is_clear(page: Page, stub: Segment, ignore_wire: int) -> bool:
    """Oracle: ``_stub_is_clear`` testing every segment and every pin."""
    for index, wire in enumerate(page.wires):
        if index == ignore_wire:
            continue
        for segment in wire.segments():
            if segment.touches(stub) or stub.touches(segment):
                return False
    for instance in page.instances:
        for point in instance.pin_positions().values():
            if stub.contains_point(point):
                return False
    return True


# -- generated Manhattan schematics --------------------------------------------

GRID = 16
SPAN = 6  # lattice coordinates 0..SPAN, in GRID units
LABELS = ("A", "B", "C")
SIGNALS = ("A", "B", "VDD")
NAMES = tuple(f"U{i}" for i in range(6))


def _symbol(name: str, kind: str, pins) -> Symbol:
    return Symbol(
        library="gen", name=name, kind=kind, body=Rect(0, 0, 32, 32),
        pins=[SymbolPin(pin, Point(x, y), PinDirection.BIDIRECTIONAL) for pin, (x, y) in pins],
    )


COMPONENTS = (
    _symbol("buf", "component", [("A", (0, 0)), ("Y", (32, 0))]),
    _symbol("tap", "component", [("A", (0, 0)), ("B", (0, 32)), ("Y", (32, 16))]),
)
CONNECTORS = (
    _symbol("VDD", "global", [("P", (0, 0))]),
    _symbol("GND", "global", [("P", (0, 0))]),
    _symbol("opc", "offpage_connector", [("P", (0, 0))]),
    _symbol("hier", "hier_connector", [("P", (0, 0))]),
)


def _lattice(draw, low: int = 0, high: int = SPAN) -> Point:
    return Point(
        draw(st.integers(low, high)) * GRID, draw(st.integers(low, high)) * GRID
    )


def _polyline(draw, pins: List[Point]) -> List[Point]:
    """A Manhattan polyline; zero steps repeat a point, so some wires have
    no segment at all.  Half the wires start on a pin."""
    if pins and draw(st.booleans()):
        x, y = draw(st.sampled_from(pins))
    else:
        x, y = _lattice(draw)
    points = [Point(x, y)]
    for _ in range(draw(st.integers(1, 4))):
        step = draw(st.integers(-3, 3)) * GRID
        if draw(st.booleans()):
            x += step
        else:
            y += step
        points.append(Point(x, y))
    return points


def _fill_page(draw, page: Page, min_instances: int = 0) -> None:
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, min_size=min_instances, max_size=4))
    for position, name in enumerate(names):
        symbols = COMPONENTS if position < min_instances else COMPONENTS + CONNECTORS
        symbol = draw(st.sampled_from(symbols))
        instance = Instance(
            name, symbol, Transform(_lattice(draw), draw(st.sampled_from(list(Orientation))))
        )
        if symbol.kind != "component" and draw(st.booleans()):
            instance.properties.set("signal", draw(st.sampled_from(SIGNALS)))
        page.add_instance(instance)
    pins = [point for instance in page.instances for point in instance.pin_positions().values()]
    for _ in range(draw(st.integers(0, 7))):
        label = draw(st.sampled_from((None, None) + LABELS))
        page.add_wire(Wire(_polyline(draw, pins), label=label))


@st.composite
def schematics(draw, min_instances: int = 0, max_pages: int = 3) -> Schematic:
    """One to ``max_pages`` pages; labels and instance names repeat across
    pages."""
    dialect = draw(st.sampled_from([VIEWDRAW_LIKE, COMPOSER_LIKE]))
    ports = draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=2))
    cell = Schematic("gen", dialect.name, ports=[Port(name) for name in ports])
    for _ in range(draw(st.integers(1, max_pages))):
        _fill_page(draw, cell.add_page(Rect(0, 0, 160, 160)), min_instances)
    return cell


@st.composite
def replacements(draw):
    """A page, a component on it, and a replacement rule that may move,
    rotate and rename its pins."""
    cell = draw(schematics(min_instances=1, max_pages=1))
    page = cell.pages[0]
    victim = page.instances[0]
    source = victim.symbol
    pin_map = {pin: pin.lower() for pin in source.pin_names()}
    target = Symbol(
        library="tgt", name=source.name, kind="component", body=source.body,
        pins=[SymbolPin(pin_map[pin], _lattice(draw, 0, 2)) for pin in source.pin_names()],
    )
    mapping = SymbolMapping(
        source=SymbolKey.of(source),
        target=SymbolKey.of(target),
        origin_offset=_lattice(draw, -2, 2),
        rotation=draw(st.sampled_from(list(Orientation))),
        pin_map=pin_map,
    )
    strategy = draw(st.sampled_from(["minimal", "naive"]))
    return page, victim.name, mapping, target, strategy


@st.composite
def replacement_sequences(draw):
    """A page with two to four components and, for each in a drawn order, a
    replacement rule as :func:`replacements` makes one."""
    cell = draw(schematics(min_instances=draw(st.integers(2, 4)), max_pages=1))
    page = cell.pages[0]
    victims = [i for i in page.instances if i.symbol.kind == "component"]
    steps = []
    for victim in draw(st.permutations(victims)):
        source = victim.symbol
        pin_map = {pin: pin.lower() for pin in source.pin_names()}
        target = Symbol(
            library="tgt", name=source.name, kind="component", body=source.body,
            pins=[SymbolPin(pin_map[pin], _lattice(draw, 0, 2)) for pin in source.pin_names()],
        )
        mapping = SymbolMapping(
            source=SymbolKey.of(source),
            target=SymbolKey.of(target),
            origin_offset=_lattice(draw, -2, 2),
            rotation=draw(st.sampled_from(list(Orientation))),
            pin_map=pin_map,
        )
        steps.append((victim.name, mapping, target))
    strategy = draw(st.sampled_from(["minimal", "naive"]))
    return page, steps, strategy


@st.composite
def plan_sequences(draw):
    """A page with two to four components and, for each in a drawn order, a
    rule from a small pool: per source master, two rules onto one shared
    target master and, when drawn, one that maps a pin to a name the target
    lacks.  Masters repeat under drawn orientations, so one carried pin
    table plans a master under several orientations, plans two rules onto
    one target, and answers later replacements (refused ones too) from the
    plans it already holds."""
    cell = draw(schematics(min_instances=draw(st.integers(2, 4)), max_pages=1))
    page = cell.pages[0]
    pool = {}
    for instance in page.instances:
        source = instance.symbol
        if source.kind != "component" or source.name in pool:
            continue
        pin_map = {pin: pin.lower() for pin in source.pin_names()}
        target = Symbol(
            library="tgt", name=source.name, kind="component", body=source.body,
            pins=[SymbolPin(pin_map[pin], _lattice(draw, 0, 2)) for pin in source.pin_names()],
        )
        rules = [
            SymbolMapping(
                source=SymbolKey.of(source),
                target=SymbolKey.of(target),
                origin_offset=_lattice(draw, -2, 2),
                rotation=draw(st.sampled_from(list(Orientation))),
                pin_map=pin_map,
            )
            for _ in range(2)
        ]
        if draw(st.booleans()):
            unmapped = dict(pin_map, **{source.pin_names()[-1]: "nc"})
            rules.append(SymbolMapping(SymbolKey.of(source), SymbolKey.of(target), pin_map=unmapped))
        pool[source.name] = (target, rules)
    victims = [i for i in page.instances if i.symbol.kind == "component"]
    steps = []
    for victim in draw(st.permutations(victims)):
        target, rules = pool[victim.symbol.name]
        steps.append((victim.name, draw(st.sampled_from(rules)), target))
    strategy = draw(st.sampled_from(["minimal", "naive"]))
    return page, steps, strategy


@st.composite
def stubs(draw):
    """A horizontal or vertical segment between lattice points."""
    a = _lattice(draw, -1, SPAN + 1)
    length = draw(st.integers(1, SPAN)) * GRID * draw(st.sampled_from([-1, 1]))
    b = Point(a.x + length, a.y) if draw(st.booleans()) else Point(a.x, a.y + length)
    return Segment(a, b)


def assert_same_netlist(indexed: Netlist, oracle: Netlist) -> None:
    assert indexed.cell_name == oracle.cell_name
    # Net equality covers every field; list order covers naming order.
    assert list(indexed.nets.items()) == list(oracle.nets.items())
    assert list(indexed.log) == list(oracle.log)


def run_replacement(replace, page, name, mapping, target, strategy):
    """Everything a replacement leaves behind, on a private copy of ``page``."""
    page = copy.deepcopy(page)
    log = IssueLog()
    try:
        outcome = replace(page, name, mapping, target, log=log, strategy=strategy)
    except RipupError as exc:
        outcome = f"RipupError: {exc}"
    instances = [(i.name, i.symbol.full_name, i.transform) for i in page.instances]
    return outcome, [wire.points for wire in page.wires], instances, list(log)


def assert_index_is_fresh(index: WireIndex, page: Page) -> None:
    """``index`` answers every lookup as one built from ``page`` now would."""
    fresh = WireIndex(page.wires)
    lattice = [Point(x * GRID, y * GRID) for x in range(-3, SPAN + 4) for y in range(-3, SPAN + 4)]
    for point in set(lattice).union(*(wire.points for wire in page.wires)):
        assert index.wires_at(point.x, point.y) == fresh.wires_at(point.x, point.y), point
    assert index.bare == fresh.bare
    assert sorted(index.touching_pairs()) == sorted(fresh.touching_pairs())


def run_sequence(page, steps, strategy, carried: bool):
    """Replace ``steps`` in order on a private copy of ``page``, with one
    carried index and pin table, or with ``scan_replace_component``."""
    page = copy.deepcopy(page)
    log = IssueLog()
    index, pins = WireIndex(page.wires), PinOffsets()
    outcomes = []
    for name, mapping, target in steps:
        try:
            if carried:
                outcome = replace_component(
                    page, name, mapping, target, log=log, strategy=strategy,
                    index=index, pins=pins,
                )
            else:
                outcome = scan_replace_component(
                    page, name, mapping, target, log=log, strategy=strategy
                )
        except RipupError as exc:
            outcomes.append(f"RipupError: {exc}")
            break
        outcomes.append(outcome)
        if carried:
            assert_index_is_fresh(index, page)
    instances = [(i.name, i.symbol.full_name, i.transform) for i in page.instances]
    return outcomes, [wire.points for wire in page.wires], instances, list(log)


def page_state(page: Page):
    return (
        [(i.name, i.symbol.full_name, i.transform) for i in page.instances],
        [list(wire.points) for wire in page.wires],
    )


def run_plan_sequence(page, steps, strategy, carried: bool):
    """As :func:`run_sequence`, but a replacement refused for a missing
    target pin is recorded and the sequence goes on; a refusal must leave
    the page untouched.  The oracle refuses with the ``KeyError`` of its pin
    lookup."""
    page = copy.deepcopy(page)
    log = IssueLog()
    index, pins = WireIndex(page.wires), PinOffsets()
    outcomes = []
    for name, mapping, target in steps:
        before = page_state(page)
        try:
            if carried:
                outcome = replace_component(
                    page, name, mapping, target, log=log, strategy=strategy,
                    index=index, pins=pins,
                )
            else:
                outcome = scan_replace_component(
                    page, name, mapping, target, log=log, strategy=strategy
                )
        except RipupError as exc:
            if "has no target pin" not in str(exc):
                outcomes.append(f"RipupError: {exc}")
                break
            assert carried and f"of {name!r} has no target pin 'nc'" in str(exc)
            assert page_state(page) == before
            outcomes.append(("refused", name))
            continue
        except KeyError:
            assert not carried
            assert page_state(page) == before
            outcomes.append(("refused", name))
            continue
        outcomes.append(outcome)
        if carried:
            assert_index_is_fresh(index, page)
    return outcomes, page_state(page), list(log)


# -- tests ---------------------------------------------------------------------

GENERATED = settings(
    max_examples=max(200, settings.default.max_examples),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestWireIndex:
    def test_t_junction_crossing_and_overlap(self):
        wires = [
            Wire([Point(0, 0), Point(64, 0)]),
            Wire([Point(32, 0), Point(32, 32)]),  # T onto wire 0
            Wire([Point(16, -16), Point(16, 16)]),  # crosses wire 0 mid-span
            Wire([Point(48, 0), Point(96, 0)]),  # collinear overlap with wire 0
            Wire([Point(16, 16), Point(16, 16)]),  # no segment
        ]
        index = WireIndex(wires)
        assert index.wires_at(32, 0) == {0, 1}
        assert index.wires_at(16, 0) == {0, 2}
        assert index.wires_at(64, 0) == {0, 3}
        assert index.wires_at(16, 16) == {2}
        assert index.wires_at(100, 0) == set()
        assert index.bare == [4]
        # Wire 2 crosses wire 0 without an end on it; no lookup sees wire 4.
        assert {frozenset(pair) for pair in index.touching_pairs()} == {
            frozenset({0, 1}), frozenset({0, 3})
        }

    def test_repeated_points_make_no_segment(self):
        index = WireIndex([Wire([Point(0, 0), Point(0, 0), Point(0, 32), Point(0, 32)])])
        assert index.wires_at(0, 0) == index.wires_at(0, 32) == {0}
        assert index.wires_at(0, 33) == set()
        assert index.bare == []

    def test_diagonal_points_rejected_like_segments(self):
        wire = Wire([Point(0, 0), Point(0, 16)])
        wire.points = [Point(0, 0), Point(16, 16)]
        with pytest.raises(ValueError, match="not Manhattan"):
            WireIndex([wire])


class TestGeneratedSchematics:
    """One generated drawing, every indexed query against its oracle."""

    @given(cell=schematics())
    @GENERATED
    def test_index_extract_and_floating_ends_match_oracles(self, cell):
        lattice = [Point(x * GRID, y * GRID) for x in range(SPAN + 1) for y in range(SPAN + 1)]
        for page in cell.pages:
            index = WireIndex(page.wires)
            probes = set(lattice).union(*(wire.points for wire in page.wires))
            for point in probes:
                expected = {n for n, wire in enumerate(page.wires) if _touches_point(wire, point)}
                assert index.wires_at(point.x, point.y) == expected, point
            assert find_floating_ends(page) == scan_floating_ends(page)
        for dialect in (VIEWDRAW_LIKE, COMPOSER_LIKE):
            assert_same_netlist(extract(cell, dialect), pairwise_extract(cell, dialect))


class TestTouchingPairs:
    @given(cell=schematics(max_pages=1))
    @GENERATED
    def test_pairs_touch_and_join_what_touches(self, cell):
        """Every pair touches, and joining the pairs groups the wires as
        joining every touching pair does."""
        wires = cell.pages[0].wires

        def groups(pairs):
            uf = _UnionFind()
            for number in range(len(wires)):
                uf.add(number)
            for a, b in pairs:
                uf.union(a, b)
            return sorted(sorted(members) for members in uf.groups().values())

        pairs = WireIndex(wires).touching_pairs()
        for a, b in pairs:
            assert a != b and _wires_touch(wires[a], wires[b]), (a, b)
        touching = [
            (i, j) for i in range(len(wires)) for j in range(i + 1, len(wires))
            if _wires_touch(wires[i], wires[j])
        ]
        assert groups(pairs) == groups(touching)


class TestChainCorpus:
    @pytest.mark.parametrize("shape", [(1, 2, 3), (2, 3, 4), (1, 6, 9), (3, 4, 6)])
    def test_chain_cell_and_its_migration_match_oracle(self, shape):
        libraries = build_vl_libraries()
        pages, chains, stages = shape
        cell = generate_chain_schematic(
            libraries, pages=pages, chains_per_page=chains, stages=stages
        )
        assert_same_netlist(extract(cell), pairwise_extract(cell))
        # The migrated drawing has rerouted jogs, off-page and hierarchy
        # connectors and the other dialect's discipline.
        target = Migrator(build_sample_plan(source_libraries=libraries)).migrate(cell).schematic
        assert_same_netlist(extract(target), pairwise_extract(target))


class TestReplaceComponentMatchesScan:
    @given(case=replacements())
    @GENERATED
    def test_generated_replacements(self, case):
        page, name, mapping, target, strategy = case
        assert run_replacement(
            replace_component, page, name, mapping, target, strategy
        ) == run_replacement(scan_replace_component, page, name, mapping, target, strategy)


class TestSharedIndexAcrossReplacements:
    @given(case=replacement_sequences())
    @GENERATED
    def test_carried_index_matches_scan_in_order(self, case):
        page, steps, strategy = case
        assert run_sequence(page, steps, strategy, carried=True) == run_sequence(
            page, steps, strategy, carried=False
        )

    @given(case=plan_sequences())
    @GENERATED
    def test_carried_plans_match_scan(self, case):
        page, steps, strategy = case
        assert run_plan_sequence(page, steps, strategy, carried=True) == run_plan_sequence(
            page, steps, strategy, carried=False
        )

    def test_refusal_from_a_held_plan_leaves_the_page_untouched(self):
        buf = COMPONENTS[0]
        page = Page(1, Rect(0, 0, 160, 160))
        for number in range(2):
            page.add_instance(Instance(f"U{number}", buf, Transform(Point(0, 32 * number))))
            page.add_wire(Wire([Point(32, 32 * number), Point(96, 32 * number)]))
        target = _symbol("buf", "component", [("a", (0, 0)), ("y", (32, 16))])
        mapping = SymbolMapping(
            SymbolKey.of(buf), SymbolKey.of(target), pin_map={"A": "a", "Y": "z"}
        )
        index, pins = WireIndex(page.wires), PinOffsets()
        for name in ("U0", "U1"):  # the second call finds the plan held
            before = page_state(page)
            with pytest.raises(RipupError) as refused:
                replace_component(page, name, mapping, target, index=index, pins=pins)
            assert str(refused.value) == (
                f"pin 'Y' of {name!r} has no target pin 'z' on {target.full_name}"
            )
            assert page_state(page) == before
        assert_index_is_fresh(index, page)

    def test_replace_wire_adds_and_empties(self):
        wires = [Wire([Point(0, 0), Point(32, 0)]), Wire([Point(16, 16), Point(16, 16)])]
        index = WireIndex(wires)
        assert index.bare == [1]
        old = wires[1].points
        wires[1].points = [Point(16, 16), Point(16, 0)]
        index.replace_wire(1, old, wires[1].points)
        old = wires[0].points
        wires[0].points = [Point(0, 0), Point(0, 0)]
        index.replace_wire(0, old, wires[0].points)
        wires.append(Wire([Point(0, 0), Point(0, 48)]))
        index.replace_wire(2, (), wires[2].points)
        page = Page(1, Rect(0, 0, 64, 64), wires=wires)
        assert index.bare == [0]
        assert_index_is_fresh(index, page)


class TestStubIsClearMatchesScan:
    @given(cell=schematics(max_pages=1), stubs=st.lists(stubs(), min_size=1, max_size=6))
    @GENERATED
    def test_stubs_on_a_changing_page(self, cell, stubs):
        """Each clear stub is drawn with a connector at its end, as
        connector placement does, before the next query."""
        page = cell.pages[0]
        sites = _PageSites(page, PinOffsets())
        connector = CONNECTORS[2]
        for number, stub in enumerate(stubs):
            ignore = number % (len(page.wires) + 1) - 1
            clear = scan_stub_is_clear(page, stub, ignore)
            assert _stub_is_clear(sites, stub, ignore) == clear, stub
            if clear:
                sites.add_wire(Wire([stub.a, stub.b]))
                sites.add_instance(Instance(f"C{number}", connector, Transform(stub.b)))
        assert_index_is_fresh(sites.wires, page)
