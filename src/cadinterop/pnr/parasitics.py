"""Interconnect parasitics: area and coupling capacitance from routed nets.

Section 4 ("Interconnect topology"): "Interconnect topology has a large
impact on design performance and functional integrity...  Coupling
capacitance can causes all sorts of problems, but can be controlled by
shortening wire length, increasing spacing, or even by shielding."

Capacitance is extracted at routing-grid granularity: every occupied track
node contributes area capacitance, and each node couples to the *nearest*
foreign wire in each perpendicular direction with inverse-distance falloff
— unless a grounded shield track sits in between, which kills the coupling
entirely.  This makes the three control knobs (length, spacing, shields)
and their loss through a weak tool dialect directly measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from cadinterop.pnr.routing import Node, RoutingResult, SHIELD
from cadinterop.pnr.tech import Technology

#: How many tracks away coupling is still considered.
MAX_COUPLING_TRACKS = 3


@dataclass
class NetParasitics:
    """Extracted parasitics for one net."""

    net: str
    area_cap: float = 0.0
    coupling: Dict[str, float] = field(default_factory=dict)  # aggressor -> fF

    @property
    def coupling_cap(self) -> float:
        return sum(self.coupling.values())

    @property
    def total_cap(self) -> float:
        return self.area_cap + self.coupling_cap

    @property
    def worst_aggressor(self) -> Optional[Tuple[str, float]]:
        if not self.coupling:
            return None
        aggressor = max(self.coupling, key=lambda k: self.coupling[k])
        return aggressor, self.coupling[aggressor]


@dataclass
class ParasiticReport:
    """Per-net parasitics plus design-level summaries."""

    nets: Dict[str, NetParasitics] = field(default_factory=dict)

    def net(self, name: str) -> NetParasitics:
        return self.nets[name]

    @property
    def total_coupling(self) -> float:
        return sum(p.coupling_cap for p in self.nets.values())

    @property
    def total_cap(self) -> float:
        return sum(p.total_cap for p in self.nets.values())

    def coupling_of(self, net: str) -> float:
        parasitics = self.nets.get(net)
        return parasitics.coupling_cap if parasitics else 0.0


def extract(
    tech: Technology,
    routing: RoutingResult,
    occupancy: Dict[Node, str],
) -> ParasiticReport:
    """Extract parasitics for every routed net.

    ``occupancy`` is the router's final node->owner map (including shield
    markers); coupling is computed symmetrically but charged to each victim
    separately, as a delay tool would see it.

    Probes run across a layer's direction, so ``occupancy`` is indexed once
    by (layer, the coordinate a probe keeps), and each probe is an integer
    lookup along one such line.  Each net counts its nodes per layer and
    its couplings per (aggressor, layer, distance), and multiplies out in
    layer and distance order, aggressors by name, so the report does not
    depend on the iteration order of ``RoutedNet.nodes``.
    """
    report = ParasiticReport()
    pitch = tech.pitch
    distances = range(1, MAX_COUPLING_TRACKS + 1)
    layers = tech.routing_layers()
    # Per layer: its position in ``layers``, whether probes run along y
    # (a horizontal layer), and its lines: the fixed coordinate of a
    # probe -> {the other coordinate: owner}.
    lines: Dict[str, Tuple[int, bool, Dict[int, Dict[int, str]]]] = {
        layer.name: (k, layer.direction == "horizontal", {})
        for k, layer in enumerate(layers)
    }
    for (layer_name, ix, iy), owner in occupancy.items():
        _k, along_y, by_line = lines[layer_name]
        if along_y:
            line = by_line.get(ix)
            if line is None:
                line = by_line[ix] = {}
            line[iy] = owner
        else:
            line = by_line.get(iy)
            if line is None:
                line = by_line[iy] = {}
            line[ix] = owner
    area = [layer.area_cap * pitch for layer in layers]
    coupling = [
        layer.coupling_at(distance) * pitch for layer in layers for distance in distances
    ]
    slots = len(coupling)

    for name, routed in routing.routed.items():
        parasitics = NetParasitics(name)
        nodes_on = [0] * len(layers)
        # aggressor -> hit counts, indexed layer * MAX_COUPLING_TRACKS + distance - 1
        hits: Dict[str, List[int]] = {}
        for layer_name, ix, iy in routed.nodes:
            k, along_y, by_line = lines[layer_name]
            nodes_on[k] += 1
            if along_y:
                line, at = by_line.get(ix), iy
            else:
                line, at = by_line.get(iy), ix
            if line is None:
                continue
            slot = k * MAX_COUPLING_TRACKS - 1
            # Probe both perpendicular directions for the nearest neighbor.
            for sign in (-1, 1):
                for distance in distances:
                    owner = line.get(at + sign * distance)
                    if owner is None:
                        continue
                    # Own wire or a grounded shield: no coupling this side.
                    if owner != name and owner != SHIELD:
                        counts = hits.get(owner)
                        if counts is None:
                            counts = hits[owner] = [0] * slots
                        counts[slot + distance] += 1
                    break  # nearest neighbor only
        parasitics.area_cap = sum(count * cap for count, cap in zip(nodes_on, area))
        for owner in sorted(hits):
            parasitics.coupling[owner] = sum(
                count * cap for count, cap in zip(hits[owner], coupling)
            )
        report.nets[name] = parasitics
    return report


@dataclass
class TopologyComparison:
    """The with/without-topology-control experiment result (E11)."""

    controlled_coupling: float
    uncontrolled_coupling: float
    victim: str
    controlled_victim_coupling: float
    uncontrolled_victim_coupling: float

    @property
    def victim_improvement(self) -> float:
        """Factor by which control reduced the victim's coupling."""
        if self.controlled_victim_coupling == 0.0:
            return float("inf") if self.uncontrolled_victim_coupling > 0 else 1.0
        return self.uncontrolled_victim_coupling / self.controlled_victim_coupling
