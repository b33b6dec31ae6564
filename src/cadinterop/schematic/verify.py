"""Independent verification of a schematic migration.

Section 2 ("Verification"): "Careful design of a data translation strategy
is insufficient to guarantee correctness of the translated data; design
data translations must be independently verified."

Verification here is *independent* of the migration pipeline: it extracts
netlists from the source and translated schematics with the geometric
extractor (:mod:`cadinterop.schematic.netlist`) and compares connectivity
partitions, normalizing only through the declared symbol pin maps and
global net renames.  Any connection the migration broke, shorted, or
invented shows up as a split, merge, or terminal mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.obs import get_tracer
from cadinterop.schematic.dialects import get_dialect
from cadinterop.schematic.globals_ import GlobalMap
from cadinterop.schematic.model import Schematic
from cadinterop.schematic.netlist import Netlist, Terminal, extract
from cadinterop.schematic.symbolmap import SymbolKey, SymbolMap


@dataclass
class VerificationResult:
    """Outcome of one migration verification."""

    equivalent: bool
    log: IssueLog = field(default_factory=IssueLog)
    source_nets: int = 0
    target_nets: int = 0
    matched_nets: int = 0
    split_nets: List[str] = field(default_factory=list)
    merged_nets: List[str] = field(default_factory=list)
    missing_terminals: List[Terminal] = field(default_factory=list)
    extra_terminals: List[Terminal] = field(default_factory=list)

    def summary(self) -> str:
        verdict = "EQUIVALENT" if self.equivalent else "NOT EQUIVALENT"
        return (
            f"{verdict}: {self.matched_nets}/{self.source_nets} nets matched, "
            f"{len(self.split_nets)} split, {len(self.merged_nets)} merged, "
            f"{len(self.missing_terminals)} missing terminals, "
            f"{len(self.extra_terminals)} extra terminals"
        )


def _component_terminals(netlist: Netlist, connector_instances: Set[str]) -> Dict[str, Set[Terminal]]:
    """Net -> component terminals, dropping synthesized connector pins."""
    result: Dict[str, Set[Terminal]] = {}
    for net in netlist.nets.values():
        terminals = {t for t in net.terminals if t[0] not in connector_instances}
        if terminals:
            result[net.name] = terminals
    return result


def _connector_instance_names(schematic: Schematic) -> Set[str]:
    return {
        instance.name
        for _page, instance in schematic.all_instances()
        if instance.symbol.kind != "component"
    }


def verify_migration(
    source: Schematic,
    target: Schematic,
    symbol_map: Optional[SymbolMap] = None,
    global_map: Optional[GlobalMap] = None,
) -> VerificationResult:
    """Compare connectivity of ``source`` and ``target`` schematics.

    Source terminals are normalized through the symbol map's pin-name maps
    (the migration legitimately renames pins); everything else must match
    exactly.  Returns a result whose ``log`` lists every divergence.
    """
    result = VerificationResult(equivalent=True)
    tracer = get_tracer()
    with tracer.span("verify:extract-source"):
        source_netlist = extract(source, get_dialect(source.dialect))
    with tracer.span("verify:extract-target"):
        target_netlist = extract(target, get_dialect(target.dialect))
    result.log.merge(source_netlist.log)
    result.log.merge(target_netlist.log)
    with tracer.span("verify:compare"):
        _compare(result, source, source_netlist, target, target_netlist, symbol_map)
    return result


def _compare(
    result: VerificationResult, source: Schematic, source_netlist: Netlist,
    target: Schematic, target_netlist: Netlist, symbol_map: Optional[SymbolMap],
) -> None:
    """Fill ``result`` from the two netlists' connectivity partitions."""
    # Build pin-name normalization: instance name -> pin map, from the
    # source instances' symbols and the declared replacement rules, looked
    # up once per master (by id: the source holds every master).
    pin_maps: Dict[str, Dict[str, str]] = {}
    if symbol_map is not None:
        master_maps: Dict[int, Optional[Dict[str, str]]] = {}
        for _page, instance in source.all_instances():
            symbol = instance.symbol
            if id(symbol) in master_maps:
                pin_map = master_maps[id(symbol)]
            else:
                mapping = symbol_map.lookup(SymbolKey.of(symbol))
                pin_map = master_maps[id(symbol)] = (
                    mapping.pin_map if mapping is not None and mapping.pin_map else None
                )
            if pin_map:
                pin_maps[instance.name] = pin_map

    def normalize(terminal: Terminal) -> Terminal:
        instance_name, pin_name = terminal
        pin_map = pin_maps.get(instance_name)
        if pin_map and pin_name in pin_map:
            return (instance_name, pin_map[pin_name])
        return terminal

    source_sets = {
        name: frozenset(normalize(t) for t in terminals)
        for name, terminals in _component_terminals(
            source_netlist, _connector_instance_names(source)
        ).items()
    }
    target_sets = {
        name: frozenset(terminals)
        for name, terminals in _component_terminals(
            target_netlist, _connector_instance_names(target)
        ).items()
    }

    result.source_nets = len(source_sets)
    result.target_nets = len(target_sets)

    # Index target nets by terminal for partition comparison.
    target_net_of: Dict[Terminal, str] = {}
    for net_name, terminals in target_sets.items():
        for terminal in terminals:
            if terminal in target_net_of:
                result.log.add(
                    Severity.ERROR, Category.VERIFICATION, str(terminal),
                    f"terminal appears on two target nets "
                    f"({target_net_of[terminal]} and {net_name})",
                )
                result.equivalent = False
            target_net_of[terminal] = net_name

    claimed_target_nets: Dict[str, str] = {}
    for source_name, terminals in sorted(source_sets.items()):
        target_names = {target_net_of.get(t) for t in terminals}
        missing = {t for t in terminals if t not in target_net_of}
        if missing:
            result.missing_terminals.extend(sorted(missing))
            for terminal in sorted(missing):
                result.log.add(
                    Severity.ERROR, Category.VERIFICATION, f"{terminal[0]}.{terminal[1]}",
                    f"terminal of source net {source_name!r} is unconnected in target",
                    remedy="re-run rip-up/reroute for this instance",
                )
            result.equivalent = False
            target_names.discard(None)
        if len(target_names) > 1:
            result.split_nets.append(source_name)
            result.log.add(
                Severity.ERROR, Category.VERIFICATION, source_name,
                f"source net split across target nets {sorted(n for n in target_names if n)}",
            )
            result.equivalent = False
            continue
        if not target_names:
            continue
        target_name = next(iter(target_names))
        if target_name is None:
            continue
        if target_name in claimed_target_nets:
            result.merged_nets.append(target_name)
            result.log.add(
                Severity.ERROR, Category.VERIFICATION, target_name,
                f"target net merges source nets "
                f"{claimed_target_nets[target_name]!r} and {source_name!r} (short)",
            )
            result.equivalent = False
            continue
        claimed_target_nets[target_name] = source_name
        extra = set(target_sets[target_name]) - set(terminals)
        if extra:
            result.extra_terminals.extend(sorted(extra))
            for terminal in sorted(extra):
                result.log.add(
                    Severity.ERROR, Category.VERIFICATION, f"{terminal[0]}.{terminal[1]}",
                    f"target net {target_name!r} gained a terminal not on source net {source_name!r}",
                )
            result.equivalent = False
        else:
            result.matched_nets += 1

    # Target-only nets carrying component terminals are inventions.
    for target_name in sorted(set(target_sets) - set(claimed_target_nets)):
        result.log.add(
            Severity.ERROR, Category.VERIFICATION, target_name,
            "target net has component terminals but no corresponding source net",
        )
        result.equivalent = False

    if result.equivalent:
        result.log.add(
            Severity.INFO, Category.VERIFICATION, source.name,
            f"connectivity verified: {result.matched_nets} nets equivalent",
        )


def audit_properties(
    source: Schematic,
    target: Schematic,
    required: Optional[List[str]] = None,
) -> IssueLog:
    """Check that instances kept their properties through migration.

    ``required`` lists property names that must survive verbatim; other
    properties may legitimately be added/renamed by the mapping rules, so
    only required ones are compared.
    """
    log = IssueLog()
    required = required or []
    target_instances = {
        instance.name: instance for _page, instance in target.all_instances()
    }
    for _page, instance in source.all_instances():
        if instance.symbol.kind != "component":
            continue
        counterpart = target_instances.get(instance.name)
        if counterpart is None:
            log.add(
                Severity.ERROR, Category.VERIFICATION, instance.name,
                "instance missing from translated schematic",
            )
            continue
        for name in required:
            if name not in instance.properties:
                continue
            source_value = instance.properties.get(name)
            target_value = counterpart.properties.get(name)
            if target_value != source_value:
                log.add(
                    Severity.ERROR, Category.PROPERTY_MAPPING, f"{instance.name}.{name}",
                    f"required property changed: {source_value!r} -> {target_value!r}",
                )
    return log
