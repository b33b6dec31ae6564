"""Global net and global-symbol mapping.

Section 2 ("Globals"): "Rules were defined for the labels, names, and/or
instances of objects, and how they were mapped to the corresponding
instances on the target system.  Similar to the replacement of components,
offsets and rotation codes were required to map the replaced components to
the correct location on the translated schematic.  When the schematic was
received by the target system, it used global instances and connectors from
the native component libraries."

Globals are power/ground style symbols whose every instance joins one
design-wide net.  Mapping them is a special case of symbol replacement plus
a *net-name* map (``VCC`` -> ``vdd!`` conventions differ between systems).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.common.geometry import Orientation, Point
from cadinterop.schematic.dialects import Dialect
from cadinterop.schematic.model import Schematic
from cadinterop.schematic.symbolmap import SymbolKey, SymbolMap, SymbolMapping


@dataclass
class GlobalRule:
    """Map one source global symbol + net name onto the target natives."""

    source_symbol: SymbolKey
    target_symbol: SymbolKey
    source_net: str
    target_net: str
    origin_offset: Point = Point(0, 0)
    rotation: Orientation = Orientation.R0


@dataclass
class GlobalMap:
    """All global-mapping rules for a migration."""

    rules: List[GlobalRule] = field(default_factory=list)

    def add(self, rule: GlobalRule) -> None:
        self.rules.append(rule)

    def as_symbol_mappings(self) -> List[SymbolMapping]:
        """Lower the symbol part of every rule into ordinary replacement rules."""
        return [
            SymbolMapping(
                source=rule.source_symbol,
                target=rule.target_symbol,
                origin_offset=rule.origin_offset,
                rotation=rule.rotation,
            )
            for rule in self.rules
        ]

    def net_name_map(self) -> Dict[str, str]:
        return {rule.source_net: rule.target_net for rule in self.rules}

    def extend_symbol_map(self, symbol_map: SymbolMap) -> None:
        for mapping in self.as_symbol_mappings():
            if symbol_map.lookup(mapping.source) is None:
                symbol_map.add(mapping)


def rename_global_nets(
    schematic: Schematic,
    global_map: GlobalMap,
    log: Optional[IssueLog] = None,
) -> int:
    """Rewrite global net labels and connector bindings to target names."""
    name_map = global_map.net_name_map()
    renamed = 0
    for page in schematic.pages:
        for wire in page.wires:
            if wire.label in name_map:
                old = wire.label
                wire.label = name_map[old]
                renamed += 1
                if log is not None:
                    log.add(
                        Severity.INFO, Category.NAME_MAPPING, old,
                        f"global net renamed to {wire.label!r} (native convention)",
                    )
        for instance in page.instances:
            signal = instance.properties.get("signal")
            if isinstance(signal, str) and signal in name_map:
                instance.properties.set("signal", name_map[signal], origin="global-map")
                renamed += 1
    return renamed


def default_global_map(source: Dialect, target: Dialect) -> GlobalMap:
    """Power/ground mapping between two dialects' native conventions."""
    gm = GlobalMap()
    gm.add(
        GlobalRule(
            source_symbol=SymbolKey(source.connectors.library, source.connectors.power),
            target_symbol=SymbolKey(target.connectors.library, target.connectors.power),
            source_net="VCC",
            target_net="vdd!",
        )
    )
    gm.add(
        GlobalRule(
            source_symbol=SymbolKey(source.connectors.library, source.connectors.ground),
            target_symbol=SymbolKey(target.connectors.library, target.connectors.ground),
            source_net="GND",
            target_net="gnd!",
        )
    )
    return gm
