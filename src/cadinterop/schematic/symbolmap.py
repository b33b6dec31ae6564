"""Symbol replacement maps for component migration.

Section 2 ("Symbol replacement mapping"): "Library, name, and view mappings,
along with origin offsets and rotation codes, were defined for each
Viewlogic component to be replaced by a Cadence component.  For situations
where pin naming conventions differed, a pin name map was also created."

A :class:`SymbolMap` is the table the migration engine consults: for each
source (library, name, view) it yields the target master, the origin offset
and rotation correction that make the replacement land where the original
sat, and a pin-name map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.common.geometry import Orientation, Point
from cadinterop.schematic.model import LibrarySet, Symbol


@dataclass(frozen=True)
class SymbolKey:
    """Identity of a symbol master: library / cell name / view."""

    library: str
    name: str
    view: str = "symbol"

    @staticmethod
    def of(symbol: Symbol) -> "SymbolKey":
        return SymbolKey(symbol.library, symbol.name, symbol.view)

    def __str__(self) -> str:
        return f"{self.library}/{self.name}/{self.view}"


@dataclass
class SymbolMapping:
    """One source->target component replacement rule."""

    source: SymbolKey
    target: SymbolKey
    origin_offset: Point = Point(0, 0)
    rotation: Orientation = Orientation.R0
    pin_map: Dict[str, str] = field(default_factory=dict)

    def map_pin(self, source_pin: str) -> str:
        return self.pin_map.get(source_pin, source_pin)

    def unmap_pin(self, target_pin: str) -> str:
        for src, tgt in self.pin_map.items():
            if tgt == target_pin:
                return src
        return target_pin


class SymbolMapError(Exception):
    """A mapping table inconsistency (duplicate source, bad pin map...)."""


class SymbolMap:
    """The complete replacement table used by a migration run."""

    def __init__(self, mappings: Iterable[SymbolMapping] = ()) -> None:
        self._by_source: Dict[SymbolKey, SymbolMapping] = {}
        for mapping in mappings:
            self.add(mapping)

    def add(self, mapping: SymbolMapping) -> SymbolMapping:
        if mapping.source in self._by_source:
            raise SymbolMapError(f"duplicate mapping for {mapping.source}")
        self._by_source[mapping.source] = mapping
        return mapping

    def lookup(self, key: SymbolKey) -> Optional[SymbolMapping]:
        return self._by_source.get(key)

    def __len__(self) -> int:
        return len(self._by_source)

    def __iter__(self) -> Iterator[SymbolMapping]:
        return iter(self._by_source.values())

    def validate(self, source_libs: LibrarySet, target_libs: LibrarySet) -> IssueLog:
        """Check every rule against the actual libraries.

        Verifies: both masters exist; every pin-map source pin exists on the
        source master and target pin on the target master; every source pin
        has *some* target pin (identity or mapped) — a dangling pin means a
        net cannot be rerouted and is flagged as an error; pin maps must not
        merge two source pins onto one target pin.
        """
        log = IssueLog()
        for mapping in self:
            src, tgt = mapping.source, mapping.target
            if not source_libs.has(src.library, src.name, src.view):
                log.add(
                    Severity.ERROR, Category.STRUCTURE_MAPPING, str(src),
                    "source symbol not found in source libraries",
                    remedy="fix the mapping table or install the library",
                )
                continue
            if not target_libs.has(tgt.library, tgt.name, tgt.view):
                log.add(
                    Severity.ERROR, Category.STRUCTURE_MAPPING, str(tgt),
                    "target symbol not found in target libraries",
                    remedy="qualify the target library before migration",
                )
                continue
            source_symbol = source_libs.resolve(src.library, src.name, src.view)
            target_symbol = target_libs.resolve(tgt.library, tgt.name, tgt.view)
            target_pin_names = set(target_symbol.pin_names())

            seen_targets: Dict[str, str] = {}
            for map_src, map_tgt in mapping.pin_map.items():
                if not source_symbol.has_pin(map_src):
                    log.add(
                        Severity.ERROR, Category.NAME_MAPPING, f"{src}:{map_src}",
                        "pin map source pin does not exist on source symbol",
                    )
                if map_tgt not in target_pin_names:
                    log.add(
                        Severity.ERROR, Category.NAME_MAPPING, f"{tgt}:{map_tgt}",
                        "pin map target pin does not exist on target symbol",
                    )
                if map_tgt in seen_targets:
                    log.add(
                        Severity.ERROR, Category.NAME_MAPPING, f"{tgt}:{map_tgt}",
                        f"pins {seen_targets[map_tgt]!r} and {map_src!r} both map onto it",
                        remedy="pin maps must be injective",
                    )
                seen_targets[map_tgt] = map_src

            for pin in source_symbol.pins:
                mapped = mapping.map_pin(pin.name)
                if mapped not in target_pin_names:
                    log.add(
                        Severity.ERROR, Category.CONNECTIVITY, f"{src}:{pin.name}",
                        f"no target pin for source pin (wanted {mapped!r} on {tgt})",
                        remedy="add a pin name map entry",
                    )
        return log

    def coverage(self, design_keys: Iterable[SymbolKey]) -> Tuple[List[SymbolKey], List[SymbolKey]]:
        """Partition design symbol keys into (mapped, unmapped)."""
        mapped: List[SymbolKey] = []
        unmapped: List[SymbolKey] = []
        for key in design_keys:
            (mapped if key in self._by_source else unmapped).append(key)
        return mapped, unmapped
