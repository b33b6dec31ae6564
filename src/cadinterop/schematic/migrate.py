"""The migration pipeline: source dialect -> target dialect, end to end.

This orchestrates every Section 2 step in the order the consulting work
performed them:

1. **Scaling** — rescale all geometry from the source grid to the target
   grid (:mod:`cadinterop.schematic.gridmap`); unmapped symbol masters are
   scaled copies, so connectivity is preserved exactly.
2. **Symbol replacement** — swap mapped components for native target
   masters, ripping up and rerouting the minimum number of net segments
   (:mod:`cadinterop.schematic.ripup`, paper Figure 1).
3. **Property mapping** — standard declarative rules plus non-standard a/L
   callbacks (:mod:`cadinterop.schematic.propertymap`).
4. **Global mapping** — native power/ground symbols and net-name
   conventions (:mod:`cadinterop.schematic.globals_`).
5. **Bus syntax translation** — condensed -> explicit references, postfix
   folding (:mod:`cadinterop.schematic.busnotation`).
6. **Connector synthesis** — explicit hierarchy and off-page connectors
   where the target dialect demands them
   (:mod:`cadinterop.schematic.connectors`).
7. **Cosmetics** — font scaling and baseline correction
   (:mod:`cadinterop.schematic.text`).
8. **Verification** — independent netlist comparison
   (:mod:`cadinterop.schematic.verify`), because "design data translations
   must be independently verified".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.obs.context import StageSpan, get_lineage, get_tracer
from cadinterop.schematic.busnotation import declared_buses_of, translate_net_name
from cadinterop.schematic.connectors import (
    ConnectorReport,
    insert_hierarchy_connectors,
    insert_offpage_connectors,
)
from cadinterop.schematic.dialects import Dialect, get_dialect
from cadinterop.schematic.globals_ import GlobalMap, rename_global_nets
from cadinterop.schematic.gridmap import ScalingReport, rescale_schematic, scale_symbol
from cadinterop.schematic.model import (
    Instance,
    LibrarySet,
    Page,
    PinOffsets,
    Port,
    Schematic,
    Symbol,
    TextLabel,
    Wire,
    WireIndex,
)
from cadinterop.schematic.propertymap import PropertyRuleSet, RuleMatches
from cadinterop.schematic.ripup import BatchReplacementReport, replace_component
from cadinterop.schematic.symbolmap import SymbolKey, SymbolMap, SymbolMapping
from cadinterop.schematic.text import TextAdjustReport, adjust_labels
from cadinterop.schematic.verify import VerificationResult, verify_migration

#: Version tag of the pipeline's *semantics*.  It participates in every
#: farm cache key, so bump it whenever a stage's behavior changes in a way
#: that should invalidate previously cached migration results.
PIPELINE_VERSION = "1"

#: The eight Section 2 stages, in execution order.  Each runs under a
#: ``migrate:<stage>`` span and feeds the ``stage.seconds[<stage>]`` and
#: ``stage.items[<stage>]`` metrics (verification only when the plan asks
#: for it).
PIPELINE_STAGES = (
    "scaling",
    "replacement",
    "properties",
    "globals",
    "bus-syntax",
    "connectors",
    "text",
    "verification",
)


@dataclass
class MigrationPlan:
    """Everything a migration run needs, assembled up front.

    ``symbol_map`` origin offsets and rotations are expressed in *target*
    units (they are applied after scaling).
    """

    source_dialect: Dialect
    target_dialect: Dialect
    source_libraries: LibrarySet
    target_libraries: LibrarySet
    symbol_map: SymbolMap = field(default_factory=SymbolMap)
    property_rules: PropertyRuleSet = field(default_factory=PropertyRuleSet)
    global_map: GlobalMap = field(default_factory=GlobalMap)
    verify: bool = True
    replacement_strategy: str = "minimal"

    def validate(self) -> IssueLog:
        """Pre-flight validation of the mapping tables against libraries."""
        log = self.symbol_map.validate(self.source_libraries, self.target_libraries)
        names = self.target_dialect.connectors
        for symbol_name in (
            names.hier_in, names.hier_out, names.hier_inout, names.offpage,
        ):
            if not self.target_libraries.has(names.library, symbol_name):
                log.add(
                    Severity.ERROR, Category.STRUCTURE_MAPPING,
                    f"{names.library}/{symbol_name}",
                    "target connector symbol missing from target libraries",
                    remedy="install the native connector library before migrating",
                )
        return log


@dataclass
class MigrationResult:
    """The translated schematic plus full accounting."""

    schematic: Schematic
    log: IssueLog
    scaling: ScalingReport
    replacements: BatchReplacementReport
    connectors: ConnectorReport
    text: TextAdjustReport
    bus_renames: Dict[str, str]
    verification: Optional[VerificationResult] = None

    @property
    def clean(self) -> bool:
        """True when nothing needs manual post-translation cleanup."""
        verified = self.verification.equivalent if self.verification else True
        return verified and not self.log.has_errors()


def copy_schematic(schematic: Schematic) -> Schematic:
    """Deep-copy a schematic cell (symbol masters are shared, geometry not)."""
    clone = Schematic(
        schematic.name,
        schematic.dialect,
        ports=[Port(port.name, port.direction) for port in schematic.ports],
        properties=schematic.properties.copy(),
    )
    for page in schematic.pages:
        new_page = clone.add_page(page.frame)
        new_page.add_instances(
            Instance(
                name=instance.name,
                symbol=instance.symbol,
                transform=instance.transform,
                properties=instance.properties.copy(),
            )
            for instance in page.instances
        )
        for wire in page.wires:
            new_page.add_wire(
                Wire(list(wire.points), label=wire.label, label_position=wire.label_position)
            )
        for label in page.labels:
            new_page.add_label(
                TextLabel(
                    text=label.text,
                    position=label.position,
                    height=label.height,
                    width_per_char=label.width_per_char,
                    baseline_offset=label.baseline_offset,
                )
            )
    return clone


class Migrator:
    """Executes a :class:`MigrationPlan` on schematic cells."""

    def __init__(self, plan: MigrationPlan) -> None:
        self.plan = plan
        self._scaled_symbols: Dict[Tuple[str, str, str], Symbol] = {}

    def migrate(self, source: Schematic) -> MigrationResult:
        """Translate one schematic cell; the source object is not modified."""
        pair = f"{self.plan.source_dialect.name}->{self.plan.target_dialect.name}"
        with get_tracer().span("migrate", design=source.name) as span, \
                get_lineage().context(design=source.name, dialect=pair):
            result = self._migrate(source)
            span.set(clean=result.clean)
            return result

    def _migrate(self, source: Schematic) -> MigrationResult:
        plan = self.plan
        log = IssueLog()
        preflight = plan.validate()
        log.merge(preflight)

        working = copy_schematic(source)

        # Fold global rules into the symbol map (idempotent).
        plan.global_map.extend_symbol_map(plan.symbol_map)

        # Each symbol master's key and mapping, looked up once per call.
        # Every master outlives the call (held by the source, the
        # scaled-master table or the target libraries), so no id is reused
        # while the table stands.
        masters: Dict[int, Tuple[SymbolKey, Optional[SymbolMapping]]] = {}

        def master(symbol: Symbol) -> Tuple[SymbolKey, Optional[SymbolMapping]]:
            known = masters.get(id(symbol))
            if known is None:
                key = SymbolKey.of(symbol)
                known = masters[id(symbol)] = (key, plan.symbol_map.lookup(key))
            return known

        with StageSpan("scaling", "migrate:scaling") as stage:
            # Step 1: scaling.
            scaling = rescale_schematic(working, plan.source_dialect, plan.target_dialect, log)
            factor = scaling.factor
            # Every instance switches to a scaled master so its pins track the
            # scaled wires; mapped instances are then swapped for native target
            # masters in step 2 (rip-up works against the scaled positions).
            for page in working.pages:
                for instance in page.instances:
                    _key, mapped = master(instance.symbol)
                    instance.symbol = self._scaled_symbol(instance.symbol, factor)
                    if mapped is None:
                        log.add(
                            Severity.NOTE, Category.SCALING, instance.name,
                            f"no replacement mapping for {instance.symbol.full_name}; "
                            "symbol geometry scaled in place",
                            remedy="add a symbol map entry to use a native target master",
                        )
                        get_lineage().record(
                            "instance", instance.name, "scaling", "preserved",
                            detail=f"{instance.symbol.full_name} scaled in place "
                            "(no replacement mapping)",
                        )
            stage.items = scaling.points_scaled

        with StageSpan("replacement", "migrate:replacement") as stage:
            # Step 2: component replacement with minimal rip-up.
            replacements = BatchReplacementReport()
            pins = PinOffsets()
            lineage = get_lineage()
            # Mapping (by id; the plan holds it) -> its resolved target master.
            targets: Dict[int, Symbol] = {}
            for page in working.pages:
                # One index per page, kept current by every replacement on it.
                index = WireIndex(page.wires)
                # Each replacement moves its instance to the end of the list,
                # so walk the instances as they stood before the first one.
                for instance in list(page.instances):
                    _key, mapping = master(instance.symbol)
                    if mapping is None:
                        continue
                    target_symbol = targets.get(id(mapping))
                    if target_symbol is None:
                        target_symbol = targets[id(mapping)] = plan.target_libraries.resolve(
                            mapping.target.library, mapping.target.name, mapping.target.view
                        )
                    stats = replace_component(
                        page, instance.name, mapping, target_symbol, log,
                        strategy=plan.replacement_strategy, index=index, pins=pins,
                    )
                    replacements.add(stats)
                    if lineage.enabled:  # skip rendering the detail otherwise
                        lineage.record(
                            "instance", instance.name, "replacement", "transformed",
                            detail=f"{mapping.source} -> {mapping.target}",
                        )
            stage.items = replacements.replacements

        with StageSpan("properties", "migrate:properties") as stage:
            # Step 3: property mapping (declarative rules + a/L callbacks).
            # Design-level callbacks run first: they can see every page.
            plan.property_rules.apply_to_design(
                working, log, context={"cell": working.name}
            )
            matches: Dict[SymbolKey, RuleMatches] = {}
            for page in working.pages:
                for instance in page.instances:
                    plan.property_rules.apply_to_instance(
                        instance,
                        master(instance.symbol)[0],
                        log,
                        context={"page": page.number, "cell": working.name},
                        matches=matches,
                    )
                    stage.items += 1

        with StageSpan("globals", "migrate:globals") as stage:
            # Step 4: global net renaming to native conventions.
            stage.items = rename_global_nets(working, plan.global_map, log)

        with StageSpan("bus-syntax", "migrate:bus-syntax") as stage:
            # Step 5: bus syntax translation on all wire labels.
            bus_renames: Dict[str, str] = {}
            all_labels = [
                wire.label for _page, wire in working.all_wires() if wire.label
            ]
            declared = declared_buses_of(all_labels, plan.source_dialect.bus_syntax)
            for _page, wire in working.all_wires():
                if not wire.label:
                    continue
                stage.items += 1
                translated, _rules = translate_net_name(
                    wire.label,
                    plan.source_dialect.bus_syntax,
                    plan.target_dialect.bus_syntax,
                    declared,
                    log,
                )
                if translated != wire.label:
                    get_lineage().record(
                        "net", wire.label, "bus-syntax", "transformed",
                        detail=f"{wire.label} -> {translated}",
                    )
                    bus_renames[wire.label] = translated
                    wire.label = translated
                else:
                    get_lineage().record(
                        "net", wire.label, "bus-syntax", "preserved"
                    )
            # Port names obey the same grammar and must stay in sync with the
            # labels of the nets they bind to.
            for port in working.ports:
                stage.items += 1
                translated, _rules = translate_net_name(
                    port.name,
                    plan.source_dialect.bus_syntax,
                    plan.target_dialect.bus_syntax,
                    declared,
                    log,
                )
                if translated != port.name:
                    get_lineage().record(
                        "port", port.name, "bus-syntax", "transformed",
                        detail=f"{port.name} -> {translated}",
                    )
                    bus_renames[port.name] = translated
                    port.name = translated
                else:
                    get_lineage().record(
                        "port", port.name, "bus-syntax", "preserved"
                    )

        with StageSpan("connectors", "migrate:connectors") as stage:
            # Step 6: connector synthesis where the target dialect demands it.
            connector_report = ConnectorReport()
            if (
                plan.target_dialect.requires_offpage_connectors
                and plan.source_dialect.implicit_cross_page_by_name
            ):
                insert_offpage_connectors(
                    working, plan.target_dialect, plan.target_libraries, log, connector_report
                )
            if plan.target_dialect.requires_hier_connectors and working.ports:
                insert_hierarchy_connectors(
                    working, plan.target_dialect, plan.target_libraries, log, connector_report
                )
            stage.items = connector_report.offpage_added + connector_report.hierarchy_added
            # Connectors exist only because the target dialect demands
            # explicit cross-page / hierarchy markers: pure synthesis.
            for index in range(connector_report.offpage_added):
                get_lineage().record(
                    "connector", f"offpage#{index + 1}", "connectors",
                    "synthesized", detail="off-page connector for implicit cross-page net",
                )
            for index in range(connector_report.hierarchy_added):
                get_lineage().record(
                    "connector", f"hier#{index + 1}", "connectors",
                    "synthesized", detail="hierarchy connector for port",
                )

        with StageSpan("text", "migrate:text") as stage:
            # Step 7: cosmetic text adjustment.
            text_report = adjust_labels(working, plan.source_dialect, plan.target_dialect, log)
            stage.items = text_report.labels_adjusted

        working.dialect = plan.target_dialect.name

        # Step 8: independent verification.
        verification: Optional[VerificationResult] = None
        if plan.verify:
            with StageSpan("verification", "migrate:verification") as stage:
                verification = verify_migration(
                    source, working, plan.symbol_map, plan.global_map
                )
                log.merge(verification.log)
                stage.items = verification.source_nets

        return MigrationResult(
            schematic=working,
            log=log,
            scaling=scaling,
            replacements=replacements,
            connectors=connector_report,
            text=text_report,
            bus_renames=bus_renames,
            verification=verification,
        )

    def _scaled_symbol(self, symbol: Symbol, factor) -> Symbol:
        key = (symbol.library, symbol.name, symbol.view)
        if key not in self._scaled_symbols:
            self._scaled_symbols[key] = scale_symbol(symbol, factor)
        return self._scaled_symbols[key]


# ---------------------------------------------------------------------------
# Deterministic content digests
#
# The farm's result cache is keyed on (schematic digest, plan digest,
# PIPELINE_VERSION): any content edit to a design or any change to a plan
# table must, and does, produce a different key.  The canonical forms below
# are plain nested tuples of primitives hashed through SHA-256 — no id()s,
# no dict-ordering surprises (order-free tables are sorted; drawing order is
# kept, since reordering a file is an edit worth re-migrating).
# ---------------------------------------------------------------------------


def _canon_properties(bag) -> Tuple:
    return tuple((prop.name, prop.value, prop.visible) for prop in bag)


def _canon_symbol(symbol: Symbol) -> Tuple:
    return (
        symbol.library,
        symbol.name,
        symbol.view,
        symbol.kind,
        (symbol.body.x1, symbol.body.y1, symbol.body.x2, symbol.body.y2),
        tuple(
            (pin.name, pin.position.x, pin.position.y, pin.direction)
            for pin in symbol.pins
        ),
        _canon_properties(symbol.properties),
    )


class _Rendered(str):
    """A canonical form already rendered: its ``repr`` is the text itself,
    so a tuple holding it renders exactly as if it held the form."""

    __slots__ = ()
    __repr__ = str.__str__


def _canon_schematic(schematic: Schematic) -> Tuple:
    # Instances share a few symbol masters: render each master's canonical
    # form once and splice the text in (the bytes hashed are unchanged).
    masters: Dict[int, _Rendered] = {}

    def master(symbol: Symbol) -> _Rendered:
        rendered = masters.get(id(symbol))
        if rendered is None:
            rendered = masters[id(symbol)] = _Rendered(repr(_canon_symbol(symbol)))
        return rendered

    pages = []
    for page in schematic.pages:
        pages.append(
            (
                page.number,
                (page.frame.x1, page.frame.y1, page.frame.x2, page.frame.y2),
                tuple(
                    (
                        instance.name,
                        master(instance.symbol),
                        (*instance.transform.offset, instance.transform.orientation.value),
                        _canon_properties(instance.properties),
                    )
                    for instance in page.instances
                ),
                tuple(
                    (
                        tuple(map(tuple, wire.points)),
                        wire.label,
                        tuple(wire.label_position) if wire.label_position else None,
                    )
                    for wire in page.wires
                ),
                tuple(
                    (
                        label.text,
                        tuple(label.position),
                        label.height,
                        label.width_per_char,
                        label.baseline_offset,
                    )
                    for label in page.labels
                ),
            )
        )
    return (
        schematic.name,
        schematic.dialect,
        tuple((port.name, port.direction) for port in schematic.ports),
        _canon_properties(schematic.properties),
        tuple(pages),
    )


def _canon_libraries(libraries: LibrarySet) -> Tuple:
    return tuple(
        (
            library.name,
            tuple(
                _canon_symbol(symbol)
                for symbol in sorted(
                    library.symbols(), key=lambda s: (s.name, s.view)
                )
            ),
        )
        for library in sorted(libraries.libraries(), key=lambda l: l.name)
    )


def _canon_symbol_mapping(mapping) -> Tuple:
    return (
        str(mapping.source),
        str(mapping.target),
        (mapping.origin_offset.x, mapping.origin_offset.y),
        mapping.rotation.value,
        tuple(sorted(mapping.pin_map.items())),
    )


def _canon_plan(plan: MigrationPlan) -> Tuple:
    # Digest the *effective* symbol map: migrate() idempotently folds global
    # rules into plan.symbol_map, so hashing the folded form keeps the plan
    # digest stable whether or not a migration has already run.
    effective = {
        str(mapping.source): _canon_symbol_mapping(mapping)
        for mapping in plan.symbol_map
    }
    for mapping in plan.global_map.as_symbol_mappings():
        effective.setdefault(str(mapping.source), _canon_symbol_mapping(mapping))
    return (
        repr(plan.source_dialect),
        repr(plan.target_dialect),
        _canon_libraries(plan.source_libraries),
        _canon_libraries(plan.target_libraries),
        tuple(value for _key, value in sorted(effective.items())),
        tuple(repr(rule) for rule in plan.property_rules.rules),
        tuple(repr(callback) for callback in plan.property_rules.callbacks),
        tuple(repr(callback) for callback in plan.property_rules.design_callbacks),
        tuple(repr(rule) for rule in plan.global_map.rules),
        plan.verify,
        plan.replacement_strategy,
    )


def _sha256(canon: Tuple) -> str:
    return hashlib.sha256(repr(canon).encode("utf-8")).hexdigest()


def schematic_digest(schematic: Schematic) -> str:
    """Content hash of one schematic cell: any edit changes it."""
    return _sha256(_canon_schematic(schematic))


def plan_digest(plan: MigrationPlan) -> str:
    """Content hash of a migration plan: any table or flag change changes it."""
    return _sha256(_canon_plan(plan))
