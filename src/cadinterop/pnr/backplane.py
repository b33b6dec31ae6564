"""The P&R backplane: convey floorplan intent to heterogeneous tools.

Section 4: "High Level Design Systems provides the designer with multiple
levels of floorplanning capabilities which can drive directly into a place
and route backplane...  HLD's P&R backplane is the best attempt to at least
map the semantics and controls from one tool to the next.  Though HLD's
P&R backplane conveys as much as possible to the various P&R tools, each
tool requires a specific set of constraints."

:func:`convey` maps the neutral floorplan + cell library onto one tool
dialect, producing a :class:`ToolInput` (the translated constraint payload)
plus an :class:`~cadinterop.common.diagnostics.IssueLog` entry for every
piece of intent the target cannot express.  :func:`run_flow` then executes
placement + routing honoring exactly what survived, so the *cost* of each
dialect's gaps is measurable (routing success, wirelength, coupling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.common.geometry import Point
from cadinterop.obs import get_lineage, get_tracer
from cadinterop.pnr.cells import CellLibrary, effective_access
from cadinterop.pnr.design import PnRDesign
from cadinterop.pnr.dialects import PnRDialect
from cadinterop.pnr.floorplan import Floorplan, NetRule
from cadinterop.pnr.parasitics import ParasiticReport, extract
from cadinterop.pnr.placement import PlacementResult, RowPlacer
from cadinterop.pnr.routing import GridRouter, RoutingResult
from cadinterop.pnr.tech import Technology


@dataclass
class ToolInput:
    """The constraint payload actually delivered to one tool."""

    tool: str
    pin_access: Dict[Tuple[str, str], FrozenSet[str]] = field(default_factory=dict)
    connection_properties: Dict[Tuple[str, str], Dict[str, object]] = field(default_factory=dict)
    external_connection_file: Optional[str] = None
    floorplan_directives: List[str] = field(default_factory=list)
    net_rules: Dict[str, NetRule] = field(default_factory=dict)
    honored_rule_features: Set[str] = field(default_factory=set)
    dropped: List[str] = field(default_factory=list)


def _strategy_feature(style: str) -> str:
    return {"ring": "power-ring", "trunk": "power-trunk", "spine": "clock-spine"}[style]


def convey(
    floorplan: Floorplan,
    library: CellLibrary,
    dialect: PnRDialect,
    log: Optional[IssueLog] = None,
) -> ToolInput:
    """Translate the neutral model into one tool's input, logging losses."""
    log = log if log is not None else IssueLog()
    payload = ToolInput(tool=dialect.name)
    lineage = get_lineage()

    # --- pin access conventions -----------------------------------------
    for cell in library.cells():
        for pin in cell.pins:
            access = effective_access(cell, pin.name, dialect.pin_access_mode)
            payload.pin_access[(cell.name, pin.name)] = access
            if (
                dialect.pin_access_mode == "derived"
                and pin.props.access is not None
                and access != pin.props.access
            ):
                log.add(
                    Severity.WARNING, Category.SEMANTICS, f"{cell.name}.{pin.name}",
                    f"tool derives access {sorted(access)} from blockages, "
                    f"ignoring the declared property {sorted(pin.props.access)}",
                    tool=dialect.name,
                    remedy="adjust blockage geometry so derivation matches intent",
                )
                lineage.record(
                    "pin-access", f"{cell.name}.{pin.name}", "pnr:convey",
                    "approximated",
                    detail=f"derived {sorted(access)} != declared "
                    f"{sorted(pin.props.access)}",
                    dialect=dialect.name,
                )

    # --- connection properties --------------------------------------------
    external_lines: List[str] = []
    for cell in library.cells():
        for pin in cell.pins:
            props = pin.props
            present = {
                "multiple-connect": props.multiple_connect,
                "equivalent-connect": props.equivalent_group is not None,
                "must-connect": props.must_connect,
                "connect-by-abutment": props.connect_by_abutment,
            }
            used = {tag for tag, on in present.items() if on}
            supported = used & dialect.supported_connection_features
            for tag in sorted(used - supported):
                payload.dropped.append(f"connection:{tag}:{cell.name}.{pin.name}")
                log.add(
                    Severity.ERROR, Category.FEATURE_GAP, f"{cell.name}.{pin.name}",
                    f"connection property {tag!r} has no support in {dialect.name}",
                    tool=dialect.name,
                    remedy="enforce the property with a manual check after routing",
                )
                lineage.record(
                    "intent", f"connection:{tag}:{cell.name}.{pin.name}",
                    "pnr:convey", "dropped",
                    detail=f"no support in {dialect.name}", dialect=dialect.name,
                )
            for tag in sorted(supported):
                lineage.record(
                    "intent", f"connection:{tag}:{cell.name}.{pin.name}",
                    "pnr:convey", "preserved", dialect=dialect.name,
                )
            if not supported:
                continue
            if dialect.connection_type_mode == "inline":
                payload.connection_properties[(cell.name, pin.name)] = {
                    tag: True for tag in sorted(supported)
                }
                if props.equivalent_group and "equivalent-connect" in supported:
                    payload.connection_properties[(cell.name, pin.name)][
                        "equivalent-group"
                    ] = props.equivalent_group
            elif dialect.connection_type_mode == "external-file":
                for tag in sorted(supported):
                    external_lines.append(f"{cell.name} {pin.name} {tag}")
            else:  # unsupported mode but feature set nonempty cannot happen
                pass
    if external_lines:
        payload.external_connection_file = "\n".join(external_lines) + "\n"
        log.add(
            Severity.NOTE, Category.TOOL_CONTROL, dialect.name,
            f"{len(external_lines)} connection properties moved to an external file",
            tool=dialect.name,
        )

    # --- floorplan directives -----------------------------------------------
    def want(feature: str, directive: str, subject: str) -> None:
        if feature in dialect.supported_floorplan_features:
            payload.floorplan_directives.append(directive)
            lineage.record(
                "intent", f"floorplan:{feature}:{subject}", "pnr:convey",
                "preserved", detail=directive, dialect=dialect.name,
            )
        else:
            payload.dropped.append(f"floorplan:{feature}:{subject}")
            log.add(
                Severity.WARNING, Category.FEATURE_GAP, subject,
                f"floorplan intent {feature!r} cannot be conveyed to {dialect.name}",
                tool=dialect.name,
                remedy="re-create the constraint inside the tool by hand",
            )
            lineage.record(
                "intent", f"floorplan:{feature}:{subject}", "pnr:convey",
                "dropped", detail=f"cannot be conveyed to {dialect.name}",
                dialect=dialect.name,
            )

    for block in floorplan.blocks.values():
        want(
            "block-aspect",
            f"block {block.name} area {block.area} aspect {block.aspect_ratio}",
            block.name,
        )
        for constraint in block.pin_constraints:
            feature = "literal-pin-location" if constraint.is_literal else "general-pin-edge"
            want(feature, f"blockpin {block.name}.{constraint.name} {constraint.edge}", constraint.name)
    for constraint in floorplan.pin_constraints:
        feature = "literal-pin-location" if constraint.is_literal else "general-pin-edge"
        where = f"{constraint.offset}" if constraint.is_literal else "mid"
        want(feature, f"diepin {constraint.name} {constraint.edge} {where}", constraint.name)
    for keepout in floorplan.keepouts:
        feature = "routing-keepout" if keepout.layers else "placement-keepout"
        want(feature, f"keepout {keepout.rect.x1} {keepout.rect.y1} "
                      f"{keepout.rect.x2} {keepout.rect.y2}", "keepout")
    for strategy in floorplan.strategies.values():
        want(
            _strategy_feature(strategy.style),
            f"global {strategy.net} {strategy.style} {strategy.layer} w{strategy.width}",
            strategy.net,
        )

    # --- per-net topology rules ------------------------------------------------
    payload.honored_rule_features = set(dialect.supported_net_rules)
    for rule in floorplan.net_rules.values():
        wanted = set()
        if rule.width_tracks > 1:
            wanted.add("width")
        if rule.spacing_tracks > 1:
            wanted.add("spacing")
        if rule.shield:
            wanted.add("shield")
        kept = wanted & dialect.supported_net_rules
        payload.net_rules[rule.net] = NetRule(
            rule.net,
            width_tracks=rule.width_tracks if "width" in kept else 1,
            spacing_tracks=rule.spacing_tracks if "spacing" in kept else 1,
            shield=rule.shield and "shield" in kept,
        )
        for tag in sorted(kept):
            lineage.record(
                "intent", f"netrule:{tag}:{rule.net}", "pnr:convey",
                "preserved", dialect=dialect.name,
            )
        for tag in sorted(wanted - kept):
            payload.dropped.append(f"netrule:{tag}:{rule.net}")
            log.add(
                Severity.ERROR, Category.FEATURE_GAP, rule.net,
                f"net topology control {tag!r} dropped for {dialect.name}",
                tool=dialect.name,
                remedy="expect coupling/current-density risk on this net",
            )
            lineage.record(
                "intent", f"netrule:{tag}:{rule.net}", "pnr:convey",
                "dropped", detail=f"no support in {dialect.name}",
                dialect=dialect.name,
            )
    return payload


@dataclass
class FlowResult:
    """Placement + routing + parasitics under one tool's conveyed input."""

    tool: str
    placement: PlacementResult
    routing: RoutingResult
    parasitics: ParasiticReport
    conveyance_log: IssueLog
    dropped: List[str]


def run_flow(
    tech: Technology,
    floorplan: Floorplan,
    library: CellLibrary,
    design: PnRDesign,
    dialect: PnRDialect,
    pad_positions: Optional[Dict[str, Point]] = None,
    seed: int = 1,
) -> FlowResult:
    """Convey constraints to a dialect, then place and route honoring only
    what survived.  The measurable deltas between dialects are the paper's
    interoperability cost."""
    with get_tracer().span(
        "pnr:flow", design=design.name, tool=dialect.name
    ) as span:
        log = IssueLog()
        payload = convey(floorplan, library, dialect, log)

        # Fresh copies of mutable placement state per run.
        for instance in design.instances.values():
            if instance.cell.kind == "stdcell":
                instance.location = None

        placer = RowPlacer(tech, floorplan, seed=seed)
        placement = placer.place(design, pad_positions)

        router = GridRouter(tech, floorplan, pad_positions)
        routing = router.route_design(
            design, honor_rules=True, honored_features=payload.honored_rule_features
        )
        parasitics = extract(tech, routing, router.occupancy)
        span.set(dropped=len(payload.dropped))
        return FlowResult(
            tool=dialect.name,
            placement=placement,
            routing=routing,
            parasitics=parasitics,
            conveyance_log=log,
            dropped=list(payload.dropped),
        )
