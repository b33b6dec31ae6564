"""System optimization: the three improvement levers (Section 6).

"There are three ways of improving this performance.  The first way is to
repartition the boundaries of tools...  by peeling back the tool's general
purpose interface, there is typically a level where a lower overhead
interchange of data and control can take place.  The second type of
improvement comes from improvements in data interoperability...  things
like internal naming conventions, bus usage conventions, etc.  The final
type of improvement is through technological innovation.  This is where
new technologies (such as formal logic verification) replace a large
number of tasks with a single task in the overall flow."

Each lever is a transformation over the analysis inputs, so its benefit is
measured the same way the problem was: re-run the analysis and compare.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Set

from cadinterop.core.analysis import AnalysisReport, analyze
from cadinterop.core.flows import build_flow_diagram
from cadinterop.core.mapping import map_tasks_to_tools
from cadinterop.core.tasks import MethodologyError, Task, TaskGraph
from cadinterop.core.toolmodel import ToolCatalog, ToolModel


@dataclass
class OptimizationDelta:
    """Before/after comparison of one optimization lever."""

    lever: str
    description: str
    findings_before: int
    findings_after: int
    cost_before: float
    cost_after: float

    @property
    def findings_removed(self) -> int:
        return self.findings_before - self.findings_after

    @property
    def improved(self) -> bool:
        return (
            self.findings_after < self.findings_before
            or self.cost_after < self.cost_before
        )


def _measure(graph: TaskGraph, catalog: ToolCatalog, scenario: str) -> AnalysisReport:
    mapping = map_tasks_to_tools(graph, catalog, scenario)
    diagram = build_flow_diagram(graph, mapping, catalog)
    return analyze(diagram)


# ---------------------------------------------------------------------------
# Lever 1: repartition tool boundaries
# ---------------------------------------------------------------------------


def repartition_boundary(
    catalog: ToolCatalog,
    producer_tool: str,
    consumer_tool: str,
    info: str,
    channel_name: str = "direct",
) -> ToolCatalog:
    """Peel back the general-purpose interface between two tools.

    Models a vendor-level integration: the consumer learns to read the
    producer's native representation for ``info`` directly (persistence,
    structure, and namespace all aligned to the producer's side), so the
    edge stops needing translation.  Only vendors (or owners of internal
    tools) can do this — which is why it is a separate lever.
    """
    producer = catalog.tool(producer_tool)
    consumer = catalog.tool(consumer_tool)
    out_port = producer.port_for(info, "out")
    in_port = consumer.port_for(info, "in")
    if out_port is None or in_port is None:
        raise MethodologyError(
            f"cannot repartition: {info!r} is not modelled on both tools"
        )
    new_catalog = ToolCatalog()
    for tool in catalog.tools():
        if tool.name != consumer_tool:
            new_catalog.add(tool)
            continue
        new_ports = [
            replace(
                port,
                persistence=out_port.persistence,
                structure=out_port.structure,
                namespace=out_port.namespace,
                semantics=out_port.semantics,
            )
            if port.info == info and port.direction == "in"
            else port
            for port in tool.data_ports
        ]
        new_catalog.add(
            ToolModel(
                name=tool.name,
                function=tool.function + f" (+{channel_name} link to {producer_tool})",
                data_ports=new_ports,
                control=list(tool.control),
                implements_tasks=set(tool.implements_tasks),
                performance=dict(tool.performance),
                vendor=tool.vendor,
            )
        )
    return new_catalog


# ---------------------------------------------------------------------------
# Lever 2: data interoperability conventions
# ---------------------------------------------------------------------------


def apply_conventions(
    catalog: ToolCatalog,
    namespace: Optional[str] = None,
    semantics: Optional[str] = None,
) -> ToolCatalog:
    """Adopt flow-wide conventions (naming, bus usage).

    Modelled as aligning the ``namespace`` (and optionally ``semantics``)
    classification of every data port to the agreed convention — what a
    project does when it writes "internal naming conventions, bus usage
    conventions, etc." into its methodology documents.
    """
    new_catalog = ToolCatalog()
    for tool in catalog.tools():
        new_ports = [
            replace(
                port,
                namespace=namespace if namespace is not None else port.namespace,
                semantics=semantics if semantics is not None else port.semantics,
            )
            for port in tool.data_ports
        ]
        new_catalog.add(
            ToolModel(
                name=tool.name,
                function=tool.function,
                data_ports=new_ports,
                control=list(tool.control),
                implements_tasks=set(tool.implements_tasks),
                performance=dict(tool.performance),
                vendor=tool.vendor,
            )
        )
    return new_catalog


# ---------------------------------------------------------------------------
# Lever 3: technology substitution
# ---------------------------------------------------------------------------


def substitute_technology(
    graph: TaskGraph,
    replaced_tasks: Sequence[str],
    replacement: Task,
) -> TaskGraph:
    """Replace N tasks with one (e.g. formal verification for regression).

    The replacement must cover the replaced tasks' external interface: it
    may consume any of their inputs and must produce every output the rest
    of the flow consumed from them.
    """
    replaced = set(replaced_tasks)
    for name in replaced:
        graph.task(name)  # existence check
    survivors = [t for t in graph.tasks() if t.name not in replaced]

    # Outputs of the replaced set still consumed elsewhere must be covered.
    replaced_outputs: Set[str] = set()
    for name in replaced:
        replaced_outputs |= graph.task(name).outputs
    still_needed = {
        info
        for info in replaced_outputs
        if any(info in t.inputs for t in survivors)
    }
    uncovered = still_needed - replacement.outputs
    if uncovered:
        raise MethodologyError(
            f"replacement task does not produce {sorted(uncovered)} still "
            "needed by the remaining flow"
        )

    new_graph = TaskGraph(graph.name + "+subst")
    for survivor in survivors:
        new_graph.add_task(survivor)
    new_graph.add_task(replacement)
    for info_name, item in graph.info_items.items():
        if any(info_name in t.inputs | t.outputs for t in new_graph.tasks()):
            new_graph.add_info(item)
    return new_graph


# ---------------------------------------------------------------------------
# Measurement harness
# ---------------------------------------------------------------------------


def measure_lever(
    lever: str,
    description: str,
    graph_before: TaskGraph,
    catalog_before: ToolCatalog,
    graph_after: TaskGraph,
    catalog_after: ToolCatalog,
    scenario: str = "optimization",
) -> OptimizationDelta:
    """Quantify one lever by re-running the classic-problem analysis."""
    before = _measure(graph_before, catalog_before, scenario)
    after = _measure(graph_after, catalog_after, scenario)
    return OptimizationDelta(
        lever=lever,
        description=description,
        findings_before=len(before.findings),
        findings_after=len(after.findings),
        cost_before=before.conversion_cost,
        cost_after=after.conversion_cost,
    )
