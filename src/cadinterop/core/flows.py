"""Data-flow and control-flow diagrams from the task/tool map (Section 6).

"Once models have been developed, then data flow and control flow diagrams
are created for the entire task/tool map.  These diagrams are then
analyzed."

A data-flow edge connects the tool chosen for a producing task to the tool
chosen for a consuming task, carrying the normalized info item and *both
tools' data-port classifications* — the raw material the classic-problem
analysis inspects.  Control-flow edges record how each tool can be driven
by the flow integrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from cadinterop.core.mapping import TaskToolMap
from cadinterop.core.tasks import TaskGraph
from cadinterop.core.toolmodel import DataPort, ToolCatalog, ToolModel


@dataclass(frozen=True)
class DataFlowEdge:
    """One info item flowing from a producing tool to a consuming tool."""

    info: str
    producer_task: str
    consumer_task: str
    producer_tool: str
    consumer_tool: str
    producer_port: Optional[DataPort]
    consumer_port: Optional[DataPort]

    @property
    def crosses_tools(self) -> bool:
        return self.producer_tool != self.consumer_tool


@dataclass(frozen=True)
class ControlFlowEdge:
    """The integration channel used to drive one tool for one task."""

    task: str
    tool: str
    kind: str  # chosen control interface kind, or "none"


@dataclass
class FlowDiagram:
    """The complete data/control-flow picture for one scenario."""

    scenario: str
    data_edges: List[DataFlowEdge] = field(default_factory=list)
    control_edges: List[ControlFlowEdge] = field(default_factory=list)
    unmapped_tasks: List[str] = field(default_factory=list)

    def cross_tool_edges(self) -> List[DataFlowEdge]:
        return [e for e in self.data_edges if e.crosses_tools]


def to_dot(diagram: "FlowDiagram", problems: Optional[Dict[Tuple[str, str], int]] = None) -> str:
    """Render the data-flow diagram as Graphviz DOT text.

    Tools become nodes; each cross-tool info flow becomes an edge labelled
    with the info item.  When ``problems`` maps (producer, consumer) pairs
    to finding counts (from the analysis), troubled edges are drawn bold
    red with the count — the picture Section 6 says gets analyzed.
    """
    problems = problems or {}
    lines = [f'digraph "{diagram.scenario}" {{', "  rankdir=LR;", '  node [shape=box];']
    tools = sorted(
        {e.producer_tool for e in diagram.data_edges}
        | {e.consumer_tool for e in diagram.data_edges}
    )
    for tool in tools:
        lines.append(f'  "{tool}";')
    seen: Set[Tuple[str, str, str]] = set()
    for edge in diagram.cross_tool_edges():
        key = (edge.producer_tool, edge.consumer_tool, edge.info)
        if key in seen:
            continue
        seen.add(key)
        count = problems.get((edge.producer_tool, edge.consumer_tool), 0)
        style = ' color=red penwidth=2' if count else ""
        label = edge.info + (f" [{count}!]" if count else "")
        lines.append(
            f'  "{edge.producer_tool}" -> "{edge.consumer_tool}" '
            f'[label="{label}"{style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


#: Integration channels a flow manager can use, in preference order.
INTEGRABLE_CONTROL_KINDS: Tuple[str, ...] = ("api", "rpc", "cli", "callback")


def build_flow_diagram(
    graph: TaskGraph,
    mapping: TaskToolMap,
    catalog: ToolCatalog,
) -> FlowDiagram:
    """Construct the diagrams for a task graph under a task/tool map."""
    diagram = FlowDiagram(scenario=mapping.scenario)

    chosen: Dict[str, Optional[str]] = {
        task_name: mapping.chosen_tool(task_name) for task_name in graph.task_names()
    }
    diagram.unmapped_tasks = sorted(
        task_name for task_name, tool in chosen.items() if tool is None
    )

    for producer_task, info, consumer_task in graph.edges():
        producer_tool = chosen.get(producer_task)
        consumer_tool = chosen.get(consumer_task)
        if producer_tool is None or consumer_tool is None:
            continue
        producer_model = catalog.tool(producer_tool)
        consumer_model = catalog.tool(consumer_tool)
        diagram.data_edges.append(
            DataFlowEdge(
                info=info,
                producer_task=producer_task,
                consumer_task=consumer_task,
                producer_tool=producer_tool,
                consumer_tool=consumer_tool,
                producer_port=producer_model.port_for(info, "out"),
                consumer_port=consumer_model.port_for(info, "in"),
            )
        )

    for task_name, tool_name in chosen.items():
        if tool_name is None:
            continue
        model = catalog.tool(tool_name)
        kind = "none"
        for preferred in INTEGRABLE_CONTROL_KINDS:
            if model.controllable_by([preferred]):
                kind = preferred
                break
        if kind == "none" and model.controllable_by(["gui"]):
            kind = "gui"
        diagram.control_edges.append(ControlFlowEdge(task_name, tool_name, kind))

    return diagram
