"""Flow-diagram analysis: the five classic interoperability problems.

Section 6: "In our experience, this analysis clearly identifies the
classic interoperability problems (performance, name mapping, structure
mapping, semantic interpretation errors, and tool control).  This level of
analysis is typically the most important for CAD organizations as they
typically have to deal with tools as black boxes that cannot be optimized
in and of themselves."

Detection rules, per cross-tool data edge (using the four-part data-port
classification):

* **performance** — persistence formats differ: a translation step (and
  its runtime/disk cost) is required;
* **name mapping** — namespaces differ: identifiers must be mapped and
  mapped *back*;
* **structure mapping** — structural models differ (hierarchical vs flat,
  implicit vs explicit connectivity);
* **semantic interpretation** — behavioral-semantics conventions differ
  (event ordering, value sets, sensitivity interpretation);
* **tool control** — a tool in the flow offers no integration channel the
  flow manager can drive (GUI-only), or a port is simply missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.core.flows import DataFlowEdge, FlowDiagram

#: Translation cost charged when two tools disagree on persistence.
CONVERSION_COST = 1.0
#: Extra cost when semantics also differ (translation must re-interpret).
SEMANTIC_COST = 2.0


@dataclass
class Finding:
    """One classic problem on one edge (or tool)."""

    problem: str  # performance / name-mapping / structure-mapping / semantics / tool-control
    info: str
    producer_tool: str
    consumer_tool: str
    detail: str

    PROBLEMS = (
        "performance",
        "name-mapping",
        "structure-mapping",
        "semantics",
        "tool-control",
    )


_CATEGORY_FOR = {
    "performance": Category.PERFORMANCE,
    "name-mapping": Category.NAME_MAPPING,
    "structure-mapping": Category.STRUCTURE_MAPPING,
    "semantics": Category.SEMANTICS,
    "tool-control": Category.TOOL_CONTROL,
}


@dataclass
class AnalysisReport:
    """All findings for one scenario's flow diagram."""

    scenario: str
    findings: List[Finding] = field(default_factory=list)
    log: IssueLog = field(default_factory=IssueLog)
    conversion_cost: float = 0.0

    def problem_counts(self) -> Dict[str, int]:
        counts = {problem: 0 for problem in Finding.PROBLEMS}
        for finding in self.findings:
            counts[finding.problem] += 1
        return counts

    def worst_tool_pair(self) -> Optional[Tuple[str, str, int]]:
        pairs: Dict[Tuple[str, str], int] = {}
        for finding in self.findings:
            key = (finding.producer_tool, finding.consumer_tool)
            pairs[key] = pairs.get(key, 0) + 1
        if not pairs:
            return None
        (producer, consumer), count = max(pairs.items(), key=lambda kv: kv[1])
        return producer, consumer, count


def _record(report: AnalysisReport, finding: Finding, remedy: str) -> None:
    report.findings.append(finding)
    report.log.add(
        Severity.WARNING if finding.problem != "tool-control" else Severity.ERROR,
        _CATEGORY_FOR[finding.problem],
        finding.info,
        f"{finding.producer_tool} -> {finding.consumer_tool}: {finding.detail}",
        remedy=remedy,
    )


def analyze_edge(edge: DataFlowEdge, report: AnalysisReport) -> None:
    """Apply the classic-problem rules to one cross-tool edge."""
    if not edge.crosses_tools:
        return
    if edge.producer_port is None or edge.consumer_port is None:
        missing_side = edge.producer_tool if edge.producer_port is None else edge.consumer_tool
        _record(
            report,
            Finding(
                "tool-control", edge.info, edge.producer_tool, edge.consumer_tool,
                f"{missing_side} has no modelled port for {edge.info!r}",
            ),
            "extend the tool model or use a different tool for the task",
        )
        return

    produced, consumed = edge.producer_port, edge.consumer_port
    if produced.persistence != consumed.persistence:
        _record(
            report,
            Finding(
                "performance", edge.info, edge.producer_tool, edge.consumer_tool,
                f"format translation {produced.persistence} -> {consumed.persistence}",
            ),
            "insert a translator; budget runtime and disk for it",
        )
        report.conversion_cost += CONVERSION_COST
    if produced.namespace != consumed.namespace:
        _record(
            report,
            Finding(
                "name-mapping", edge.info, edge.producer_tool, edge.consumer_tool,
                f"namespace {produced.namespace} vs {consumed.namespace}",
            ),
            "define a reversible name map; audit scripts that use old names",
        )
    if produced.structure != consumed.structure:
        _record(
            report,
            Finding(
                "structure-mapping", edge.info, edge.producer_tool, edge.consumer_tool,
                f"structure {produced.structure} vs {consumed.structure}",
            ),
            "flatten/rebuild hierarchy or synthesize explicit connectivity",
        )
    if produced.semantics != consumed.semantics:
        _record(
            report,
            Finding(
                "semantics", edge.info, edge.producer_tool, edge.consumer_tool,
                f"semantics {produced.semantics} vs {consumed.semantics}",
            ),
            "verify behavior across the boundary; expect legitimate disagreement",
        )
        report.conversion_cost += SEMANTIC_COST


def analyze(diagram: FlowDiagram) -> AnalysisReport:
    """Analyze a whole flow diagram."""
    report = AnalysisReport(scenario=diagram.scenario)
    for edge in diagram.data_edges:
        analyze_edge(edge, report)
    for control in diagram.control_edges:
        if control.kind == "none":
            _record(
                report,
                Finding(
                    "tool-control", control.task, control.tool, control.tool,
                    "no integration channel at all",
                ),
                "wrap the tool or replace it",
            )
        elif control.kind == "gui":
            _record(
                report,
                Finding(
                    "tool-control", control.task, control.tool, control.tool,
                    "GUI-only: cannot be driven by the workflow manager",
                ),
                "request a batch interface from the vendor",
            )
    if diagram.unmapped_tasks:
        for task_name in diagram.unmapped_tasks:
            report.log.add(
                Severity.ERROR, Category.FEATURE_GAP, task_name,
                "no tool implements this task (functionality hole)",
                remedy="purchase/build a tool or restructure the methodology",
            )
    return report
