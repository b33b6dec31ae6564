"""The end-to-end analysis pipeline and the reader's checklist.

The abstract promises: "Using this paper, the reader can develop a
checklist of potential interoperability issues in his CAD environment, and
address these issues before they cause a design schedule slip."

:func:`analyze_environment` runs the full Section 6 pipeline — prune the
methodology by a scenario, map tasks to the tool catalog, build the flow
diagrams, detect the five classic problems — and
:func:`environment_checklist` renders it all as that checklist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from cadinterop.common.diagnostics import Category, IssueLog, Severity, render_checklist
from cadinterop.core.analysis import AnalysisReport, analyze
from cadinterop.core.flows import FlowDiagram, build_flow_diagram
from cadinterop.core.mapping import TaskToolMap, map_tasks_to_tools
from cadinterop.core.scenarios import PruningReport, Scenario, prune_report
from cadinterop.core.tasks import TaskGraph
from cadinterop.core.toolmodel import ToolCatalog


@dataclass
class EnvironmentAnalysis:
    """Everything the pipeline produced for one scenario."""

    scenario: Scenario
    pruned_graph: TaskGraph
    pruning: PruningReport
    mapping: TaskToolMap
    diagram: FlowDiagram
    report: AnalysisReport

    @property
    def log(self) -> IssueLog:
        return self.report.log

    def summary(self) -> str:
        counts = self.report.problem_counts()
        problem_text = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
        return (
            f"scenario {self.scenario.name!r}: "
            f"{self.pruning.tasks_after}/{self.pruning.tasks_before} tasks kept, "
            f"{len(self.mapping.holes)} holes, {len(self.mapping.overlaps)} overlaps, "
            f"{len(self.report.findings)} classic-problem findings "
            f"({problem_text or 'none'}), "
            f"conversion cost {self.report.conversion_cost:.1f}"
        )


def analyze_environment(
    graph: TaskGraph,
    catalog: ToolCatalog,
    scenario: Scenario,
    prefer_tools: Optional[Sequence[str]] = None,
) -> EnvironmentAnalysis:
    """Run specification -> analysis for one scenario and tool set."""
    pruned, pruning = prune_report(graph, scenario)
    mapping = map_tasks_to_tools(
        pruned, catalog, scenario.name,
        prefer=list(scenario.mandated_tools) + list(prefer_tools or []),
    )
    diagram = build_flow_diagram(pruned, mapping, catalog)
    report = analyze(diagram)

    # Fold mapping holes into the log so the checklist is complete.
    for hole in mapping.holes:
        report.log.add(
            Severity.ERROR, Category.FEATURE_GAP, hole,
            "no tool in the environment implements this task",
            remedy="buy/build a tool, or restructure the methodology",
        )
    for task_name, tools in mapping.overlaps.items():
        report.log.add(
            Severity.NOTE, Category.ENVIRONMENT, task_name,
            f"multiple tools implement this task: {tools}",
            remedy="pick one per scenario to avoid divergent results",
        )
    return EnvironmentAnalysis(
        scenario=scenario,
        pruned_graph=pruned,
        pruning=pruning,
        mapping=mapping,
        diagram=diagram,
        report=report,
    )


def environment_checklist(analysis: EnvironmentAnalysis) -> str:
    """Render the analysis as the paper's promised checklist."""
    title = (
        f"CAD interoperability checklist — scenario {analysis.scenario.name!r}"
    )
    return render_checklist(analysis.log, title=title)
