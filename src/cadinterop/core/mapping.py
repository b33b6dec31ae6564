"""Task-to-tool mapping: holes and overlaps (Section 6, system analysis).

"The first step in the analysis is to perform a task to tool mapping.
During this step each scenario is analyzed with a specific set of tools...
The result of this step is a mapping of tools to tasks.  Typically, this
is the first point where holes and overlaps of functionality are
identified."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from cadinterop.core.tasks import TaskGraph
from cadinterop.core.toolmodel import ToolCatalog, ToolModel


@dataclass
class TaskToolMap:
    """The mapping of tools to tasks for one scenario."""

    scenario: str
    assignments: Dict[str, List[str]] = field(default_factory=dict)  # task -> tools

    def chosen_tool(self, task_name: str) -> Optional[str]:
        tools = self.assignments.get(task_name, [])
        return tools[0] if tools else None

    @property
    def holes(self) -> List[str]:
        """Tasks no tool implements — functionality gaps."""
        return sorted(t for t, tools in self.assignments.items() if not tools)

    @property
    def overlaps(self) -> Dict[str, List[str]]:
        """Tasks more than one tool implements — redundancy/choice points."""
        return {
            t: tools
            for t, tools in self.assignments.items()
            if len(tools) > 1
        }

    @property
    def covered(self) -> List[str]:
        return sorted(t for t, tools in self.assignments.items() if tools)

    def coverage_ratio(self) -> float:
        if not self.assignments:
            return 0.0
        return len(self.covered) / len(self.assignments)

    def summary(self) -> str:
        return (
            f"{self.scenario}: {len(self.covered)}/{len(self.assignments)} tasks "
            f"covered, {len(self.holes)} holes, {len(self.overlaps)} overlaps"
        )


def map_tasks_to_tools(
    graph: TaskGraph,
    catalog: ToolCatalog,
    scenario_name: str = "default",
    prefer: Optional[Sequence[str]] = None,
) -> TaskToolMap:
    """Build the task/tool map for a (pruned) graph and a tool set.

    ``prefer`` orders tool names so mandated tools win overlaps: "a broad
    based CAD vendor may perform one analysis with only its tools and a
    second with key third party tools included".
    """
    preference = {name: index for index, name in enumerate(prefer or [])}
    mapping = TaskToolMap(scenario=scenario_name)
    for current in graph.tasks():
        tools = catalog.tools_implementing(current.name)
        names = sorted(
            (t.name for t in tools),
            key=lambda n: (preference.get(n, len(preference)), n),
        )
        mapping.assignments[current.name] = names
    return mapping


def compare_mappings(a: TaskToolMap, b: TaskToolMap) -> Dict[str, Tuple[Optional[str], Optional[str]]]:
    """Tasks whose chosen tool differs between two mappings."""
    tasks = set(a.assignments) | set(b.assignments)
    differences: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
    for task_name in tasks:
        chosen_a = a.chosen_tool(task_name)
        chosen_b = b.chosen_tool(task_name)
        if chosen_a != chosen_b:
            differences[task_name] = (chosen_a, chosen_b)
    return differences
