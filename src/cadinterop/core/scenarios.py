"""Scenarios: boundary conditions that prune the task graph (Section 6).

"After tasks have been specified, then a set of scenarios is defined.  A
scenario is a set of boundary conditions to be applied to the set of tasks
previously defined.  A scenario typically includes: end user profile (team
size, experience, etc.), tools that must be used (already purchased or
developed), and end user driving functions (product cost, size,
performance, and technology to be used)...  The purpose of the scenarios
is to prune the task graph, and reduce the number of interactions the
tasks have with each other to a practical subset."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from cadinterop.core.tasks import MethodologyError, TaskGraph


@dataclass(frozen=True)
class UserProfile:
    """Who will run the flow."""

    team_size: int
    experience: str  # "novice" / "mixed" / "expert"

    EXPERIENCE = ("novice", "mixed", "expert")

    def __post_init__(self) -> None:
        if self.team_size <= 0:
            raise MethodologyError("team size must be positive")
        if self.experience not in self.EXPERIENCE:
            raise MethodologyError(f"bad experience level {self.experience!r}")


@dataclass(frozen=True)
class DrivingFunctions:
    """What the end product optimizes for (1 = don't care .. 5 = critical)."""

    cost: int = 3
    size: int = 3
    performance: int = 3
    technology: str = "cell-based"

    def __post_init__(self) -> None:
        for value in (self.cost, self.size, self.performance):
            if not 1 <= value <= 5:
                raise MethodologyError("driving function weights are 1..5")


@dataclass(frozen=True)
class Scenario:
    """One unique context in which the CAD system will be used."""

    name: str
    profile: UserProfile
    driving: DrivingFunctions
    mandated_tools: Tuple[str, ...] = ()
    #: info items the scenario must ultimately deliver
    required_outputs: Tuple[str, ...] = ()
    #: task phases this scenario excludes entirely (e.g. no analog team)
    excluded_phases: Tuple[str, ...] = ()
    #: optional-task phases kept only when a driving function demands them
    performance_phases: Tuple[str, ...] = ()

    def keeps_performance_phases(self) -> bool:
        return self.driving.performance >= 4


def prune(graph: TaskGraph, scenario: Scenario) -> TaskGraph:
    """Apply a scenario's boundary conditions to the task graph.

    Pruning keeps the backward closure of the scenario's required outputs,
    drops excluded phases, and drops performance-only phases unless the
    driving functions demand them.  The result is the "practical subset" of
    task interactions.
    """
    if not scenario.required_outputs:
        raise MethodologyError(f"scenario {scenario.name!r} requires no outputs")
    missing = [
        output
        for output in scenario.required_outputs
        if not graph.producers_of(output)
    ]
    if missing:
        raise MethodologyError(
            f"scenario {scenario.name!r} requires outputs nobody produces: {missing}"
        )

    selected = graph.backward_closure(scenario.required_outputs)

    def keep(task_name: str) -> bool:
        current = graph.task(task_name)
        if current.phase in scenario.excluded_phases:
            return False
        if (
            current.phase in scenario.performance_phases
            and not scenario.keeps_performance_phases()
        ):
            return False
        return True

    return graph.subgraph({name for name in selected if keep(name)})


@dataclass
class PruningReport:
    """Before/after statistics for one scenario."""

    scenario: str
    tasks_before: int
    tasks_after: int
    edges_before: int
    edges_after: int

    @property
    def task_reduction(self) -> float:
        return 1.0 - self.tasks_after / self.tasks_before if self.tasks_before else 0.0

    @property
    def interaction_reduction(self) -> float:
        return 1.0 - self.edges_after / self.edges_before if self.edges_before else 0.0


def prune_report(graph: TaskGraph, scenario: Scenario) -> Tuple[TaskGraph, PruningReport]:
    pruned = prune(graph, scenario)
    report = PruningReport(
        scenario=scenario.name,
        tasks_before=len(graph),
        tasks_after=len(pruned),
        edges_before=len(graph.edges()),
        edges_after=len(pruned.edges()),
    )
    return pruned, report
