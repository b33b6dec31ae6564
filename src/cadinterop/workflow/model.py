"""Workflow model: templates, steps, hierarchical sub-flows, instances.

Section 5: "Creating a workflow involves first capturing the structure of
the flow graphically.  Next, the work that occurs within the flow as the
process is followed is specified.  Once the workflow is captured and
specified, the resulting workflow template is deployed across the
organization.  Each instance of the captured process is derived from the
same template, providing process consistency."

And ("Support for hierarchical design"): "Each design block in the
hierarchy can be developed using the same sub-flow template, but the data
and process status is kept separate for each block."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple


class WorkflowError(Exception):
    """Structural or runtime workflow failure."""


class StepState(enum.Enum):
    PENDING = "pending"
    READY = "ready"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    SKIPPED = "skipped"
    NEEDS_RERUN = "needs-rerun"

    @property
    def terminal(self) -> bool:
        return self in (StepState.SUCCEEDED, StepState.FAILED, StepState.SKIPPED)


@dataclass
class StepDef:
    """One step of a template.

    ``action`` is any object with ``run(api) -> int`` (see
    :mod:`cadinterop.workflow.actions`); alternatively ``sub_flow`` names a
    nested template instantiated per design block.  ``explicit_status``
    switches off the default exit-code policy for this step — the action
    must then set its own state through the API ("support is provided in
    the API to set the state of a step to an explicit value").
    """

    name: str
    action: Optional[object] = None
    sub_flow: Optional["FlowTemplate"] = None
    start_after: Tuple[str, ...] = ()
    finish_conditions: Tuple[object, ...] = ()  # Condition objects
    permissions: Optional[Set[str]] = None  # None = anyone
    explicit_status: bool = False

    def __post_init__(self) -> None:
        if (self.action is None) == (self.sub_flow is None):
            raise WorkflowError(
                f"step {self.name!r} needs exactly one of action or sub_flow"
            )


class FlowTemplate:
    """A reusable, deployable process description."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._steps: Dict[str, StepDef] = {}

    def add_step(self, step: StepDef) -> StepDef:
        if step.name in self._steps:
            raise WorkflowError(f"duplicate step {step.name!r} in template {self.name!r}")
        self._steps[step.name] = step
        return step

    def step(self, name: str) -> StepDef:
        try:
            return self._steps[name]
        except KeyError:
            raise WorkflowError(f"template {self.name!r} has no step {name!r}") from None

    def steps(self) -> List[StepDef]:
        return list(self._steps.values())

    def step_names(self) -> List[str]:
        return list(self._steps)

    def validate(self) -> None:
        """Check dependency references and acyclicity."""
        for step in self._steps.values():
            for dependency in step.start_after:
                if dependency not in self._steps:
                    raise WorkflowError(
                        f"step {step.name!r} depends on unknown step {dependency!r}"
                    )
            if step.sub_flow is not None:
                step.sub_flow.validate()
        # Cycle detection via DFS coloring.
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self._steps}

        def visit(name: str, stack: List[str]) -> None:
            color[name] = GRAY
            for dependency in self._steps[name].start_after:
                if color[dependency] == GRAY:
                    cycle = " -> ".join(stack + [name, dependency])
                    raise WorkflowError(f"dependency cycle: {cycle}")
                if color[dependency] == WHITE:
                    visit(dependency, stack + [name])
            color[name] = BLACK

        for name in self._steps:
            if color[name] == WHITE:
                visit(name, [])

    def topological_order(self) -> List[str]:
        self.validate()
        order: List[str] = []
        visited: Set[str] = set()

        def visit(name: str) -> None:
            if name in visited:
                return
            visited.add(name)
            for dependency in self._steps[name].start_after:
                visit(dependency)
            order.append(name)

        for name in self._steps:
            visit(name)
        return order


@dataclass
class StepRecord:
    """Runtime status of one step within an instance."""

    name: str
    state: StepState = StepState.PENDING
    exit_code: Optional[int] = None
    message: str = ""
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    runs: int = 0

    @property
    def duration(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class FlowInstance:
    """One deployment of a template against one design block.

    ``block`` names the design-hierarchy node this instance serves; nested
    sub-flows get dotted block paths, so "a natural design hierarchy is
    visible" while "the data and process status is kept separate for each
    block".
    """

    def __init__(self, template: FlowTemplate, block: str = "top") -> None:
        template.validate()
        self.template = template
        self.block = block
        self.records: Dict[str, StepRecord] = {
            name: StepRecord(name) for name in template.step_names()
        }
        self.children: Dict[str, "FlowInstance"] = {}
        #: data variables: metadata proxies for design data items
        self.variables: Dict[str, Any] = {}
        self.events: List[Tuple[str, str]] = []  # (event kind, detail)

    def record(self, step_name: str) -> StepRecord:
        try:
            return self.records[step_name]
        except KeyError:
            raise WorkflowError(
                f"instance {self.block!r} has no step {step_name!r}"
            ) from None

    def state_of(self, step_name: str) -> StepState:
        return self.record(step_name).state

    def emit(self, kind: str, detail: str) -> None:
        self.events.append((kind, detail))

    def walk(self) -> Iterator["FlowInstance"]:
        yield self
        for child in self.children.values():
            yield from child.walk()

    def all_succeeded(self) -> bool:
        return all(
            record.state is StepState.SUCCEEDED for record in self.records.values()
        ) and all(child.all_succeeded() for child in self.children.values())
