"""User tasks and the task graph (paper Section 6, system specification).

"The basic approach is to model the CAD user's design methodology as a set
of well defined tasks.  A task consists of a textual description of what
work is performed, the set of inputs required in order to perform the
task, and the set of outputs produced by the task.  Note that tasks are
defined in a tool independent way...  During the task development process,
it is important that task inputs and outputs be normalized.  Normalization
means that the fundamental information being consumed or produced is
identified, rather than the file format which some tool may use to
represent it."

"Tasks are represented as nodes in a directed graph which are linked
together through the specified inputs and outputs.  Interestingly, task
graphs more faithfully represent the designer's choices ... because they
[do not] simplify the problem to one which is linear in nature."  The graph
may therefore legitimately contain cycles (design iteration loops).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple


class MethodologyError(Exception):
    """Structural problem in a task/tool specification."""


@dataclass(frozen=True)
class InfoItem:
    """One normalized piece of design information (NOT a file format)."""

    name: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or " " in self.name:
            raise MethodologyError(f"info item names are kebab tokens, got {self.name!r}")


@dataclass(frozen=True)
class Task:
    """A tool-independent unit of design work.

    ``phase`` groups tasks by methodology stage; ``kind`` classifies into
    the paper's "design creation, analysis, and validation steps".
    """

    name: str
    description: str
    inputs: FrozenSet[str]
    outputs: FrozenSet[str]
    phase: str = "general"
    kind: str = "creation"  # creation / analysis / validation

    KINDS = ("creation", "analysis", "validation")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise MethodologyError(f"bad task kind {self.kind!r} on {self.name!r}")
        if not self.outputs and self.kind != "validation":
            raise MethodologyError(
                f"non-validation task {self.name!r} must produce something"
            )


def task(
    name: str,
    description: str,
    inputs: Sequence[str] = (),
    outputs: Sequence[str] = (),
    phase: str = "general",
    kind: str = "creation",
) -> Task:
    """Ergonomic constructor used by the methodology library."""
    return Task(
        name=name,
        description=description,
        inputs=frozenset(inputs),
        outputs=frozenset(outputs),
        phase=phase,
        kind=kind,
    )


class TaskGraph:
    """Tasks linked through shared information items."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._tasks: Dict[str, Task] = {}
        self.info_items: Dict[str, InfoItem] = {}

    # -- construction -------------------------------------------------------

    def add_info(self, item: InfoItem) -> InfoItem:
        existing = self.info_items.get(item.name)
        if existing is not None and existing.description and item.description \
                and existing.description != item.description:
            raise MethodologyError(f"conflicting descriptions for info {item.name!r}")
        if existing is None or item.description:
            self.info_items[item.name] = item
        return self.info_items[item.name]

    def add_task(self, new_task: Task) -> Task:
        if new_task.name in self._tasks:
            raise MethodologyError(f"duplicate task {new_task.name!r}")
        self._tasks[new_task.name] = new_task
        for info_name in new_task.inputs | new_task.outputs:
            if info_name not in self.info_items:
                self.info_items[info_name] = InfoItem(info_name)
        return new_task

    # -- queries -----------------------------------------------------------------

    def task(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError:
            raise MethodologyError(f"no task named {name!r}") from None

    def tasks(self) -> List[Task]:
        return list(self._tasks.values())

    def task_names(self) -> List[str]:
        return list(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def producers_of(self, info_name: str) -> List[Task]:
        return [t for t in self._tasks.values() if info_name in t.outputs]

    def consumers_of(self, info_name: str) -> List[Task]:
        return [t for t in self._tasks.values() if info_name in t.inputs]

    def successors(self, task_name: str) -> Set[str]:
        current = self.task(task_name)
        result: Set[str] = set()
        for info_name in current.outputs:
            result.update(t.name for t in self.consumers_of(info_name))
        result.discard(task_name)
        return result

    def predecessors(self, task_name: str) -> Set[str]:
        current = self.task(task_name)
        result: Set[str] = set()
        for info_name in current.inputs:
            result.update(t.name for t in self.producers_of(info_name))
        result.discard(task_name)
        return result

    def edges(self) -> List[Tuple[str, str, str]]:
        """(producer task, info item, consumer task) triples."""
        result: List[Tuple[str, str, str]] = []
        for info_name in self.info_items:
            producers = self.producers_of(info_name)
            consumers = self.consumers_of(info_name)
            for producer in producers:
                for consumer in consumers:
                    if producer.name != consumer.name:
                        result.append((producer.name, info_name, consumer.name))
        return result

    def external_inputs(self) -> Set[str]:
        """Info consumed but never produced (comes from outside the flow)."""
        consumed = {i for t in self._tasks.values() for i in t.inputs}
        produced = {o for t in self._tasks.values() for o in t.outputs}
        return consumed - produced

    def final_outputs(self) -> Set[str]:
        produced = {o for t in self._tasks.values() for o in t.outputs}
        consumed = {i for t in self._tasks.values() for i in t.inputs}
        return produced - consumed

    def backward_closure(self, outputs: Iterable[str]) -> Set[str]:
        """All tasks needed (transitively) to produce the given info items."""
        needed_info: List[str] = list(outputs)
        seen_info: Set[str] = set()
        selected: Set[str] = set()
        while needed_info:
            info_name = needed_info.pop()
            if info_name in seen_info:
                continue
            seen_info.add(info_name)
            for producer in self.producers_of(info_name):
                if producer.name not in selected:
                    selected.add(producer.name)
                    needed_info.extend(producer.inputs)
        return selected

    def subgraph(self, task_names: Iterable[str]) -> "TaskGraph":
        names = set(task_names)
        result = TaskGraph(f"{self.name}-sub")
        for name in self._tasks:
            if name in names:
                result.add_task(self._tasks[name])
        for info_name, item in self.info_items.items():
            if any(
                info_name in t.inputs | t.outputs for t in result.tasks()
            ):
                result.add_info(item)
        return result

    def has_iteration_loops(self) -> bool:
        """True if the graph has cycles — design iteration, not an error."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self._tasks}

        def visit(name: str) -> bool:
            color[name] = GRAY
            for successor in self.successors(name):
                if color[successor] == GRAY:
                    return True
                if color[successor] == WHITE and visit(successor):
                    return True
            color[name] = BLACK
            return False

        return any(color[name] == WHITE and visit(name) for name in self._tasks)

    def stats(self) -> Dict[str, int]:
        kinds: Dict[str, int] = {}
        phases: Set[str] = set()
        for current in self._tasks.values():
            kinds[current.kind] = kinds.get(current.kind, 0) + 1
            phases.add(current.phase)
        return {
            "tasks": len(self._tasks),
            "info_items": len(self.info_items),
            "edges": len(self.edges()),
            "phases": len(phases),
            "creation": kinds.get("creation", 0),
            "analysis": kinds.get("analysis", 0),
            "validation": kinds.get("validation", 0),
        }

    def validate(self) -> List[str]:
        """Specification hygiene problems (empty = clean)."""
        problems: List[str] = []
        for current in self._tasks.values():
            overlap = current.inputs & current.outputs
            if overlap:
                # Legal (iteration on the same item) but worth surfacing.
                continue
        produced: Dict[str, List[str]] = {}
        for current in self._tasks.values():
            for output in current.outputs:
                produced.setdefault(output, []).append(current.name)
        orphan_outputs = self.final_outputs()
        if not orphan_outputs:
            problems.append("methodology has no final outputs (fully cyclic?)")
        return problems
