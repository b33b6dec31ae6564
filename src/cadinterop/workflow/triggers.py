"""Trigger-based procedures: change detection and downstream notification.

Section 5: "Workflow procedures can be automatically triggered based on
design data-related events that occur...  Trigger-based procedures provide
the ability to notify the user when something has changed in the design
that does, or might, require them to rework some of their steps.  Features
that detect changes, notify downstream process steps, capture information
about the change, and allow the user to determine the best course of
action must be provided."
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

from cadinterop.workflow.data import DataSnapshot, DataVariable
from cadinterop.workflow.engine import WorkflowEngine
from cadinterop.workflow.model import FlowInstance


@dataclass
class Notification:
    """A captured change notification delivered to the user."""

    kind: str
    subject: str
    detail: str
    affected_steps: Tuple[str, ...] = ()


class TriggerManager:
    """Watches data variables and step events; marks stale steps."""

    def __init__(self, engine: WorkflowEngine) -> None:
        self.engine = engine
        self.notifications: List[Notification] = []
        self._watched: List[Tuple[FlowInstance, DataVariable, Tuple[str, ...], Dict[Path, DataSnapshot]]] = []
        self._variable_triggers: List[Tuple[str, Callable[[FlowInstance, str, Any], None]]] = []
        engine.on_variable_change(self._variable_changed)

    # -- data-file watching -----------------------------------------------

    def watch(
        self,
        instance: FlowInstance,
        variable: DataVariable,
        downstream_steps: Sequence[str],
    ) -> None:
        """Watch a data variable's files; changes mark the steps stale."""
        baseline = variable.observe()
        self._watched.append((instance, variable, tuple(downstream_steps), baseline))

    def poll(self) -> List[Notification]:
        """Detect changes since the baselines; returns new notifications."""
        new: List[Notification] = []
        updated: List[Tuple[FlowInstance, DataVariable, Tuple[str, ...], Dict[Path, DataSnapshot]]] = []
        for instance, variable, steps, baseline in self._watched:
            changed = variable.changed_since(baseline)
            if changed:
                for step in steps:
                    self.engine.mark_needs_rerun(instance, step)
                notification = Notification(
                    kind="data-changed",
                    subject=variable.name,
                    detail=", ".join(str(p) for p in changed),
                    affected_steps=steps,
                )
                self.notifications.append(notification)
                new.append(notification)
                baseline = variable.observe()
            updated.append((instance, variable, steps, baseline))
        self._watched = updated
        return new

    # -- metadata triggers ----------------------------------------------------

    def on_variable(self, name: str, procedure: Callable[[FlowInstance, str, Any], None]) -> None:
        """Run a procedure whenever the named data variable is set."""
        self._variable_triggers.append((name, procedure))

    def _variable_changed(self, instance: FlowInstance, name: str, value: Any) -> None:
        for watched_name, procedure in self._variable_triggers:
            if watched_name == name:
                procedure(instance, name, value)
                self.notifications.append(
                    Notification(
                        kind="variable-trigger",
                        subject=name,
                        detail=f"value={value!r} in block {instance.block}",
                    )
                )
