"""The workflow engine: execution, default status policy, step API.

Key Section 5 behaviors implemented here:

* **Default behavior, not built-in policies** — "a tool invoked from a
  workflow step that returns zero status will be assumed to have completed
  successfully, and the workflow status for that task will be updated
  appropriately by default"; steps flagged ``explicit_status`` must set
  their own state through the API instead.
* **Start and finish dependencies** — a step becomes READY only when its
  ``start_after`` steps succeeded; it may only complete successfully when
  its ``finish_conditions`` hold ("other events might be used to insure
  that a task does not complete too soon").
* **Permissions and reset rules** — "Do I have the necessary permissions to
  execute this task?", "When can I reset and rerun this step?".
* **Hierarchical sub-flows** — one template instantiated per design block,
  status kept separate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from cadinterop.obs import get_lineage, get_metrics, get_tracer
from cadinterop.workflow.model import (
    FlowInstance,
    FlowTemplate,
    StepDef,
    StepRecord,
    StepState,
    WorkflowError,
)


class StepApi:
    """What an action sees: state control, data variables, notification."""

    def __init__(self, engine: "WorkflowEngine", instance: FlowInstance, step: StepDef) -> None:
        self._engine = engine
        self._instance = instance
        self._step = step
        self.output: List[str] = []
        self._explicit_state: Optional[StepState] = None

    # -- logging ----------------------------------------------------------
    def log_output(self, text: str) -> None:
        self.output.append(text)

    # -- explicit status (the escape hatch from the default policy) --------
    def set_state(self, state: StepState, message: str = "") -> None:
        if state not in (StepState.SUCCEEDED, StepState.FAILED, StepState.SKIPPED):
            raise WorkflowError(f"actions may only set terminal states, not {state}")
        self._explicit_state = state
        if message:
            self.log_output(message)

    @property
    def explicit_state(self) -> Optional[StepState]:
        return self._explicit_state

    # -- metadata exchange ("exchange (set/get) metadata with the workflow")
    def set_variable(self, name: str, value: Any) -> None:
        # An artifact facet: the step produced workflow metadata that did
        # not exist before it ran.
        get_lineage().record(
            "artifact", name, f"workflow:{self._step.name}", "synthesized",
            detail=f"produced {value!r}", design=self._instance.block,
        )
        self._engine.set_variable(self._instance, name, value)

    def get_variable(self, name: str, default: Any = None) -> Any:
        if name in self._instance.variables:
            get_lineage().record(
                "artifact", name, f"workflow:{self._step.name}", "preserved",
                detail="consumed", design=self._instance.block,
            )
        return self._instance.variables.get(name, default)

    # -- introspection -------------------------------------------------------
    @property
    def block(self) -> str:
        return self._instance.block

    @property
    def step_name(self) -> str:
        return self._step.name


@dataclass
class RunSummary:
    """Outcome of one engine run over an instance tree."""

    executed: List[str] = field(default_factory=list)
    succeeded: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    blocked: List[str] = field(default_factory=list)
    skipped_permission: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed and not self.blocked and not self.skipped_permission


class WorkflowEngine:
    """Instantiates templates and drives instances to completion."""

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self._clock = clock
        self._variable_listeners: List[Callable[[FlowInstance, str, Any], None]] = []

    # -- deployment ---------------------------------------------------------

    def instantiate(self, template: FlowTemplate, block: str = "top") -> FlowInstance:
        """Deploy a template for one design block (sub-flows recurse)."""
        instance = FlowInstance(template, block)
        for step in template.steps():
            if step.sub_flow is not None:
                instance.children[step.name] = self.instantiate(
                    step.sub_flow, block=f"{block}.{step.name}"
                )
        return instance

    def instantiate_for_blocks(
        self, template: FlowTemplate, blocks: Sequence[str]
    ) -> Dict[str, FlowInstance]:
        """One instance per design block, all from the same template."""
        return {block: self.instantiate(template, block) for block in blocks}

    # -- listeners (used by triggers) -------------------------------------------

    def on_variable_change(self, listener: Callable[[FlowInstance, str, Any], None]) -> None:
        self._variable_listeners.append(listener)

    def set_variable(self, instance: FlowInstance, name: str, value: Any) -> None:
        instance.variables[name] = value
        instance.emit("variable", f"{name}={value!r}")
        get_metrics().counter("workflow.variable.changes").inc()
        if self._variable_listeners:
            with get_tracer().span(
                "workflow:trigger", variable=name, block=instance.block
            ):
                for listener in self._variable_listeners:
                    listener(instance, name, value)

    # -- execution -------------------------------------------------------------

    def _start_dependencies_met(self, instance: FlowInstance, step: StepDef) -> bool:
        return all(
            instance.state_of(dependency) is StepState.SUCCEEDED
            for dependency in step.start_after
        )

    def _check_permission(self, step: StepDef, user: Optional[str], roles: Set[str]) -> bool:
        if step.permissions is None:
            return True
        return bool(step.permissions & roles)

    def run(
        self,
        instance: FlowInstance,
        user: Optional[str] = None,
        roles: Optional[Set[str]] = None,
    ) -> RunSummary:
        """Execute all runnable steps in dependency order."""
        summary = RunSummary()
        roles = roles or set()
        with get_tracer().span("workflow:run", block=instance.block):
            for step_name in instance.template.topological_order():
                step = instance.template.step(step_name)
                record = instance.record(step_name)
                if record.state.terminal and record.state is not StepState.FAILED:
                    continue
                if record.state is StepState.FAILED:
                    summary.blocked.append(step_name)
                    continue
                if not self._start_dependencies_met(instance, step):
                    summary.blocked.append(step_name)
                    continue
                if not self._check_permission(step, user, roles):
                    summary.skipped_permission.append(step_name)
                    instance.emit("permission-denied", f"{step_name} for user {user!r}")
                    get_metrics().counter("workflow.steps.permission_denied").inc()
                    continue
                state = self._execute_step(instance, step, record, user, roles, summary)
                if state is StepState.SUCCEEDED:
                    summary.succeeded.append(step_name)
                elif state is StepState.FAILED:
                    summary.failed.append(step_name)
        return summary

    def _execute_step(
        self,
        instance: FlowInstance,
        step: StepDef,
        record: StepRecord,
        user: Optional[str],
        roles: Set[str],
        summary: RunSummary,
    ) -> StepState:
        metrics = get_metrics()
        metrics.counter("workflow.steps.executed").inc()
        with get_tracer().span(
            "workflow:step", step=step.name, block=instance.block
        ) as span:
            state = self._run_step(instance, step, record, user, roles, summary)
            span.set(state=state.value)
        metrics.counter(f"workflow.steps.{state.value.lower()}").inc()
        return state

    def _run_step(
        self,
        instance: FlowInstance,
        step: StepDef,
        record: StepRecord,
        user: Optional[str],
        roles: Set[str],
        summary: RunSummary,
    ) -> StepState:
        record.state = StepState.RUNNING
        record.started_at = self._clock()
        record.runs += 1
        summary.executed.append(step.name)

        if step.sub_flow is not None:
            child = instance.children[step.name]
            child_summary = self.run(child, user, roles)
            state = (
                StepState.SUCCEEDED
                if child_summary.ok and child.all_succeeded()
                else StepState.FAILED
            )
            record.message = (
                f"sub-flow {child.block}: {len(child_summary.succeeded)} ok, "
                f"{len(child_summary.failed)} failed"
            )
        else:
            api = StepApi(self, instance, step)
            try:
                exit_code = step.action.run(api)
            except Exception as exc:  # noqa: BLE001 - tool crashes are data
                record.exit_code = -1
                record.message = f"action raised: {exc}"
                state = StepState.FAILED
            else:
                record.exit_code = exit_code
                if step.explicit_status:
                    if api.explicit_state is None:
                        record.message = "explicit-status step never set its state"
                        state = StepState.FAILED
                    else:
                        state = api.explicit_state
                else:
                    # The default policy: zero is success.
                    state = StepState.SUCCEEDED if exit_code == 0 else StepState.FAILED
                    record.message = f"exit {exit_code}"

        # Finish dependencies: hold completion until conditions are met.
        if state is StepState.SUCCEEDED:
            for condition in step.finish_conditions:
                ok, reason = condition.check(instance)
                if not ok:
                    state = StepState.FAILED
                    record.message = f"finish condition failed: {reason}"
                    break

        record.state = state
        record.finished_at = self._clock()
        instance.emit("step", f"{step.name}:{state.value}")
        return state

    # -- reset / rerun rules ------------------------------------------------------

    def can_reset(self, instance: FlowInstance, step_name: str) -> Tuple[bool, str]:
        """"When can I reset and rerun this step?" — only when no successor
        that consumed its result is currently running."""
        for other in instance.template.steps():
            if step_name in other.start_after:
                state = instance.state_of(other.name)
                if state is StepState.RUNNING:
                    return False, f"successor {other.name!r} is running"
        return True, "ok"

    def reset(self, instance: FlowInstance, step_name: str, cascade: bool = True) -> List[str]:
        """Reset a step (and, by default, everything downstream of it)."""
        ok, reason = self.can_reset(instance, step_name)
        if not ok:
            raise WorkflowError(f"cannot reset {step_name!r}: {reason}")
        reset_steps = [step_name]
        record = instance.record(step_name)
        record.state = StepState.PENDING
        record.exit_code = None
        record.message = ""
        if cascade:
            for other in instance.template.steps():
                if step_name in other.start_after and instance.state_of(other.name).terminal:
                    reset_steps.extend(self.reset(instance, other.name, cascade=True))
        instance.emit("reset", ",".join(reset_steps))
        return reset_steps

    def mark_needs_rerun(self, instance: FlowInstance, step_name: str) -> None:
        record = instance.record(step_name)
        if record.state is StepState.SUCCEEDED:
            record.state = StepState.NEEDS_RERUN
            instance.emit("needs-rerun", step_name)

    def rerun_stale(self, instance: FlowInstance, user: Optional[str] = None,
                    roles: Optional[Set[str]] = None) -> RunSummary:
        """Reset every NEEDS_RERUN step (cascading) and run again."""
        for record in list(instance.records.values()):
            if record.state is StepState.NEEDS_RERUN:
                record.state = StepState.SUCCEEDED  # restore so reset() cascades
                self.reset(instance, record.name, cascade=True)
        return self.run(instance, user, roles)
