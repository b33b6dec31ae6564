"""Workflow state persistence: save and restore instance status.

Section 5: "As the workflow progresses, status is collected and reported to
the end-user and to management as required."  Reporting across sessions
needs durable state: this module serializes a flow instance tree (step
states, exit codes, timings, data variables, event history) to JSON and
restores it against the same template — so a flow survives a workstation
reboot mid-tapeout, which is exactly when it matters.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

from cadinterop.workflow.model import (
    FlowInstance,
    FlowTemplate,
    StepState,
    WorkflowError,
)

FORMAT_VERSION = 1


def instance_to_dict(instance: FlowInstance) -> Dict[str, Any]:
    """Serialize one instance tree to plain data."""
    return {
        "version": FORMAT_VERSION,
        "template": instance.template.name,
        "block": instance.block,
        "records": {
            name: {
                "state": record.state.value,
                "exit_code": record.exit_code,
                "message": record.message,
                "started_at": record.started_at,
                "finished_at": record.finished_at,
                "runs": record.runs,
            }
            for name, record in instance.records.items()
        },
        "variables": dict(instance.variables),
        "events": list(instance.events),
        "children": {
            name: instance_to_dict(child)
            for name, child in instance.children.items()
        },
    }


def dict_to_instance(data: Dict[str, Any], template: FlowTemplate) -> FlowInstance:
    """Rebuild an instance tree from serialized data and its template.

    The template is the source of truth for structure; the data must match
    it (same template name, same step set) or restoration refuses — silent
    drift between a deployed template and saved state is exactly the kind
    of inconsistency this library exists to flag.
    """
    if data.get("version") != FORMAT_VERSION:
        raise WorkflowError(f"unsupported state format version {data.get('version')!r}")
    if data.get("template") != template.name:
        raise WorkflowError(
            f"saved state is for template {data.get('template')!r}, "
            f"not {template.name!r}"
        )
    saved_steps = set(data.get("records", {}))
    template_steps = set(template.step_names())
    if saved_steps != template_steps:
        raise WorkflowError(
            f"saved state steps {sorted(saved_steps)} do not match template "
            f"steps {sorted(template_steps)}"
        )

    instance = FlowInstance(template, data["block"])
    for name, saved in data["records"].items():
        record = instance.records[name]
        record.state = StepState(saved["state"])
        record.exit_code = saved["exit_code"]
        record.message = saved["message"]
        record.started_at = saved["started_at"]
        record.finished_at = saved["finished_at"]
        record.runs = saved["runs"]
    instance.variables.update(data.get("variables", {}))
    instance.events.extend(tuple(e) for e in data.get("events", []))

    for name, child_data in data.get("children", {}).items():
        step = template.step(name)
        if step.sub_flow is None:
            raise WorkflowError(f"saved child {name!r} is not a sub-flow step")
        instance.children[name] = dict_to_instance(child_data, step.sub_flow)
    return instance


def save_instance(instance: FlowInstance, path: Path) -> None:
    """Write an instance tree to a JSON file."""
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2))


def load_instance(path: Path, template: FlowTemplate) -> FlowInstance:
    """Read an instance tree from a JSON file against its template."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise WorkflowError(f"cannot load workflow state from {path}: {exc}") from exc
    return dict_to_instance(data, template)
