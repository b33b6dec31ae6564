"""Workflow actions: any program, in any language (paper Section 5).

"Open language environment: ... the actions invoked from the process
description can be implemented in any programming language desired by the
flow developer - UNIX shell scripts, PERL, TCL/TK, C-language, etc.  This
openness allows any existing programs, executable from the UNIX command
line, to be attached as actions to a workflow without the use of special
compilers, proprietary languages or wrappers."

Three action classes cover the paper's tool-management modes:

* :class:`ShellAction` — an existing command-line program, attached as-is;
* :class:`PythonAction` — an in-process callable (the "any language" seam);
* :class:`ToolSessionAction` — a feature of an already-running tool,
  reached through its session (the paper's "inter-process communication or
  RPC protocols" case, see :mod:`cadinterop.workflow.tools`).

All expose ``run(api) -> int``: the exit code feeds the engine's default
zero-is-success policy.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional


@dataclass
class ShellAction:
    """Run a command line; its exit status is the step's exit code."""

    command: str
    timeout: float = 30.0
    capture: bool = True

    def run(self, api: "object") -> int:
        completed = subprocess.run(
            self.command,
            shell=True,
            timeout=self.timeout,
            stdout=subprocess.PIPE if self.capture else None,
            stderr=subprocess.STDOUT if self.capture else None,
            text=True,
        )
        if self.capture and completed.stdout:
            api.log_output(completed.stdout)
        return completed.returncode


@dataclass
class PythonAction:
    """An in-process callable taking the step API, returning an exit code.

    A return of ``None`` is treated as 0 — mirroring the paper's plea for
    sensible defaults ("a tool invoked from a workflow step that returns
    zero status will be assumed to have completed successfully").
    """

    fn: Callable[[Any], Optional[int]]
    name: str = ""

    def run(self, api: "object") -> int:
        result = self.fn(api)
        return 0 if result is None else int(result)


@dataclass
class ToolSessionAction:
    """Invoke one feature of a persistent tool over its session.

    ``tool`` is a :class:`cadinterop.workflow.tools.PersistentTool`; the
    engine guarantees the tool is started before the first feature call
    ("the first step in the sequence invokes the tool (if not already
    invoked), then subsequent steps communicate to the already-running
    tool").
    """

    tool: object
    feature: str
    args: Dict[str, Any] = field(default_factory=dict)

    def run(self, api: "object") -> int:
        if not self.tool.running:
            self.tool.start()
            api.log_output(f"[tool {self.tool.name} started]")
        return self.tool.call(self.feature, **self.args)
