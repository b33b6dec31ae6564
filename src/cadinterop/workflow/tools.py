"""Tool management: one-shot invocations vs persistent tool sessions.

Section 5 ("Flexible tool management"): "a workflow may consist of a number
of separate steps, each of which causes a separate tool to invoke.  Another
workflow may consist of the same number of steps, but in this case each of
the steps causes a separate feature of a single tool to be executed.  In
the first case, each tool is invoked as a separate process and the return
value ... is used to determine the success or failure of the step.  In the
second case, the first step in the sequence invokes the tool (if not
already invoked), then subsequent steps communicate to the already-running
tool via inter-process communication or RPC protocols."

:class:`PersistentTool` models the second case: an object with explicit
start/stop lifecycle and named features reachable over its "session".  The
in-process implementation keeps the integration surface honest (lifecycle
errors, unknown features, per-call status) without a real daemon.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List


class ToolSessionError(Exception):
    """Lifecycle or protocol misuse of a persistent tool."""


class PersistentTool:
    """A long-running tool with feature calls over a session."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.running = False
        self.start_count = 0
        self.call_log: List[str] = []
        self._features: Dict[str, Callable[..., int]] = {}

    def register_feature(self, feature: str, fn: Callable[..., int]) -> None:
        if feature in self._features:
            raise ToolSessionError(f"feature {feature!r} already registered")
        self._features[feature] = fn

    def start(self) -> None:
        if self.running:
            raise ToolSessionError(f"tool {self.name!r} already running")
        self.running = True
        self.start_count += 1

    def stop(self) -> None:
        if not self.running:
            raise ToolSessionError(f"tool {self.name!r} is not running")
        self.running = False

    def call(self, feature: str, **kwargs: Any) -> int:
        if not self.running:
            raise ToolSessionError(
                f"feature {feature!r} called but tool {self.name!r} is not running"
            )
        if feature not in self._features:
            raise ToolSessionError(f"tool {self.name!r} has no feature {feature!r}")
        self.call_log.append(feature)
        result = self._features[feature](**kwargs)
        return 0 if result is None else int(result)
