"""Tool models: the Section 6 system-analysis representation of a tool.

"A tool model is similar in structure to the user task.  It contains a
description of the function, data inputs, data outputs, control inputs,
and control outputs.  Data input and output is classified into four parts,
persistence, behavioral semantics, structural model, and namespace.
Control is defined as a set of interfaces.  This interface model is
analogous to the software component models like Corba and Com."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from cadinterop.core.tasks import MethodologyError


@dataclass(frozen=True)
class DataPort:
    """One data input or output of a tool, classified four ways.

    * ``persistence`` — the on-disk representation (file format name);
    * ``semantics`` — the behavioral interpretation convention (e.g. which
      event ordering, which value set);
    * ``structure`` — the structural model (hierarchical vs flat, explicit
      vs implicit connectivity);
    * ``namespace`` — the identifier rules the data obeys.
    """

    info: str  # the normalized info item this port carries
    direction: str  # "in" or "out"
    persistence: str
    semantics: str
    structure: str
    namespace: str

    def __post_init__(self) -> None:
        if self.direction not in ("in", "out"):
            raise MethodologyError(f"bad port direction {self.direction!r}")


@dataclass(frozen=True)
class ControlInterface:
    """How a tool is driven or reports back (CORBA/COM-analogous)."""

    name: str
    kind: str  # "cli" / "api" / "rpc" / "gui" / "callback"
    direction: str  # "in" (tool is controlled) or "out" (tool notifies)
    operations: Tuple[str, ...] = ()

    KINDS = ("cli", "api", "rpc", "gui", "callback")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise MethodologyError(f"bad control kind {self.kind!r}")
        if self.direction not in ("in", "out"):
            raise MethodologyError(f"bad control direction {self.direction!r}")


@dataclass
class ToolModel:
    """One tool, modelled for interoperability analysis.

    ``implements_tasks`` names the user tasks this tool can perform;
    ``performance`` optionally estimates relative runtime cost per task.
    """

    name: str
    function: str
    data_ports: List[DataPort] = field(default_factory=list)
    control: List[ControlInterface] = field(default_factory=list)
    implements_tasks: Set[str] = field(default_factory=set)
    performance: Dict[str, float] = field(default_factory=dict)
    vendor: str = ""

    def inputs(self) -> List[DataPort]:
        return [p for p in self.data_ports if p.direction == "in"]

    def outputs(self) -> List[DataPort]:
        return [p for p in self.data_ports if p.direction == "out"]

    def port_for(self, info: str, direction: str) -> Optional[DataPort]:
        for port in self.data_ports:
            if port.info == info and port.direction == direction:
                return port
        return None

    def controllable_by(self, kinds: Iterable[str]) -> bool:
        wanted = set(kinds)
        return any(
            c.kind in wanted for c in self.control if c.direction == "in"
        )


class ToolCatalog:
    """All tools available to an analysis."""

    def __init__(self) -> None:
        self._tools: Dict[str, ToolModel] = {}

    def add(self, tool: ToolModel) -> ToolModel:
        if tool.name in self._tools:
            raise MethodologyError(f"duplicate tool {tool.name!r}")
        self._tools[tool.name] = tool
        return tool

    def tool(self, name: str) -> ToolModel:
        try:
            return self._tools[name]
        except KeyError:
            raise MethodologyError(f"no tool named {name!r}") from None

    def tools(self) -> List[ToolModel]:
        return list(self._tools.values())

    def __len__(self) -> int:
        return len(self._tools)

    def __contains__(self, name: str) -> bool:
        return name in self._tools

    def tools_implementing(self, task_name: str) -> List[ToolModel]:
        return [t for t in self._tools.values() if task_name in t.implements_tasks]

    def subset(self, names: Iterable[str]) -> "ToolCatalog":
        catalog = ToolCatalog()
        for name in names:
            catalog.add(self.tool(name))
        return catalog
