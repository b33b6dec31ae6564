"""Hierarchy elaboration: resolve module instances into an instance tree."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from cadinterop.hdl.ast_nodes import DesignUnit, HDLError, Module


@dataclass
class InstanceNode:
    """One node of the elaborated instance tree."""

    path: Tuple[str, ...]
    module: Module
    children: List["InstanceNode"] = field(default_factory=list)
    #: formal port name -> signal name in the *parent* module's namespace
    bindings: Dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.path[-1] if self.path else "<top>"

    @property
    def dotted_path(self) -> str:
        return ".".join(self.path)

    def walk(self) -> Iterator["InstanceNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


def elaborate(unit: DesignUnit, top: Optional[str] = None) -> InstanceNode:
    """Build the instance tree from ``top`` (defaults to the unit's top).

    Checks, at each instance: the target module exists, every connected
    formal port exists, and no recursion occurs.
    """
    top_name = top or unit.top
    if top_name is None:
        raise HDLError("no top module specified")
    top_module = unit.module(top_name)
    return _elaborate_node(unit, top_module, (), {}, [top_name])


def _elaborate_node(
    unit: DesignUnit,
    module: Module,
    path: Tuple[str, ...],
    bindings: Dict[str, str],
    stack: List[str],
) -> InstanceNode:
    node = InstanceNode(path=path, module=module, bindings=dict(bindings))
    for inst in module.instances:
        if inst.module_name in stack:
            raise HDLError(
                f"recursive instantiation of {inst.module_name!r} via {'/'.join(stack)}"
            )
        child_module = unit.module(inst.module_name)
        formal_ports = set(child_module.port_names())
        unknown = set(inst.connections) - formal_ports
        if unknown:
            raise HDLError(
                f"instance {inst.name!r}: no such port(s) {sorted(unknown)} on "
                f"module {inst.module_name!r}"
            )
        child = _elaborate_node(
            unit,
            child_module,
            path + (inst.name,),
            inst.connections,
            stack + [inst.module_name],
        )
        node.children.append(child)
    return node


def instance_count(root: InstanceNode) -> int:
    return sum(1 for _ in root.walk())


def hierarchy_depth(root: InstanceNode) -> int:
    if not root.children:
        return 1
    return 1 + max(hierarchy_depth(child) for child in root.children)
