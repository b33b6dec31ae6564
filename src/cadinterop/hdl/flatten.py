"""Design flattening with a reversible name map (paper Section 3.3).

"Certain HDL based tools work only on a flat design description...  When
such a tool imports a hierarchical design, it must flatten the design.  New
names get derived in some systematic way, such as joining the names in a
hierarchical path using an underscore.  However, the design process is
often iterative, and if a problem is found in the flat representation, the
user must map back to the name used in hierarchical representation."

:func:`flatten` performs exactly that systematic derivation — underscore
joining by default — and returns, alongside the flat module, a
:class:`~cadinterop.common.namemap.NameMap` from hierarchical dotted paths
to flat names.  The map is collision-aware: ``top.u1.w`` and a top-level
signal literally named ``u1_w`` would collide under naive joining; the map
uniquifies and *remembers*, so :func:`unflatten_name` always recovers the
true hierarchical path.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from cadinterop.common.namemap import NameMap
from cadinterop.hdl.ast_nodes import (
    DesignUnit,
    GateInst,
    HDLError,
    Module,
    SensItem,
    Sensitivity,
    Var,
    rename_body,
    substitute,
)
from cadinterop.hdl.elaborate import InstanceNode, elaborate


def _separator_transform(separator: str):
    def transform(dotted: str) -> str:
        return dotted.replace(".", separator)

    return transform


def flatten(
    unit: DesignUnit,
    top: Optional[str] = None,
    separator: str = "_",
) -> Tuple[Module, NameMap]:
    """Flatten ``unit`` into a single module plus the reversible name map.

    Top-level signals keep their own names (mapped identity); signals in an
    instance ``u1`` become ``u1<sep><name>`` unless that collides, in which
    case they are uniquified and the decision is recorded in the map.
    """
    root = elaborate(unit, top)
    flat = Module(root.module.name + separator + "flat")
    name_map = NameMap(_separator_transform(separator))

    # Top-level ports stay ports of the flat module.
    for port in root.module.ports:
        flat.add_port(port.name, port.direction)

    _flatten_node(root, flat, name_map, separator, parent_local=None)
    flat.validate()
    return flat, name_map


def _flatten_node(
    node: InstanceNode,
    flat: Module,
    name_map: NameMap,
    separator: str,
    parent_local: Optional[Dict[str, str]],
) -> None:
    prefix = ".".join(node.path)

    # Build this node's local-signal renaming.
    local: Dict[str, str] = {}
    for signal, decl in node.module.nets.items():
        if not node.path:
            flat_name = name_map.map(signal)
        elif signal in node.bindings:
            # Connected port: alias to the parent's flattened net — the
            # port and the actual are one electrical node.
            parent_signal = node.bindings[signal]
            if parent_local is None or parent_signal not in parent_local:
                raise HDLError(
                    f"instance {prefix!r}: parent signal {parent_signal!r} unknown"
                )
            flat_name = parent_local[parent_signal]
        else:
            flat_name = name_map.map(f"{prefix}.{signal}", reason="hierarchy removal")
        local[signal] = flat_name
        if flat_name not in flat.nets:
            flat.add_net(flat_name, decl.kind)
        elif decl.kind == "reg":
            flat.add_net(flat_name, "reg")

    # Copy behavior with renamed signals.
    env = {signal: Var(flat_name) for signal, flat_name in local.items()}
    for assign in node.module.assigns:
        flat.add_assign(local[assign.target], substitute(assign.expr, env), assign.delay)
    for gate in node.module.gates:
        gate_name = (prefix + separator + gate.name) if prefix else gate.name
        flat.add_gate(
            GateInst(
                gate_name,
                gate.gate,
                local[gate.output],
                [local[pin] for pin in gate.inputs],
                gate.delay,
            )
        )
    for block in node.module.always_blocks:
        sensitivity = Sensitivity(
            items=[SensItem(local[i.signal], i.edge) for i in block.sensitivity.items],
            star=block.sensitivity.star,
        )
        flat.add_always(sensitivity, rename_body(block.body, local))
    for block in node.module.initial_blocks:
        flat.add_initial(rename_body(block.body, local))

    for child in node.children:
        _flatten_node(child, flat, name_map, separator, parent_local=local)


def unflatten_name(name_map: NameMap, flat_name: str) -> str:
    """Recover the hierarchical (dotted) name from a flat name.

    This is the paper's iterate-and-map-back need: a problem found in the
    flat representation must be reported against the hierarchical name.
    """
    return name_map.unmap(flat_name)
