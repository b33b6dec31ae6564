"""Simulator personalities: named bundles of tool-specific behavior.

A *personality* stands in for one commercial simulator: its event-ordering
choice (legal but observable on racy models), how many identifier
characters it honors (the PC-simulator eight-character bug), and whether it
understands escaped identifiers.  Running one model through several
personalities is the library's stand-in for the paper's multi-simulator
product evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.common.namemap import NameMap, truncating_transform
from cadinterop.hdl.ast_nodes import (
    AlwaysBlock,
    ContAssign,
    GateInst,
    HDLError,
    Module,
    SensItem,
    Sensitivity,
    rename_expr,
)
from cadinterop.hdl.compile import CompiledModel, compile_model
from cadinterop.hdl.flatten import _rename_body
from cadinterop.hdl.simulator import (
    FIFO,
    LIFO,
    OrderingPolicy,
    Simulator,
    seeded_shuffle_policy,
)


@dataclass(frozen=True)
class SimulatorPersonality:
    """One tool's observable behavioral fingerprint."""

    name: str
    policy: OrderingPolicy
    significant_chars: Optional[int] = None  # None = unlimited
    supports_escaped_identifiers: bool = True

    def prepare(self, module: Module, log: Optional[IssueLog] = None) -> Module:
        """Apply the personality's name handling to a module.

        A limited-significance personality silently truncates names; if two
        distinct signals collide, the tool *aliases* them (the paper's
        failure) — modelled here as a hard error plus a diagnostic, because
        the aliased simulation would be garbage.
        """
        if self.significant_chars is None:
            return module
        truncate = truncating_transform(self.significant_chars)
        mapping: Dict[str, str] = {}
        taken: Dict[str, str] = {}
        for name in module.nets:
            short = truncate(name)
            if short in taken and taken[short] != name:
                if log is not None:
                    log.add(
                        Severity.ERROR, Category.NAME_MAPPING, name,
                        f"aliases {taken[short]!r} after {self.significant_chars}-char "
                        f"truncation to {short!r}",
                        tool=self.name,
                        remedy="adopt a naming convention unique in the first "
                        f"{self.significant_chars} characters",
                    )
                raise NameAliasError(
                    f"{self.name}: {name!r} and {taken[short]!r} alias to {short!r}"
                )
            taken[short] = name
            mapping[name] = short
        return rename_module_signals(module, mapping)


class NameAliasError(HDLError):
    """Two signals became indistinguishable under a tool's name rules."""


def rename_module_signals(module: Module, mapping: Dict[str, str]) -> Module:
    """Deep-copy ``module`` with every signal renamed through ``mapping``."""
    renamed = Module(module.name)
    for port in module.ports:
        renamed.add_port(mapping.get(port.name, port.name), port.direction)
    for name, decl in module.nets.items():
        renamed.add_net(mapping.get(name, name), decl.kind)
    for assign in module.assigns:
        renamed.add_assign(
            mapping.get(assign.target, assign.target),
            rename_expr(assign.expr, mapping),
            assign.delay,
        )
    for gate in module.gates:
        renamed.add_gate(
            GateInst(
                gate.name,
                gate.gate,
                mapping.get(gate.output, gate.output),
                [mapping.get(pin, pin) for pin in gate.inputs],
                gate.delay,
            )
        )
    for block in module.always_blocks:
        sensitivity = Sensitivity(
            items=[
                SensItem(mapping.get(item.signal, item.signal), item.edge)
                for item in block.sensitivity.items
            ],
            star=block.sensitivity.star,
        )
        renamed.add_always(sensitivity, _rename_body(block.body, mapping))
    for block in module.initial_blocks:
        renamed.add_initial(_rename_body(block.body, mapping))
    return renamed


#: The reference workstation simulator: source-order (FIFO) scheduling.
XL_LIKE = SimulatorPersonality("xl-like", FIFO)

#: A competing workstation simulator with the opposite (equally legal)
#: simultaneous-event order.
TURBO_LIKE = SimulatorPersonality("turbo-like", LIFO)

#: A PC-hosted simulator honoring only eight identifier characters.
PC8_LIKE = SimulatorPersonality(
    "pc8-like", FIFO, significant_chars=8, supports_escaped_identifiers=False
)

DEFAULT_ENSEMBLE: Tuple[SimulatorPersonality, ...] = (
    XL_LIKE,
    TURBO_LIKE,
    SimulatorPersonality("shuffleA", seeded_shuffle_policy(11)),
    SimulatorPersonality("shuffleB", seeded_shuffle_policy(97)),
)


def run_personality(
    module: Module,
    personality: SimulatorPersonality,
    until: int = 1_000_000,
    trace: Optional[Sequence[str]] = None,
    log: Optional[IssueLog] = None,
    compiled: Optional[CompiledModel] = None,
) -> Simulator:
    """Prepare a module for a personality and simulate it.

    Pass ``compiled`` (a :class:`CompiledModel` of ``module``) to make
    ensemble sweeps compile-once/run-many: it is reused whenever the
    personality's name handling leaves the module untouched.  A
    personality that rewrites names (e.g. eight-character truncation)
    simulates a different module and compiles its own.
    """
    prepared = personality.prepare(module, log)
    if compiled is None or prepared is not module:
        compiled = compile_model(prepared)
    sim = Simulator(compiled, personality.policy, trace_signals=trace)
    sim.run(until)
    return sim
