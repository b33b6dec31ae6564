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
from typing import Optional, Sequence, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.common.namemap import NameCollisionError, NameMap, truncating_transform
from cadinterop.hdl.ast_nodes import HDLError, Module, rewrite_module
from cadinterop.hdl.compile import CompiledModel, compile_model
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
        names = NameMap(truncate, uniquify=False)
        for name in module.nets:
            try:
                names.map(name)
            except NameCollisionError:
                short = truncate(name)
                other = names.source_of(short)
                if log is not None:
                    log.add(
                        Severity.ERROR, Category.NAME_MAPPING, name,
                        f"aliases {other!r} after {self.significant_chars}-char "
                        f"truncation to {short!r}",
                        tool=self.name,
                        remedy="adopt a naming convention unique in the first "
                        f"{self.significant_chars} characters",
                    )
                raise NameAliasError(
                    f"{self.name}: {name!r} and {other!r} alias to {short!r}"
                ) from None
        return rewrite_module(module, dict(names))


class NameAliasError(HDLError):
    """Two signals became indistinguishable under a tool's name rules."""


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
