"""Sensitivity-list analysis: the simulation/synthesis semantic gap.

Section 3.2 ("Modeling style")::

    always @(a or b)
      out = a & b & c;

"You would expect the signal out to be modified when a or b changes.
However, the synthesis software interprets your model as if out was
sensitive to signals a, b and c."

:func:`analyze` finds every incomplete sensitivity list (and latch
inference hazard); :func:`synthesis_interpretation` builds the module the
synthesizer *actually* implements (full sensitivity); and
:func:`simulation_synthesis_mismatch` demonstrates the gap by simulating
both under identical stimulus and diffing the observed signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.hdl.ast_nodes import (
    AlwaysBlock,
    Assign,
    If,
    Module,
    SensItem,
    Sensitivity,
    Stmt,
    rewrite_module,
)
from cadinterop.hdl.simulator import FIFO, Simulator


@dataclass
class SensitivityFinding:
    """One always block with a simulation/synthesis interpretation gap."""

    block_index: int
    missing: Set[str] = field(default_factory=set)
    extra: Set[str] = field(default_factory=set)
    latch_targets: Set[str] = field(default_factory=set)

    @property
    def has_issue(self) -> bool:
        return bool(self.missing or self.latch_targets)


def _paths_assign(target: str, body: Sequence[Stmt]) -> bool:
    """True if every execution path through ``body`` assigns ``target``."""
    assigned = False
    for stmt in body:
        if isinstance(stmt, Assign):
            if stmt.target == target:
                assigned = True
        elif isinstance(stmt, If):
            then_assigns = _paths_assign(target, stmt.then_body)
            else_assigns = _paths_assign(target, stmt.else_body or [])
            if then_assigns and else_assigns:
                assigned = True
    return assigned


def analyze_block(block: AlwaysBlock, index: int = 0) -> SensitivityFinding:
    """Analyze one always block for sensitivity gaps and latch inference."""
    finding = SensitivityFinding(block_index=index)
    if block.sensitivity.is_edge_triggered():
        return finding  # sequential logic: list is the clock spec, not a gap
    reads = block.reads()
    declared = block.effective_sensitivity()
    if not block.sensitivity.star:
        finding.missing = reads - declared
        finding.extra = declared - reads
    for target in block.writes():
        if not _paths_assign(target, block.body):
            finding.latch_targets.add(target)
    return finding


def analyze(module: Module, log: Optional[IssueLog] = None) -> List[SensitivityFinding]:
    """All findings for a module, with diagnostics."""
    findings: List[SensitivityFinding] = []
    for index, block in enumerate(module.always_blocks):
        finding = analyze_block(block, index)
        findings.append(finding)
        if log is None:
            continue
        if finding.missing:
            log.add(
                Severity.WARNING, Category.SEMANTICS,
                f"{module.name}.always[{index}]",
                f"sensitivity list missing {sorted(finding.missing)}; simulation "
                "and synthesis will disagree",
                remedy="add the missing signals or use @(*)",
            )
        if finding.latch_targets:
            log.add(
                Severity.WARNING, Category.SEMANTICS,
                f"{module.name}.always[{index}]",
                f"not all paths assign {sorted(finding.latch_targets)}; synthesis "
                "infers latches ('may not be acceptable to your latch-based "
                "architecture!')",
                remedy="assign in every branch or add a default",
            )
    return findings


def synthesis_interpretation(module: Module) -> Module:
    """The module as a synthesizer reads it: full sensitivity on comb blocks.

    Returns a copy in which every level-sensitive always block is made
    sensitive to everything its body reads.
    """
    # Identity rename gives us a deep copy with the same structure.
    copy = rewrite_module(module, {})
    for block in copy.always_blocks:
        if block.sensitivity.is_edge_triggered():
            continue
        block.sensitivity = Sensitivity(
            items=[SensItem(signal) for signal in sorted(block.reads())]
        )
    return copy


@dataclass
class MismatchReport:
    """Simulation-vs-synthesis divergence on observed signals."""

    diverging: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    @property
    def mismatch(self) -> bool:
        return bool(self.diverging)


def simulation_synthesis_mismatch(
    module: Module,
    observed: Sequence[str],
    until: int = 1_000_000,
) -> MismatchReport:
    """Simulate the model as written vs as synthesis reads it; diff results.

    The stimulus is whatever ``initial`` blocks the module carries, so the
    comparison is apples-to-apples.
    """
    as_written = Simulator(module, FIFO)
    as_written.run(until)
    as_synthesized = Simulator(synthesis_interpretation(module), FIFO)
    as_synthesized.run(until)
    report = MismatchReport()
    for signal in observed:
        written_value = as_written.values[signal]
        synthesized_value = as_synthesized.values[signal]
        if written_value != synthesized_value:
            report.diverging[signal] = (written_value, synthesized_value)
    return report
