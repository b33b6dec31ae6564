"""Synthesizable-subset profiles and their intersection (paper Section 3.2).

"For each HDL and synthesis tool, there exists a subset of the HDL that the
synthesis tool can accept.  However, for a given HDL, there is no
standardization of the synthesizable subset across synthesis vendors...
Consequently, if a model will be transported between synthesis tools, it
should be written using only those HDL constructs contained in the
intersection of the vendors' subsets."

A :class:`SubsetProfile` is a vendor's accepted feature set over the
language-feature tags :func:`extract_features` derives from a module.
:func:`intersection` computes the paper's portability rule mechanically,
and :func:`portability_report` tells a user exactly which vendor rejects
which construct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from cadinterop.hdl.ast_nodes import (
    Assign,
    Binary,
    Cond,
    Const,
    Expr,
    If,
    Module,
    Stmt,
    Unary,
)

#: Every feature tag the extractor can produce.
ALL_FEATURES: FrozenSet[str] = frozenset(
    {
        "continuous-assign",
        "assign-delay",
        "gate-primitive",
        "gate-delay",
        "always-level",
        "always-star",
        "always-edge",
        "mixed-edge-level",
        "nonblocking-assign",
        "blocking-assign",
        "blocking-in-edge-block",
        "if-statement",
        "ternary",
        "case-equality",
        "tristate-z",
        "unknown-x",
        "initial-block",
        "multiple-drivers",
        "hierarchy",
    }
)


def _expr_features(expr: Expr, features: Set[str]) -> None:
    if isinstance(expr, Const):
        if expr.value == "z":
            features.add("tristate-z")
        elif expr.value == "x":
            features.add("unknown-x")
    elif isinstance(expr, Unary):
        _expr_features(expr.operand, features)
    elif isinstance(expr, Binary):
        if expr.op in ("===", "!=="):
            features.add("case-equality")
        _expr_features(expr.left, features)
        _expr_features(expr.right, features)
    elif isinstance(expr, Cond):
        features.add("ternary")
        _expr_features(expr.condition, features)
        _expr_features(expr.if_true, features)
        _expr_features(expr.if_false, features)


def _stmt_features(stmt: Stmt, features: Set[str], in_edge_block: bool) -> None:
    if isinstance(stmt, Assign):
        if stmt.nonblocking:
            features.add("nonblocking-assign")
        else:
            features.add("blocking-assign")
            if in_edge_block:
                features.add("blocking-in-edge-block")
        _expr_features(stmt.expr, features)
    elif isinstance(stmt, If):
        features.add("if-statement")
        _expr_features(stmt.condition, features)
        for inner in stmt.then_body:
            _stmt_features(inner, features, in_edge_block)
        for inner in stmt.else_body or []:
            _stmt_features(inner, features, in_edge_block)


def extract_features(module: Module) -> Set[str]:
    """The set of language features a module uses."""
    features: Set[str] = set()
    for assign in module.assigns:
        features.add("continuous-assign")
        if assign.delay:
            features.add("assign-delay")
        _expr_features(assign.expr, features)
    for gate in module.gates:
        features.add("gate-primitive")
        if gate.delay:
            features.add("gate-delay")
        if gate.gate in ("bufif0", "bufif1"):
            features.add("tristate-z")
    for block in module.always_blocks:
        edges = block.sensitivity.is_edge_triggered()
        levels = any(i.edge == "level" for i in block.sensitivity.items)
        if block.sensitivity.star:
            features.add("always-star")
        elif edges and levels:
            features.add("mixed-edge-level")
            features.add("always-edge")
        elif edges:
            features.add("always-edge")
        else:
            features.add("always-level")
        for stmt in block.body:
            _stmt_features(stmt, features, in_edge_block=edges)
    if module.initial_blocks:
        features.add("initial-block")
    for signal in module.nets:
        if len(module.drivers_of(signal)) > 1:
            features.add("multiple-drivers")
            break
    if module.instances:
        features.add("hierarchy")
    return features


@dataclass(frozen=True)
class SubsetProfile:
    """One synthesis vendor's accepted feature set."""

    name: str
    accepted: FrozenSet[str]
    notes: str = ""

    def __post_init__(self) -> None:
        unknown = self.accepted - ALL_FEATURES
        if unknown:
            raise ValueError(f"unknown feature tags: {sorted(unknown)}")

    def violations(self, module: Module) -> List[str]:
        """Features the module uses that this vendor rejects."""
        return sorted(extract_features(module) - self.accepted)

    def accepts(self, module: Module) -> bool:
        return not self.violations(module)


_COMMON = frozenset(
    {
        "continuous-assign",
        "gate-primitive",
        "always-edge",
        "nonblocking-assign",
        "blocking-assign",
        "if-statement",
        "ternary",
        "hierarchy",
    }
)

#: Vendor A: permissive RTL tool — accepts star sensitivity and level
#: blocks, tolerates blocking assigns in sequential blocks.
SYNTH_A = SubsetProfile(
    "synthA",
    _COMMON | frozenset({"always-star", "always-level", "blocking-in-edge-block"}),
    notes="permissive RTL subset; no tristate, no delays",
)

#: Vendor B: strict subset — rejects @(*), demands explicit lists, but
#: supports tristate primitives.
SYNTH_B = SubsetProfile(
    "synthB",
    _COMMON | frozenset({"always-level", "tristate-z", "gate-delay"}),
    notes="strict lists; tristate supported",
)

#: Vendor C: gate-oriented tool — no level-sensitive always at all.
SYNTH_C = SubsetProfile(
    "synthC",
    _COMMON | frozenset({"always-star", "tristate-z", "multiple-drivers"}),
    notes="comb logic must be @(*) or structural",
)

DEFAULT_VENDORS: Tuple[SubsetProfile, ...] = (SYNTH_A, SYNTH_B, SYNTH_C)


def intersection(profiles: Sequence[SubsetProfile]) -> FrozenSet[str]:
    """The portable feature set: constructs every vendor accepts."""
    if not profiles:
        raise ValueError("need at least one profile")
    result = profiles[0].accepted
    for profile in profiles[1:]:
        result = result & profile.accepted
    return result


@dataclass
class PortabilityReport:
    """Which vendors accept a module, and what blocks the rest."""

    module_name: str
    features: Set[str]
    per_vendor: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def portable(self) -> bool:
        return all(not violations for violations in self.per_vendor.values())

    @property
    def accepted_by(self) -> List[str]:
        return sorted(v for v, violations in self.per_vendor.items() if not violations)

    def blocking_features(self) -> Set[str]:
        blocking: Set[str] = set()
        for violations in self.per_vendor.values():
            blocking.update(violations)
        return blocking


def portability_report(
    module: Module, profiles: Sequence[SubsetProfile] = DEFAULT_VENDORS
) -> PortabilityReport:
    report = PortabilityReport(module.name, extract_features(module))
    for profile in profiles:
        report.per_vendor[profile.name] = profile.violations(module)
    return report


def written_in_intersection(
    module: Module, profiles: Sequence[SubsetProfile] = DEFAULT_VENDORS
) -> bool:
    """The paper's portability rule as a predicate."""
    return extract_features(module) <= intersection(profiles)
