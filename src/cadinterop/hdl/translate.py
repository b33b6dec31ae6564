"""Verilog -> VHDL-style identifier translation with script-impact report.

Section 3.3 ("Keywords"): "'in' and 'out' are valid Verilog HDL identifiers
... that are reserved keywords in VHDL.  Even if a translation tool can
rename Verilog identifiers so that VHDL syntax errors are avoided, the
identifier names will no longer match between models, and simulation
analysis scripts may need to be modified."

:func:`plan_renames` computes a safe, collision-free rename for every
identifier that is illegal on the VHDL side (keywords, ``$``, trailing or
doubled underscores); :func:`apply_renames` rewrites a module; and
:func:`script_impact` lists which lines of the user's analysis scripts
reference renamed identifiers — the knock-on cost the paper warns about.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.common.namemap import NameMap
from cadinterop.hdl.ast_nodes import Module, rewrite_module
from cadinterop.hdl.names import is_legal_vhdl_identifier


def vhdl_safe_transform(name: str) -> str:
    """Preferred VHDL-legal form of a Verilog identifier."""
    safe = name.replace("$", "_d_")
    safe = re.sub(r"_+", "_", safe)
    safe = safe.strip("_") or "sig"
    if not safe[0].isalpha():
        safe = "s_" + safe
    if not is_legal_vhdl_identifier(safe):
        safe = safe + "_sig"
    return safe


@dataclass
class TranslationPlan:
    """The rename decisions for one module."""

    renames: Dict[str, str] = field(default_factory=dict)
    name_map: NameMap = field(default_factory=NameMap)

    @property
    def renamed_count(self) -> int:
        return len(self.renames)


def plan_renames(names: Iterable[str], log: Optional[IssueLog] = None) -> TranslationPlan:
    """Decide a VHDL-safe name for every identifier; identity where legal."""
    plan = TranslationPlan(name_map=NameMap(vhdl_safe_transform))
    for name in names:
        if is_legal_vhdl_identifier(name):
            plan.name_map.force(name, name, reason="already legal")
            continue
        new_name = plan.name_map.map(name, reason="illegal in VHDL")
        plan.renames[name] = new_name
        if log is not None:
            log.add(
                Severity.NOTE, Category.NAME_MAPPING, name,
                f"renamed to {new_name!r} for VHDL legality",
                remedy="update simulation analysis scripts referencing the old name",
            )
    return plan


def apply_renames(module: Module, plan: TranslationPlan) -> Module:
    """Rewrite a module's signals per the plan."""
    return rewrite_module(module, plan.renames)


def translate_module(module: Module, log: Optional[IssueLog] = None) -> Tuple[Module, TranslationPlan]:
    """Plan and apply VHDL-safe renames for one module."""
    plan = plan_renames(module.signal_names(), log)
    return apply_renames(module, plan), plan


_WORD = re.compile(r"[A-Za-z_$][A-Za-z_0-9$]*")


@dataclass
class ScriptImpact:
    """Which analysis-script lines break when identifiers are renamed."""

    affected: List[Tuple[int, str, str]] = field(default_factory=list)  # (line#, old name, line text)

    @property
    def broken_lines(self) -> int:
        return len({line for line, _n, _t in self.affected})


def script_impact(script_text: str, plan: TranslationPlan) -> ScriptImpact:
    """Scan an analysis script for references to renamed identifiers."""
    impact = ScriptImpact()
    for line_number, line in enumerate(script_text.splitlines(), start=1):
        for word in _WORD.findall(line):
            if word in plan.renames:
                impact.affected.append((line_number, word, line.strip()))
    return impact


def rewrite_script(script_text: str, plan: TranslationPlan) -> str:
    """Mechanically update a script for the renames (best-effort)."""

    def replace(match: "re.Match[str]") -> str:
        word = match.group(0)
        return plan.renames.get(word, word)

    return _WORD.sub(replace, script_text)
