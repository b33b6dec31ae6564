"""Identifier rules across HDL tools (paper Section 3.3).

Every naming hazard the paper enumerates is modelled:

* **Name length** — "several PC based simulators consider only the first
  eight characters as significant", aliasing ``cntr_reset1``/``cntr_reset2``
  onto ``cntr_res``.  :func:`find_truncation_aliases` detects the hazard;
  tool profiles carry a ``significant_chars`` field.
* **Escaped identifiers** — Verilog names beginning with ``\\`` and ending
  at whitespace; some tools mis-infer meaning from characters like ``[]``
  (bus bit) or ``*`` (active low) inside them.
* **Keywords** — "in" and "out" are legal Verilog names but VHDL keywords;
  :func:`keyword_clashes` finds them, :mod:`cadinterop.hdl.translate` fixes
  them.
* **Hierarchy removal** — flattening joins path names with a separator; the
  reversible map lives in :mod:`cadinterop.hdl.flatten` on top of
  :class:`cadinterop.common.namemap.NameMap`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

VERILOG_KEYWORDS: FrozenSet[str] = frozenset(
    """always and assign begin buf bufif0 bufif1 case casex casez cmos deassign
    default defparam disable edge else end endcase endfunction endmodule
    endprimitive endspecify endtable endtask event for force forever fork
    function highz0 highz1 if initial inout input integer join large
    macromodule medium module nand negedge nmos nor not notif0 notif1 or
    output parameter pmos posedge primitive pull0 pull1 pulldown pullup
    rcmos real realtime reg release repeat rnmos rpmos rtran rtranif0
    rtranif1 scalared small specify specparam strong0 strong1 supply0
    supply1 table task time tran tranif0 tranif1 tri tri0 tri1 triand
    trior trireg vectored wait wand weak0 weak1 while wire wor xnor xor
    """.split()
)

VHDL_KEYWORDS: FrozenSet[str] = frozenset(
    """abs access after alias all and architecture array assert attribute
    begin block body buffer bus case component configuration constant
    disconnect downto else elsif end entity exit file for function generate
    generic group guarded if impure in inertial inout is label library
    linkage literal loop map mod nand new next nor not null of on open or
    others out package port postponed procedure process pure range record
    register reject rem report return rol ror select severity signal shared
    sla sll sra srl subtype then to transport type unaffected units until
    use variable wait when while with xnor xor
    """.split()
)

_VERILOG_SIMPLE_ID = re.compile(r"^[A-Za-z_][A-Za-z_0-9$]*$")
_VHDL_ID = re.compile(r"^[A-Za-z][A-Za-z_0-9]*$")


def is_legal_verilog_identifier(name: str) -> bool:
    """Simple (non-escaped) Verilog identifier legality."""
    return bool(_VERILOG_SIMPLE_ID.match(name)) and name not in VERILOG_KEYWORDS


def is_legal_vhdl_identifier(name: str) -> bool:
    """VHDL basic identifier: no leading/trailing/double underscore, no $."""
    if not _VHDL_ID.match(name):
        return False
    if name.lower() in VHDL_KEYWORDS:
        return False
    if name.endswith("_") or "__" in name:
        return False
    return True


def keyword_clashes(names: Iterable[str], target_keywords: FrozenSet[str] = VHDL_KEYWORDS) -> List[str]:
    """Names legal in the source language but reserved in the target.

    The paper's example: ``in`` and ``out`` are valid Verilog signal names
    and VHDL keywords.
    """
    return [name for name in names if name.lower() in target_keywords]


# ---------------------------------------------------------------------------
# Escaped identifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EscapedName:
    """A Verilog escaped identifier: ``\\`` + body, terminated by whitespace."""

    body: str

    @property
    def source_text(self) -> str:
        return "\\" + self.body + " "


def parse_escaped(text: str) -> Tuple[EscapedName, str]:
    """Parse an escaped identifier at the start of ``text``.

    Returns the name and the remaining text.  The terminating whitespace is
    required — tools that forget it run the next token into the name, one
    of the confusions the paper reports.
    """
    if not text.startswith("\\"):
        raise ValueError("escaped identifier must start with backslash")
    for index in range(1, len(text)):
        if text[index].isspace():
            body = text[1:index]
            if not body:
                raise ValueError("empty escaped identifier")
            return EscapedName(body), text[index + 1 :]
    raise ValueError("escaped identifier not terminated by whitespace")


def naive_meaning_inference(name: str) -> Optional[str]:
    """The over-eager interpretation some analysis tools apply.

    "Some analysis tools always assume that the use of [] implies a bit on
    a bus, or a * implies an active low signal.  Such specific
    interpretations are not valid across all tools."  Returns the bogus
    inference a naive tool would make, or None.
    """
    if "[" in name and "]" in name:
        return "bus-bit"
    if "*" in name:
        return "active-low"
    return None


# ---------------------------------------------------------------------------
# Truncation aliasing
# ---------------------------------------------------------------------------


def find_truncation_aliases(names: Iterable[str], significant: int = 8) -> Dict[str, List[str]]:
    """Groups of names identical in their first ``significant`` characters.

    Returns prefix -> sorted list of colliding names (groups of two or
    more only).  This is the exact hazard of the paper's PC simulators.
    """
    groups: Dict[str, List[str]] = {}
    for name in names:
        groups.setdefault(name[:significant], []).append(name)
    return {
        prefix: sorted(members)
        for prefix, members in groups.items()
        if len(members) > 1
    }


def safe_under_truncation(names: Iterable[str], significant: int = 8) -> bool:
    return not find_truncation_aliases(names, significant)


@dataclass(frozen=True)
class NamingConvention:
    """A project naming convention, checkable before the project starts.

    The paper: "Before beginning a project, a user should study the naming
    conventions used by the tools he will use, and adopt a naming
    convention which will minimize problems such as those listed above."
    """

    max_length: int = 8
    target_keyword_sets: Tuple[FrozenSet[str], ...] = (VERILOG_KEYWORDS, VHDL_KEYWORDS)
    forbid_dollar: bool = True
    forbid_escaped: bool = True

    def violations(self, names: Iterable[str]) -> List[Tuple[str, str]]:
        """(name, reason) pairs for every convention violation."""
        result: List[Tuple[str, str]] = []
        seen: List[str] = []
        for name in names:
            seen.append(name)
            if len(name) > self.max_length:
                result.append((name, f"longer than {self.max_length} significant characters"))
            for keywords in self.target_keyword_sets:
                if name.lower() in keywords:
                    result.append((name, "reserved keyword in a target language"))
                    break
            if self.forbid_dollar and "$" in name:
                result.append((name, "contains '$' (not portable to VHDL)"))
            if self.forbid_escaped and name.startswith("\\"):
                result.append((name, "escaped identifier (tool interpretation varies)"))
        for prefix, members in find_truncation_aliases(seen, self.max_length).items():
            result.append((", ".join(members), f"alias to {prefix!r} after truncation"))
        return result
