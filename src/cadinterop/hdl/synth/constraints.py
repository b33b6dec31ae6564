"""Synthesis constraint files: three vendor dialects and migration.

Section 3.2 ("Environment"): "synthesis tools also differ in the
specification or contents of design constraint files, technology libraries,
report generation, and runtime control mechanisms...  These differences
make it nearly impossible to migrate a design synthesis description from
one synthesizer to another without significant effort."

The neutral model is :class:`ConstraintSet`; three vendor dialects
serialize different (overlapping but unequal) subsets of it, so migrating
constraints between tools loses exactly the features the target cannot
express — and :func:`migrate_constraints` reports every loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity


@dataclass
class ConstraintSet:
    """Vendor-neutral synthesis constraints."""

    clock_period: Optional[float] = None  # ns
    clock_port: Optional[str] = None
    input_delays: Dict[str, float] = field(default_factory=dict)
    output_delays: Dict[str, float] = field(default_factory=dict)
    max_fanout: Optional[int] = None
    max_transition: Optional[float] = None
    dont_touch: List[str] = field(default_factory=list)
    multicycle_paths: Dict[str, int] = field(default_factory=dict)  # endpoint -> cycles

    def feature_names(self) -> List[str]:
        used: List[str] = []
        if self.clock_period is not None:
            used.append("clock")
        if self.input_delays:
            used.append("input_delay")
        if self.output_delays:
            used.append("output_delay")
        if self.max_fanout is not None:
            used.append("max_fanout")
        if self.max_transition is not None:
            used.append("max_transition")
        if self.dont_touch:
            used.append("dont_touch")
        if self.multicycle_paths:
            used.append("multicycle")
        return used


class ConstraintDialect:
    """Base: which features a vendor's file format can express."""

    name = "abstract"
    supported = frozenset()

    def dump(self, constraints: ConstraintSet) -> str:  # pragma: no cover
        raise NotImplementedError

    def load(self, text: str) -> ConstraintSet:  # pragma: no cover
        raise NotImplementedError

    def unsupported(self, constraints: ConstraintSet) -> List[str]:
        return [f for f in constraints.feature_names() if f not in self.supported]


class DialectSdcLike(ConstraintDialect):
    """Tcl-command style: the richest of the three."""

    name = "sdc-like"
    supported = frozenset(
        {"clock", "input_delay", "output_delay", "max_fanout", "max_transition",
         "dont_touch", "multicycle"}
    )

    def dump(self, c: ConstraintSet) -> str:
        lines: List[str] = []
        if c.clock_period is not None:
            lines.append(f"create_clock -period {c.clock_period} [get_ports {c.clock_port}]")
        for port, delay in sorted(c.input_delays.items()):
            lines.append(f"set_input_delay {delay} [get_ports {port}]")
        for port, delay in sorted(c.output_delays.items()):
            lines.append(f"set_output_delay {delay} [get_ports {port}]")
        if c.max_fanout is not None:
            lines.append(f"set_max_fanout {c.max_fanout} [current_design]")
        if c.max_transition is not None:
            lines.append(f"set_max_transition {c.max_transition} [current_design]")
        for cell in c.dont_touch:
            lines.append(f"set_dont_touch [get_cells {cell}]")
        for endpoint, cycles in sorted(c.multicycle_paths.items()):
            lines.append(f"set_multicycle_path {cycles} -to [get_pins {endpoint}]")
        return "\n".join(lines) + "\n"

    def load(self, text: str) -> ConstraintSet:
        c = ConstraintSet()
        for line in text.splitlines():
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "create_clock":
                c.clock_period = float(parts[2])
                c.clock_port = parts[4].rstrip("]")
            elif parts[0] == "set_input_delay":
                c.input_delays[parts[3].rstrip("]")] = float(parts[1])
            elif parts[0] == "set_output_delay":
                c.output_delays[parts[3].rstrip("]")] = float(parts[1])
            elif parts[0] == "set_max_fanout":
                c.max_fanout = int(parts[1])
            elif parts[0] == "set_max_transition":
                c.max_transition = float(parts[1])
            elif parts[0] == "set_dont_touch":
                c.dont_touch.append(parts[2].rstrip("]"))
            elif parts[0] == "set_multicycle_path":
                c.multicycle_paths[parts[4].rstrip("]")] = int(parts[1])
        return c


class DialectIniLike(ConstraintDialect):
    """Key=value style: no multicycle, no dont_touch."""

    name = "ini-like"
    supported = frozenset({"clock", "input_delay", "output_delay", "max_fanout"})

    def dump(self, c: ConstraintSet) -> str:
        lines = ["[timing]"]
        if c.clock_period is not None:
            lines.append(f"clock = {c.clock_port} {c.clock_period}")
        for port, delay in sorted(c.input_delays.items()):
            lines.append(f"indelay.{port} = {delay}")
        for port, delay in sorted(c.output_delays.items()):
            lines.append(f"outdelay.{port} = {delay}")
        if c.max_fanout is not None:
            lines.append(f"maxfanout = {c.max_fanout}")
        return "\n".join(lines) + "\n"

    def load(self, text: str) -> ConstraintSet:
        c = ConstraintSet()
        for line in text.splitlines():
            if "=" not in line:
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "clock":
                port, period = value.split()
                c.clock_port, c.clock_period = port, float(period)
            elif key.startswith("indelay."):
                c.input_delays[key[len("indelay.") :]] = float(value)
            elif key.startswith("outdelay."):
                c.output_delays[key[len("outdelay.") :]] = float(value)
            elif key == "maxfanout":
                c.max_fanout = int(value)
        return c


class DialectCsvLike(ConstraintDialect):
    """Tabular style: clock and IO delays only."""

    name = "csv-like"
    supported = frozenset({"clock", "input_delay", "output_delay"})

    def dump(self, c: ConstraintSet) -> str:
        rows = ["kind,name,value"]
        if c.clock_period is not None:
            rows.append(f"clock,{c.clock_port},{c.clock_period}")
        for port, delay in sorted(c.input_delays.items()):
            rows.append(f"indelay,{port},{delay}")
        for port, delay in sorted(c.output_delays.items()):
            rows.append(f"outdelay,{port},{delay}")
        return "\n".join(rows) + "\n"

    def load(self, text: str) -> ConstraintSet:
        c = ConstraintSet()
        for line in text.splitlines()[1:]:
            if not line.strip():
                continue
            kind, name, value = line.split(",")
            if kind == "clock":
                c.clock_port, c.clock_period = name, float(value)
            elif kind == "indelay":
                c.input_delays[name] = float(value)
            elif kind == "outdelay":
                c.output_delays[name] = float(value)
        return c


ALL_DIALECTS: Tuple[ConstraintDialect, ...] = (
    DialectSdcLike(),
    DialectIniLike(),
    DialectCsvLike(),
)


def migrate_constraints(
    constraints: ConstraintSet,
    source: ConstraintDialect,
    target: ConstraintDialect,
    log: Optional[IssueLog] = None,
) -> Tuple[ConstraintSet, List[str]]:
    """Round constraints through the target dialect, reporting what is lost."""
    lost = target.unsupported(constraints)
    if log is not None:
        for feature in lost:
            log.add(
                Severity.WARNING, Category.DATA_LOSS, feature,
                f"constraint feature not expressible in {target.name}",
                tool=target.name,
                remedy="re-enter the constraint manually in the target tool",
            )
    migrated = target.load(target.dump(constraints))
    return migrated, lost
