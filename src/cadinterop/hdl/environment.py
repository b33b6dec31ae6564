"""Simulation environment differences: invocation dialects per simulator.

Paper Section 3.1 ("Environment"): "In addition to language, other elements
of the simulation environment have not been standardized.  If the design
environment uses multiple simulators, it is difficult to write a single
script for running the simulation, as the command line options and user
interaction mechanisms vary considerably between interpreted and compiled
code simulators."

A :class:`SimulationRequest` states *what* to simulate (sources, defines,
plusargs, run length) in tool-neutral terms; each
:class:`SimulatorInvocation` dialect lowers it to that simulator's actual
command sequence — one step for an interpreted simulator, a
compile/elaborate/run pipeline for a compiled-code one.  The
divergence (and the per-feature losses) is what makes a single shared
run-script impossible, and :func:`generate_run_scripts` emits the per-tool
scripts teams actually maintained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity


@dataclass(frozen=True)
class SimulationRequest:
    """Tool-neutral description of one simulation run."""

    sources: Tuple[str, ...]
    top: str
    defines: Tuple[Tuple[str, str], ...] = ()
    include_dirs: Tuple[str, ...] = ()
    plusargs: Tuple[str, ...] = ()
    run_until: Optional[int] = None  # time units; None = run to completion
    interactive: bool = False
    dump_waves: bool = False


class SimulatorInvocation:
    """Base: lower a request to this simulator's command lines."""

    name = "abstract"
    kind = "abstract"  # "interpreted" or "compiled"
    #: request features this dialect cannot express
    unsupported: Tuple[str, ...] = ()

    def commands(self, request: SimulationRequest, log: Optional[IssueLog] = None) -> List[str]:
        raise NotImplementedError

    def _flag_losses(self, request: SimulationRequest, log: Optional[IssueLog]) -> None:
        if log is None:
            return
        if "interactive" in self.unsupported and request.interactive:
            log.add(
                Severity.WARNING, Category.ENVIRONMENT, self.name,
                "interactive debugging is not supported by this simulator's batch flow",
                tool=self.name,
                remedy="use the vendor GUI separately",
            )
        if "plusargs" in self.unsupported and request.plusargs:
            log.add(
                Severity.WARNING, Category.ENVIRONMENT, self.name,
                f"plusargs {list(request.plusargs)} have no equivalent; behavior differs",
                tool=self.name,
                remedy="encode the options as defines and recompile",
            )


class XlLikeInvocation(SimulatorInvocation):
    """Interpreted simulator: a single command line does everything."""

    name = "xl-like"
    kind = "interpreted"

    def commands(self, request: SimulationRequest, log: Optional[IssueLog] = None) -> List[str]:
        self._flag_losses(request, log)
        parts = ["xlsim"]
        for directory in request.include_dirs:
            parts.append(f"+incdir+{directory}")
        for name, value in request.defines:
            parts.append(f"+define+{name}={value}" if value else f"+define+{name}")
        parts.extend(request.sources)
        parts.extend(request.plusargs)
        if request.run_until is not None:
            parts.append(f"+stop_at+{request.run_until}")
        parts.append("-s" if request.interactive else "-R")
        if request.dump_waves:
            parts.append("+dump")
        return [" ".join(parts)]


class TurboLikeInvocation(SimulatorInvocation):
    """Compiled-code simulator: compile, elaborate, then run."""

    name = "turbo-like"
    kind = "compiled"
    unsupported = ("interactive", "plusargs")

    def commands(self, request: SimulationRequest, log: Optional[IssueLog] = None) -> List[str]:
        self._flag_losses(request, log)
        compile_parts = ["tcompile"]
        for directory in request.include_dirs:
            compile_parts.append(f"-I {directory}")
        for name, value in request.defines:
            compile_parts.append(f"-D{name}={value}" if value else f"-D{name}")
        compile_parts.extend(request.sources)
        elaborate = f"telab {request.top} -o {request.top}.sim"
        run_parts = [f"./{request.top}.sim"]
        if request.run_until is not None:
            run_parts.append(f"--until {request.run_until}")
        if request.dump_waves:
            run_parts.append("--wave out.wv")
        return [" ".join(compile_parts), elaborate, " ".join(run_parts)]


class Pc8LikeInvocation(SimulatorInvocation):
    """PC-hosted simulator: menu-driven, batch via a control file."""

    name = "pc8-like"
    kind = "interpreted"
    unsupported = ("plusargs",)

    def commands(self, request: SimulationRequest, log: Optional[IssueLog] = None) -> List[str]:
        self._flag_losses(request, log)
        control_lines = [f"LOAD {source}" for source in request.sources]
        control_lines.append(f"TOP {request.top}")
        for name, value in request.defines:
            control_lines.append(f"SET {name} {value}")
        control_lines.append(
            f"RUN {request.run_until}" if request.run_until is not None else "RUN"
        )
        if request.dump_waves:
            control_lines.append("TRACE ALL")
        control_lines.append("QUIT")
        return [
            "echo '" + "\\n".join(control_lines) + "' > sim.ctl",
            "PCSIM.EXE @sim.ctl",
        ]


ALL_INVOCATIONS: Tuple[SimulatorInvocation, ...] = (
    XlLikeInvocation(),
    TurboLikeInvocation(),
    Pc8LikeInvocation(),
)


def single_script_possible(
    request: SimulationRequest,
    simulators: Sequence[SimulatorInvocation] = ALL_INVOCATIONS,
) -> bool:
    """Could one script drive every simulator?  (The paper: no.)

    True only if every dialect lowers the request to the *same* command
    sequence — which never happens across interpreted and compiled tools.
    """
    sequences = {tuple(sim.commands(request)) for sim in simulators}
    return len(sequences) == 1


def generate_run_scripts(
    request: SimulationRequest,
    simulators: Sequence[SimulatorInvocation] = ALL_INVOCATIONS,
    log: Optional[IssueLog] = None,
) -> Dict[str, str]:
    """One run script per simulator — the workaround teams actually used."""
    scripts: Dict[str, str] = {}
    for simulator in simulators:
        lines = ["#!/bin/sh", f"# run script for {simulator.name} ({simulator.kind})"]
        lines.extend(simulator.commands(request, log))
        scripts[simulator.name] = "\n".join(lines) + "\n"
    return scripts
