"""Race detection by personality-ensemble simulation (paper Section 3.1).

"Typically, if different simulators give different results when simulating
the same model, there is a race condition in the model being simulated, and
the potential for a bug in the real hardware.  However, determining whether
a discrepancy between the simulations is due to a model race condition or
to a simulator bug can be troublesome."

:func:`detect_races` runs one model under an ensemble of scheduling
personalities and compares final values and waveforms of the observed
signals.  Divergence across *legal* orderings is, by construction, a model
race — the kernel itself is shared, so a simulator bug is ruled out.  The
report pinpoints which signals diverge and under which personality pair,
turning the paper's "troublesome" determination into a mechanical one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.hdl.ast_nodes import Module
from cadinterop.hdl.compile import compile_model
from cadinterop.hdl.personalities import (
    DEFAULT_ENSEMBLE,
    SimulatorPersonality,
    run_personality,
)


@dataclass
class SignalDivergence:
    """One signal that ends (or evolves) differently across personalities."""

    signal: str
    final_values: Dict[str, str]  # personality name -> final value
    waveform_mismatch: bool

    @property
    def outcomes(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.final_values.values())))


@dataclass
class RaceReport:
    """Result of an ensemble run."""

    module_name: str
    personalities: List[str]
    divergences: List[SignalDivergence] = field(default_factory=list)
    log: IssueLog = field(default_factory=IssueLog)

    @property
    def has_race(self) -> bool:
        return bool(self.divergences)

    @property
    def racy_signals(self) -> List[str]:
        return [d.signal for d in self.divergences]

    def summary(self) -> str:
        if not self.has_race:
            return (
                f"{self.module_name}: no divergence across "
                f"{len(self.personalities)} personalities (race-free)"
            )
        return (
            f"{self.module_name}: RACE — {len(self.divergences)} signal(s) diverge "
            f"across personalities: {', '.join(self.racy_signals)}"
        )


def detect_races(
    module: Module,
    observed: Optional[Sequence[str]] = None,
    personalities: Sequence[SimulatorPersonality] = DEFAULT_ENSEMBLE,
    until: int = 1_000_000,
) -> RaceReport:
    """Simulate under every personality and compare observed signals.

    ``observed`` defaults to every declared signal.  Both final values and
    full waveforms are compared: a transient glitch that converges is still
    a divergence (some downstream tool may sample mid-glitch).

    The module is lowered to a
    :class:`~cadinterop.hdl.compile.CompiledModel` exactly once and every
    personality run is a cheap ``Simulator(model, policy)`` spawn.
    """
    if len(personalities) < 2:
        raise ValueError("need at least two personalities to compare")
    signals = list(observed) if observed is not None else list(module.nets)
    report = RaceReport(module.name, [p.name for p in personalities])

    compiled = compile_model(module)
    finals: Dict[str, Dict[str, str]] = {s: {} for s in signals}
    waves: Dict[str, Dict[str, List[Tuple[int, str]]]] = {s: {} for s in signals}
    for personality in personalities:
        sim = run_personality(
            module, personality, until=until, trace=signals, compiled=compiled,
        )
        for signal in signals:
            finals[signal][personality.name] = sim.value(signal)
            waves[signal][personality.name] = sim.waveform(signal)

    for signal in signals:
        final_set = set(finals[signal].values())
        wave_set = {tuple(w) for w in waves[signal].values()}
        if len(final_set) > 1 or len(wave_set) > 1:
            divergence = SignalDivergence(
                signal=signal,
                final_values=dict(finals[signal]),
                waveform_mismatch=len(wave_set) > 1,
            )
            report.divergences.append(divergence)
            report.log.add(
                Severity.ERROR, Category.SEMANTICS, signal,
                f"simulation outcome depends on event ordering: "
                f"{finals[signal]}",
                remedy="model race condition — rewrite with nonblocking "
                "assignments or explicit ordering; potential bug in the real hardware",
            )
    if not report.divergences:
        report.log.add(
            Severity.INFO, Category.SEMANTICS, module.name,
            f"deterministic across {len(personalities)} legal event orderings",
        )
    return report
