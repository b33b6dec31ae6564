"""Timing checks with backward-compatibility version semantics.

Section 3.1 ("Backward compatibility"): "Simulator timing models can change
as new versions are released, causing simulation timing results to drift
unless backwards compatibility is specifically addressed.  For example,
Verilog-XL ... supports the '+pre_16a_path' command line option.  This
option forces simulators with version 1.6a or later to use the same timing
check behavior as was used prior to the 1.6a version."

The modelled semantic change (representative of the real 1.6a drift): how a
setup/hold window treats an event landing *exactly on* the window boundary.

* pre-1.6a behavior: boundary-equal events do **not** violate (strict
  inequality — a data edge exactly ``limit`` before the clock passes).
* 1.6a-and-later behavior: boundary-equal events **do** violate
  (non-strict inequality).

A model calibrated so data arrives exactly at the limit is therefore clean
on the old version and failing on the new one — unless ``pre_16a_path``
pins the old semantics, which is precisely what users did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

Waveform = Sequence[Tuple[int, str]]


@dataclass(frozen=True)
class SimulatorVersion:
    """A simulator release with its timing-check semantics."""

    name: str
    boundary_violates: bool  # the 1.6a change

    def effective(self, pre_16a_path: bool) -> "SimulatorVersion":
        """Apply the compatibility switch: new versions revert to old rules."""
        if pre_16a_path and self.boundary_violates:
            return SimulatorVersion(self.name + "+pre_16a_path", False)
        return self


V15B = SimulatorVersion("1.5b", boundary_violates=False)
V16A = SimulatorVersion("1.6a", boundary_violates=True)
V20 = SimulatorVersion("2.0", boundary_violates=True)

ALL_VERSIONS: Tuple[SimulatorVersion, ...] = (V15B, V16A, V20)


@dataclass(frozen=True)
class TimingCheck:
    """A $setup/$hold/$width-style check between two signals."""

    kind: str  # "setup", "hold", "width"
    data: str
    reference: str  # clock for setup/hold; ignored for width
    limit: int
    reference_edge: str = "posedge"

    KINDS = ("setup", "hold", "width")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown timing check kind {self.kind!r}")
        if self.limit <= 0:
            raise ValueError("timing limit must be positive")


@dataclass
class Violation:
    check: TimingCheck
    time: int
    observed: int
    message: str


def _edges(waveform: Waveform, edge: str) -> List[int]:
    times: List[int] = []
    previous = "x"
    for time, value in waveform:
        if edge == "posedge" and value == "1" and previous != "1":
            times.append(time)
        elif edge == "negedge" and value == "0" and previous != "0":
            times.append(time)
        elif edge == "any" and value != previous:
            times.append(time)
        previous = value
    return times


def _changes(waveform: Waveform) -> List[int]:
    return _edges(waveform, "any")


class TimingChecker:
    """Evaluates timing checks against recorded waveforms for one version."""

    def __init__(self, version: SimulatorVersion, pre_16a_path: bool = False) -> None:
        self.version = version.effective(pre_16a_path)

    def _violates(self, observed: int, limit: int) -> bool:
        if self.version.boundary_violates:
            return observed <= limit and observed >= 0
        return observed < limit and observed >= 0

    def check(
        self,
        check: TimingCheck,
        waveforms: Dict[str, Waveform],
    ) -> List[Violation]:
        data_wave = waveforms[check.data]
        violations: List[Violation] = []
        if check.kind == "width":
            times = _changes(data_wave)
            for first, second in zip(times, times[1:]):
                width = second - first
                if self._violates(width, check.limit):
                    violations.append(
                        Violation(
                            check, second, width,
                            f"pulse width {width} on {check.data!r} "
                            f"(limit {check.limit}, {self.version.name})",
                        )
                    )
            return violations

        reference_wave = waveforms[check.reference]
        clock_times = _edges(reference_wave, check.reference_edge)
        data_times = _changes(data_wave)
        for clock_time in clock_times:
            if check.kind == "setup":
                # Data changes in the window [clock - limit, clock).
                candidates = [t for t in data_times if t <= clock_time]
                if not candidates:
                    continue
                margin = clock_time - max(candidates)
                if self._violates(margin, check.limit):
                    violations.append(
                        Violation(
                            check, clock_time, margin,
                            f"setup {margin} < limit {check.limit} on {check.data!r} "
                            f"@ {check.reference!r} edge t={clock_time} "
                            f"({self.version.name})",
                        )
                    )
            else:  # hold
                candidates = [t for t in data_times if t >= clock_time]
                if not candidates:
                    continue
                margin = min(candidates) - clock_time
                if self._violates(margin, check.limit):
                    violations.append(
                        Violation(
                            check, clock_time, margin,
                            f"hold {margin} < limit {check.limit} on {check.data!r} "
                            f"@ {check.reference!r} edge t={clock_time} "
                            f"({self.version.name})",
                        )
                    )
        return violations

    def check_all(
        self,
        checks: Sequence[TimingCheck],
        waveforms: Dict[str, Waveform],
    ) -> List[Violation]:
        violations: List[Violation] = []
        for check in checks:
            violations.extend(self.check(check, waveforms))
        return violations


@dataclass
class DriftReport:
    """Timing results per simulator version, for the drift experiment."""

    per_version: Dict[str, int] = field(default_factory=dict)

    @property
    def drifts(self) -> bool:
        return len(set(self.per_version.values())) > 1


def version_drift(
    checks: Sequence[TimingCheck],
    waveforms: Dict[str, Waveform],
    versions: Sequence[SimulatorVersion] = ALL_VERSIONS,
    pre_16a_path: bool = False,
) -> DriftReport:
    """Violation counts for each version, with or without the compat flag.

    Without the flag, results drift across the 1.6a boundary; with it,
    every version reproduces the pre-1.6a counts.
    """
    report = DriftReport()
    for version in versions:
        checker = TimingChecker(version, pre_16a_path=pre_16a_path)
        report.per_version[version.name] = len(checker.check_all(checks, waveforms))
    return report
