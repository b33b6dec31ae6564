"""Two-kernel co-simulation with explicit failure modes.

Section 3.1 ("Co-simulation"): "Making two simulation tools work together,
specially a Verilog HDL - VHDL co-simulation, is typically problematic.
Although co-simulation attempts have been made by all major CAD vendors,
most have fallen short of their targets.  Inconsistencies in the signal
value set (e.g. 0, 1, x, and z) and in the simulation cycle definition are
common sources of problems."

Both failure sources are reproducible switches on :class:`CoSimulation`:

* ``value_mode`` — ``"correct"`` converts boundary values through the
  proper 4↔9 value projections (:func:`cadinterop.hdl.logic.to4`); the
  ``"naive"`` mode uses the legacy shortcut that forces ``z``/``x``/weak
  levels to ``0``, corrupting tristate and unknown propagation.
* ``aligned`` — ``True`` iterates exchange+settle to a fixpoint inside each
  simulation time (a consistent joint cycle definition); ``False`` does a
  single exchange per time step, so cross-kernel combinational paths see
  values one exchange stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from cadinterop.hdl.ast_nodes import HDLError, Module
from cadinterop.hdl.compile import CompiledModel
from cadinterop.hdl.logic import Logic4, naive_to4, to4, to9
from cadinterop.hdl.simulator import FIFO, OrderingPolicy, Simulator
from cadinterop.obs import get_lineage, get_metrics, get_tracer


@dataclass(frozen=True)
class BridgeSignal:
    """One boundary signal: source side/name -> target side/name."""

    source_side: str  # "left" or "right"
    source: str
    target: str


def _correct_convert(value: str) -> str:
    return to4(to9(value))


def _naive_convert(value: str) -> str:
    return naive_to4(to9(value))


#: value mode -> the boundary conversion of every 4-value level.  Kernel
#: values are always 0/1/x/z, so four entries cover every copy; in
#: ``correct`` mode the table is the identity.
_CONVERSIONS: Dict[str, Dict[str, str]] = {
    mode: {value: convert(value) for value in Logic4.VALUES}
    for mode, convert in (("correct", _correct_convert), ("naive", _naive_convert))
}

#: One pre-resolved bridge copy: (source values, source name, target
#: kernel, target values, target name, conversion table).
_Wire = Tuple[Dict[str, str], str, Simulator, Dict[str, str], str, Dict[str, str]]


class CoSimulation:
    """Lock-step co-simulation of two modules over a signal bridge.

    :meth:`run` may be called repeatedly with growing ``until``: the
    session keeps its joint time, so ``run(t1); run(t2)`` is ``run(t2)``.
    """

    def __init__(
        self,
        left: Union[Module, CompiledModel],
        right: Union[Module, CompiledModel],
        bridge: Sequence[BridgeSignal],
        value_mode: str = "correct",
        aligned: bool = True,
        left_policy: OrderingPolicy = FIFO,
        right_policy: OrderingPolicy = FIFO,
        max_exchange_iterations: int = 16,
    ) -> None:
        if value_mode not in _CONVERSIONS:
            raise ValueError(f"unknown value mode {value_mode!r}")
        # Either side may be a pre-built CompiledModel: repeated co-sim
        # sessions over the same sides then elaborate once, not per session.
        self.left = Simulator(left, left_policy)
        self.right = Simulator(right, right_policy)
        # The kernels see one tiny run() per joint time step; the cosim span
        # below covers the whole session, so keep the per-run spans quiet.
        self.left._obs_quiet = True
        self.right._obs_quiet = True
        self.bridge = list(bridge)
        self.aligned = aligned
        self.exchanges = 0
        self.max_exchange_iterations = max_exchange_iterations
        self._started = False
        table = _CONVERSIONS[value_mode]
        sides = {"left": (self.left, self.right), "right": (self.right, self.left)}
        self._wires: List[_Wire] = []
        for signal in self.bridge:
            if signal.source_side not in sides:
                raise ValueError(f"bad bridge side {signal.source_side!r}")
            source_sim, target_sim = sides[signal.source_side]
            for sim, name in ((source_sim, signal.source), (target_sim, signal.target)):
                if name not in sim.values:
                    side = "left" if sim is self.left else "right"
                    raise ValueError(
                        f"bridge signal {name!r} is not a net of the {side} "
                        f"module {sim.module.name!r}"
                    )
            self._wires.append((
                source_sim.values, signal.source,
                target_sim, target_sim.values, signal.target, table,
            ))

    def _exchange(self) -> List[Simulator]:
        """Copy boundary values across; returns the kernels written to."""
        self.exchanges += 1
        written: List[Simulator] = []
        lineage = get_lineage()
        record = lineage.record if lineage.enabled else None
        for source_values, source, target_sim, target_values, target, table in self._wires:
            raw = source_values[source]
            value = table[raw]
            if value != raw and record is not None:
                # A boundary coercion happened: lossless projection between
                # the value sets is a transform, the naive shortcut diverging
                # from the correct projection weakens semantics.
                verb = (
                    "transformed" if value == _CONVERSIONS["correct"][raw]
                    else "approximated"
                )
                record(
                    "signal", f"{source}->{target}",
                    "cosim:exchange", verb, detail=f"{raw} -> {value}",
                )
            if target_values[target] != value:
                target_sim.set_signal(target, value)
                if target_sim not in written:
                    written.append(target_sim)
        return written

    def _next_time(self) -> Optional[int]:
        times = [
            t for t in (self.left.next_event_time(), self.right.next_event_time())
            if t is not None
        ]
        return min(times) if times else None

    def run(self, until: int) -> int:
        """Co-simulate to joint time ``until``; returns ``until``.

        The first call also settles time zero and makes the initial
        exchange; later calls resume from the last joint time reached.
        """
        exchanges_before = self.exchanges
        with get_tracer().span(
            "hdl:cosim",
            left=self.left.module.name,
            right=self.right.module.name,
            until=until,
            aligned=self.aligned,
        ) as span, get_lineage().context(
            design=f"{self.left.module.name}+{self.right.module.name}"
        ):
            if not self._started:
                self._started = True
                self._advance(0)
                self._exchange_phase()

            while True:
                next_time = self._next_time()
                if next_time is None or next_time > until:
                    break
                self._advance(next_time)
                self._exchange_phase()
            span.set(exchanges=self.exchanges - exchanges_before)
        get_metrics().counter("hdl.cosim.exchanges").inc(
            self.exchanges - exchanges_before
        )
        return until

    def _advance(self, time: int) -> None:
        """Bring both kernels to the joint time ``time``.

        A kernel with no event of its own at ``time`` stops at its last
        one; its clock must still reach ``time``, or values it receives in
        the exchange are stamped — and delays scheduled — from a stale now.
        """
        for sim in (self.left, self.right):
            sim.run(time)
            sim.now = time

    def _exchange_phase(self) -> None:
        if not self.aligned:
            # Misaligned cycle definition: one blind exchange, and the
            # receiving kernel does not re-settle until its next own event.
            self._exchange()
            return
        for _ in range(self.max_exchange_iterations):
            written = self._exchange()
            if not written:
                return
            # Let the kernels that received values settle the consequences
            # within this time.  A kernel nothing was written to has already
            # settled this time (nothing ready, no NBA, no event due), so
            # running it again would change nothing.
            for sim in (self.left, self.right):
                if sim in written:
                    sim.run(sim.now)
        raise HDLError(
            "co-simulation exchange did not converge "
            f"within {self.max_exchange_iterations} iterations "
            "(cross-kernel combinational loop?)"
        )

    # -- results -------------------------------------------------------------

    def value(self, side: str, signal: str) -> str:
        return (self.left if side == "left" else self.right).values[signal]


@dataclass
class FidelityReport:
    """Comparison of a co-simulated run against a monolithic reference."""

    compared: int = 0
    mismatches: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def fidelity(self) -> float:
        if not self.compared:
            return 1.0
        return 1.0 - len(self.mismatches) / self.compared

    @property
    def exact(self) -> bool:
        return not self.mismatches


def compare_with_reference(
    cosim: CoSimulation,
    reference: Simulator,
    signal_map: Dict[str, Tuple[str, str]],
) -> FidelityReport:
    """Compare co-sim results against a single-kernel reference simulation.

    ``signal_map`` maps reference signal name -> (side, signal) in the
    co-simulation.
    """
    report = FidelityReport()
    for reference_name, (side, signal) in sorted(signal_map.items()):
        report.compared += 1
        expected = reference.values[reference_name]
        actual = cosim.value(side, signal)
        if expected != actual:
            report.mismatches.append((reference_name, expected, actual))
    return report
