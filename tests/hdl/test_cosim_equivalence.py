"""Equivalence tests: the pre-resolved co-simulation bridge vs the old one.

:class:`CoSimulation` resolves its bridge once at construction (tuples of
value dicts and a four-entry conversion table per value mode) and settles
only the kernels an exchange wrote to.  :class:`OracleCoSimulation` below is
the bridge as it was before: it looks sides up per copy, converts through
``to4(to9(...))`` with validation, and re-runs both kernels after every
exchange.  For a single ``run(until)`` call the two must agree on
everything observable: the exchange count, final values, full waveforms,
activation counts, the ``cosim:exchange`` lineage records in order, and the
``HDLError`` a divergent or oscillating session raises.

Module pairs come from the kernel differential suite's ``flat_modules``;
bridges are random, in both directions, and include chains whose source is
the previous copy's target on the other side.
"""

from functools import partial
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_kernel_differential import NETS, flat_modules

from cadinterop.hdl.ast_nodes import HDLError
from cadinterop.hdl.compile import compile_model
from cadinterop.hdl.cosim import BridgeSignal, CoSimulation
from cadinterop.hdl.logic import naive_to4, to4, to9
from cadinterop.hdl.parser import parse_module
from cadinterop.hdl.simulator import FIFO, LIFO, Simulator
from cadinterop.obs import (
    LineageRecorder,
    ObsContext,
    get_lineage,
    get_metrics,
    get_tracer,
    installed,
)


# ---------------------------------------------------------------------------
# The bridge before pre-resolution, kept as the oracle
# ---------------------------------------------------------------------------


def _correct_convert(value):
    return to4(to9(value))


def _naive_convert(value):
    return naive_to4(to9(value))


class OracleCoSimulation:
    """Lock-step co-simulation with the per-copy side lookups it used to do."""

    def __init__(
        self,
        left,
        right,
        bridge,
        value_mode="correct",
        aligned=True,
        left_policy=FIFO,
        right_policy=FIFO,
        max_exchange_iterations=16,
    ):
        if value_mode not in ("correct", "naive"):
            raise ValueError(f"unknown value mode {value_mode!r}")
        self.left = Simulator(left, left_policy)
        self.right = Simulator(right, right_policy)
        self.left._obs_quiet = True
        self.right._obs_quiet = True
        self.bridge = list(bridge)
        self.aligned = aligned
        self.exchanges = 0
        self.max_exchange_iterations = max_exchange_iterations
        self._convert = _correct_convert if value_mode == "correct" else _naive_convert
        for signal in self.bridge:
            if signal.source_side not in ("left", "right"):
                raise ValueError(f"bad bridge side {signal.source_side!r}")

    def _side(self, name):
        return self.left if name == "left" else self.right

    def _other(self, name):
        return self.right if name == "left" else self.left

    def _exchange(self):
        self.exchanges += 1
        changed = False
        lineage = get_lineage()
        for signal in self.bridge:
            source_sim = self._side(signal.source_side)
            target_sim = self._other(signal.source_side)
            raw = source_sim.values[signal.source]
            value = self._convert(raw)
            if value != raw and lineage.enabled:
                verb = (
                    "transformed" if value == _correct_convert(raw)
                    else "approximated"
                )
                lineage.record(
                    "signal", f"{signal.source}->{signal.target}",
                    "cosim:exchange", verb, detail=f"{raw} -> {value}",
                )
            if target_sim.values[signal.target] != value:
                target_sim.set_signal(signal.target, value)
                changed = True
        return changed

    def _next_time(self):
        times = [
            t for t in (self.left.next_event_time(), self.right.next_event_time())
            if t is not None
        ]
        return min(times) if times else None

    def run(self, until):
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

    def _advance(self, time):
        for sim in (self.left, self.right):
            sim.run(time)
            sim.now = time

    def _exchange_phase(self):
        if not self.aligned:
            self._exchange()
            return
        for _ in range(self.max_exchange_iterations):
            if not self._exchange():
                return
            self.left.run(self.left.now)
            self.right.run(self.right.now)
        raise HDLError(
            "co-simulation exchange did not converge "
            f"within {self.max_exchange_iterations} iterations "
            "(cross-kernel combinational loop?)"
        )

    def value(self, side, signal):
        return self._side(side).values[signal]


# ---------------------------------------------------------------------------
# Generated sessions
# ---------------------------------------------------------------------------

#: Activations per kernel run: generated zero-delay loops must exhaust it
#: identically on both bridges, and fast.
BUDGET = 400
UNTIL = 60

CONFIGS = [
    {"value_mode": mode, "aligned": aligned, "left_policy": left, "right_policy": right}
    for mode in ("correct", "naive")
    for aligned in (True, False)
    for left, right in ((FIFO, FIFO), (LIFO, LIFO), (FIFO, LIFO))
]


@st.composite
def bridges(draw):
    """One to five copies in either direction; some continue a chain."""
    bridge = []
    for _ in range(draw(st.integers(1, 5))):
        if bridge and draw(st.booleans()):
            # Chain: the previous copy's target feeds a copy back across.
            previous = bridge[-1]
            side = "right" if previous.source_side == "left" else "left"
            source = previous.target
        else:
            side = draw(st.sampled_from(("left", "right")))
            source = draw(st.sampled_from(NETS))
        bridge.append(BridgeSignal(side, source, draw(st.sampled_from(NETS))))
    return bridge


@st.composite
def cosim_cases(draw):
    """(left model, right model, bridge, max exchange iterations)."""
    left = compile_model(draw(flat_modules()))
    right = compile_model(draw(flat_modules()))
    return left, right, draw(bridges()), draw(st.sampled_from((3, 16)))


def bound_kernels(cosim, budget=BUDGET):
    """Give both kernels of ``cosim`` a small activation budget per run."""
    for sim in (cosim.left, cosim.right):
        sim.run = partial(Simulator.run, sim, max_activations=budget)
    return cosim


def run_steps(cosim, steps) -> Optional[str]:
    """Run ``cosim`` to each time in ``steps``; the HDLError text, if any."""
    try:
        for until in steps:
            cosim.run(until)
    except HDLError as exc:
        return str(exc)
    return None


def observed(cosim, error):
    """Everything a session exposes, as one comparable value."""
    return {
        "error": error,
        "exchanges": cosim.exchanges,
        "values": (cosim.left.values, cosim.right.values),
        "waveforms": (cosim.left.waveforms, cosim.right.waveforms),
        "activations": (cosim.left.activations, cosim.right.activations),
        "now": (cosim.left.now, cosim.right.now),
    }


def session(cls, left, right, bridge, until=UNTIL, **options):
    """Run one session with lineage on: (observed state, exchange records)."""
    recorder = LineageRecorder()
    with installed(ObsContext(lineage=recorder)):
        cosim = bound_kernels(cls(left, right, bridge, **options))
        error = run_steps(cosim, [until])
    records = [
        {key: value for key, value in record.items() if key != "span_id"}
        for record in recorder.records()
        if record["stage"] == "cosim:exchange"
    ]
    return observed(cosim, error), records


def assert_bridges_agree(left, right, bridge, until=UNTIL, **options):
    expected = session(OracleCoSimulation, left, right, bridge, until, **options)
    actual = session(CoSimulation, left, right, bridge, until, **options)
    assert actual[0] == expected[0]
    assert actual[1] == expected[1]
    return actual


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

PRODUCER = """
module producer ();
  reg raw, en; wire data;
  bufif1 b1 (data, raw, en);
  initial begin
    raw = 1'b1; en = 1'b1;
    #10 en = 1'b0;
    #10 en = 1'b1; raw = 1'b0;
  end
endmodule
"""

CONSUMER = """
module consumer ();
  reg din; wire released, seen;
  assign released = din === 1'bz;
  assign seen = released ? 1'b1 : din;
endmodule
"""

ROUND_TRIP = (
    """
    module l ();
      reg stim; wire back, out;
      assign out = stim;
      initial begin stim = 1'b0; #10 stim = 1'b1; #10 stim = 1'b0; #10 stim = 1'b1; end
    endmodule
    """,
    "module r (); wire fwd, echo; assign echo = ~fwd; endmodule",
    [BridgeSignal("left", "out", "fwd"), BridgeSignal("right", "echo", "back")],
)

DIVERGENT = (
    """
    module l (); reg rst; wire a, b;
    assign a = rst ? 1'b0 : ~b;
    initial begin rst = 1'b1; #5 rst = 1'b0; end
    endmodule
    """,
    "module r (); wire c, d; assign d = c; endmodule",
    [BridgeSignal("left", "a", "c"), BridgeSignal("right", "d", "b")],
)


class TestHandWrittenSessions:
    @pytest.mark.parametrize("options", CONFIGS)
    def test_tristate_bridge(self, options):
        (state, records) = assert_bridges_agree(
            parse_module(PRODUCER), parse_module(CONSUMER),
            [BridgeSignal("left", "data", "din")], until=100, **options,
        )
        assert state["error"] is None
        # The naive map coerces z: the oracle and the table agree it is a loss.
        assert bool(records) == (options["value_mode"] == "naive")

    @pytest.mark.parametrize("options", CONFIGS)
    def test_round_trip(self, options):
        left, right, bridge = ROUND_TRIP
        assert_bridges_agree(parse_module(left), parse_module(right), bridge, **options)

    def test_divergent_loop_raises_the_same_error(self):
        left, right, bridge = DIVERGENT
        state, _ = assert_bridges_agree(parse_module(left), parse_module(right), bridge)
        assert "did not converge" in state["error"]


class TestGeneratedSessions:
    @given(case=cosim_cases())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_single_run_matches_oracle(self, case):
        left, right, bridge, iterations = case
        for options in CONFIGS:
            assert_bridges_agree(
                left, right, bridge, max_exchange_iterations=iterations, **options
            )
