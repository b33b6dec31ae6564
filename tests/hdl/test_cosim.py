"""Tests for two-kernel co-simulation and its failure modes."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_cosim_equivalence import UNTIL, bound_kernels, cosim_cases, observed, run_steps

from cadinterop.hdl.cosim import (
    BridgeSignal,
    CoSimulation,
    compare_with_reference,
)
from cadinterop.hdl.parser import parse_module
from cadinterop.hdl.simulator import simulate


def producer_src():
    # Drives 'data' including a tri-state (z) phase via bufif1.
    return parse_module(
        """
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
    )


def consumer_src():
    # Pull-up style consumption: z means 'released' -> sees pulled high.
    return parse_module(
        """
        module consumer ();
          reg din; wire released, seen;
          assign released = din === 1'bz;
          assign seen = released ? 1'b1 : din;
        endmodule
        """
    )


def bridge():
    return [BridgeSignal("left", "data", "din")]


class TestCorrectBridge:
    def test_z_survives_correct_value_mapping(self):
        cosim = CoSimulation(producer_src(), consumer_src(), bridge(), value_mode="correct")
        cosim.run(15)
        assert cosim.value("right", "din") == "z"
        assert cosim.value("right", "seen") == "1"  # pulled high while released

    def test_final_values_propagate(self):
        cosim = CoSimulation(producer_src(), consumer_src(), bridge(), value_mode="correct")
        cosim.run(100)
        assert cosim.value("right", "din") == "0"
        assert cosim.value("right", "seen") == "0"

    def test_matches_monolithic_reference(self):
        reference = simulate(
            parse_module(
                """
                module mono ();
                  reg raw, en; wire data, released, seen;
                  bufif1 b1 (data, raw, en);
                  assign released = data === 1'bz;
                  assign seen = released ? 1'b1 : data;
                  initial begin
                    raw = 1'b1; en = 1'b1;
                    #10 en = 1'b0;
                    #10 en = 1'b1; raw = 1'b0;
                  end
                endmodule
                """
            ),
            until=100,
        )
        cosim = CoSimulation(producer_src(), consumer_src(), bridge(), value_mode="correct")
        cosim.run(100)
        report = compare_with_reference(
            cosim, reference, {"data": ("right", "din"), "seen": ("right", "seen")}
        )
        assert report.exact
        assert report.fidelity == 1.0


class TestValueSetFailure:
    def test_naive_mapping_corrupts_z(self):
        """The paper's value-set inconsistency: z arrives as hard 0."""
        cosim = CoSimulation(producer_src(), consumer_src(), bridge(), value_mode="naive")
        cosim.run(15)
        assert cosim.value("right", "din") == "0"  # should be z
        assert cosim.value("right", "seen") == "0"  # pull-up defeated

    def test_naive_mapping_fidelity_below_one(self):
        reference = simulate(
            parse_module(
                """
                module mono ();
                  reg raw, en; wire data, released, seen;
                  bufif1 b1 (data, raw, en);
                  assign released = data === 1'bz;
                  assign seen = released ? 1'b1 : data;
                  initial begin raw = 1'b1; en = 1'b1; #10 en = 1'b0; end
                endmodule
                """
            ),
            until=15,
        )
        cosim = CoSimulation(producer_src(), consumer_src(), bridge(), value_mode="naive")
        cosim.run(15)
        report = compare_with_reference(
            cosim, reference, {"data": ("right", "din"), "seen": ("right", "seen")}
        )
        assert not report.exact
        assert report.fidelity < 1.0

    def test_bad_value_mode_rejected(self):
        with pytest.raises(ValueError):
            CoSimulation(producer_src(), consumer_src(), bridge(), value_mode="wrong")


class TestBridgeNames:
    def test_unknown_source_named_at_construction(self):
        with pytest.raises(ValueError, match=r"'nope'.*left module 'producer'"):
            CoSimulation(producer_src(), consumer_src(), [BridgeSignal("left", "nope", "din")])

    def test_unknown_target_named_at_construction(self):
        with pytest.raises(ValueError, match=r"'nope'.*right module 'consumer'"):
            CoSimulation(producer_src(), consumer_src(), [BridgeSignal("left", "data", "nope")])

    def test_reverse_direction_checks_the_other_sides(self):
        # A right-to-left copy reads the right module and writes the left.
        with pytest.raises(ValueError, match=r"'data'.*right module 'consumer'"):
            CoSimulation(producer_src(), consumer_src(), [BridgeSignal("right", "data", "din")])


class TestCycleAlignment:
    def round_trip_modules(self):
        left = parse_module(
            """
            module l ();
              reg stim; wire back, out;
              assign out = stim;
              initial begin stim = 1'b0; #10 stim = 1'b1; end
            endmodule
            """
        )
        right = parse_module(
            """
            module r ();
              wire fwd, echo;
              assign echo = ~fwd;
            endmodule
            """
        )
        mapping = [
            BridgeSignal("left", "out", "fwd"),
            BridgeSignal("right", "echo", "back"),
        ]
        return left, right, mapping

    def test_aligned_reaches_fixpoint_within_timestep(self):
        left, right, mapping = self.round_trip_modules()
        cosim = CoSimulation(left, right, mapping, aligned=True)
        cosim.run(20)
        assert cosim.value("right", "fwd") == "1"
        assert cosim.value("left", "back") == "0"

    def test_misaligned_bridge_is_stale(self):
        """One blind exchange per step: the echo lags the forward value."""
        left, right, mapping = self.round_trip_modules()
        cosim = CoSimulation(left, right, mapping, aligned=False)
        cosim.run(10)  # stop exactly at the stimulus edge
        # fwd was exchanged before the right kernel could settle ~fwd and
        # send it back: back is stale (still reflecting the pre-edge value
        # or unknown), unlike the aligned run at the same instant.
        aligned = CoSimulation(*self.round_trip_modules(), aligned=True)
        aligned.run(10)
        assert aligned.value("left", "back") == "0"
        assert cosim.value("left", "back") != "0"

    def test_stepped_misaligned_run_keeps_bridge_timestamps(self):
        """Stepping a misaligned session must not rewind the kernels' clocks.

        Each ``run()`` call used to repeat the time-zero phase and reset
        both kernels to ``now == 0``, so every echo was stamped at t=0.
        """
        left = parse_module(
            """
            module l ();
              reg stim; wire back, out;
              assign out = stim;
              initial begin stim = 1'b0; #10 stim = 1'b1; #10 stim = 1'b0; #10 stim = 1'b1; end
            endmodule
            """
        )
        right = parse_module("module r (); wire fwd, echo; assign echo = ~fwd; endmodule")
        mapping = [
            BridgeSignal("left", "out", "fwd"),
            BridgeSignal("right", "echo", "back"),
        ]
        cosim = CoSimulation(left, right, mapping, aligned=False)
        for until in (0, 10, 20, 30, 40):
            cosim.run(until)
        assert cosim.left.waveform("back") == [(10, "1"), (20, "0"), (30, "1")]
        assert cosim.left.now == cosim.right.now == 30
        assert cosim.exchanges == 4

    def test_run_returns_until(self):
        cosim = CoSimulation(producer_src(), consumer_src(), bridge())
        assert cosim.run(15) == 15
        assert cosim.run(100) == 100

    def test_receiving_kernel_clock_follows_joint_time(self):
        """A kernel with no events of its own still reaches each joint
        time: bridged values are stamped at it and delays run from it."""
        left = parse_module(
            "module l; reg a; initial begin a = 0; #10 a = 1; #10 a = 0; end endmodule"
        )
        right = parse_module("module r; reg i; wire o; assign #3 o = ~i; endmodule")
        cosim = CoSimulation(left, right, [BridgeSignal("left", "a", "i")])
        cosim.run(40)
        assert cosim.right.waveform("i") == [(0, "0"), (10, "1"), (20, "0")]
        assert cosim.right.waveform("o") == [(3, "1"), (13, "0"), (23, "1")]
        assert cosim.right.now == cosim.left.now == 23

    def test_divergent_exchange_detected(self):
        """A cross-kernel combinational loop with an odd number of
        inversions oscillates and the exchange fixpoint never converges."""
        from cadinterop.hdl.ast_nodes import HDLError

        # Loop: left a = rst ? 0 : ~b; right echoes c straight back.  Once
        # rst drops, definite values circulate through one net inversion.
        left = parse_module(
            """
            module l (); reg rst; wire a, b;
            assign a = rst ? 1'b0 : ~b;
            initial begin rst = 1'b1; #5 rst = 1'b0; end
            endmodule
            """
        )
        right = parse_module("module r (); wire c, d; assign d = c; endmodule")
        mapping = [
            BridgeSignal("left", "a", "c"),
            BridgeSignal("right", "d", "b"),
        ]
        cosim = CoSimulation(left, right, mapping, aligned=True)
        with pytest.raises(HDLError):
            cosim.run(10)


class TestSteppedRuns:
    """``run(t1); ...; run(tn)`` is ``run(tn)``, in both alignments."""

    @given(
        case=cosim_cases(),
        cuts=st.lists(st.integers(0, UNTIL), min_size=1, max_size=6),
        value_mode=st.sampled_from(("correct", "naive")),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_stepped_run_matches_single_run(self, case, cuts, value_mode):
        left, right, mapping, iterations = case
        steps = sorted(cuts) + [UNTIL]
        for aligned in (True, False):
            sessions = [
                bound_kernels(CoSimulation(
                    left, right, mapping, value_mode=value_mode, aligned=aligned,
                    max_exchange_iterations=iterations,
                ))
                for _ in range(2)
            ]
            stepped, single = sessions
            stepped_state = observed(stepped, run_steps(stepped, steps))
            assert stepped_state == observed(single, run_steps(single, [UNTIL]))
            for waveforms in stepped_state["waveforms"]:
                for waveform in waveforms.values():
                    times = [time for time, _ in waveform]
                    assert times == sorted(times)
