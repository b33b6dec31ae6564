"""Tests for the event-driven simulator kernel."""

import pytest

from cadinterop.hdl.ast_nodes import HDLError
from cadinterop.hdl.parser import parse_module
from cadinterop.hdl.simulator import FIFO, LIFO, Simulator, seeded_shuffle_policy, simulate


def run(src, until=1000, policy=FIFO):
    return simulate(parse_module(src), policy=policy, until=until)


class TestCombinational:
    def test_continuous_assign(self):
        sim = run(
            """
            module m (); reg a, b; wire y;
            assign y = a & b;
            initial begin a = 1'b1; b = 1'b1; end
            endmodule
            """
        )
        assert sim.value("y") == "1"

    def test_x_initial_values(self):
        sim = run("module m (); wire y; reg a; assign y = a; endmodule")
        assert sim.value("y") == "x"

    def test_gate_chain(self):
        sim = run(
            """
            module m (); reg a; wire n1, n2;
            not g1 (n1, a);
            not g2 (n2, n1);
            initial a = 1'b0;
            endmodule
            """
        )
        assert sim.value("n1") == "1" and sim.value("n2") == "0"

    def test_assign_delay_transport(self):
        sim = run(
            """
            module m (); reg a; wire y;
            assign #10 y = a;
            initial begin a = 1'b0; #20 a = 1'b1; end
            endmodule
            """
        )
        wave = sim.waveform("y")
        assert (10, "0") in wave and (30, "1") in wave

    def test_inertial_delay_swallows_glitch(self):
        """A pulse shorter than the assign delay never reaches the output."""
        sim = run(
            """
            module m (); reg a; wire y;
            assign #10 y = a;
            initial begin a = 1'b0; #20 a = 1'b1; #3 a = 1'b0; end
            endmodule
            """
        )
        values = [v for _t, v in sim.waveform("y")]
        assert "1" not in values

    def test_multiple_drivers_resolve(self):
        sim = run(
            """
            module m (); reg a, ena, b, enb; wire y;
            bufif1 b1 (y, a, ena);
            bufif1 b2 (y, b, enb);
            initial begin a = 1'b1; ena = 1'b1; b = 1'b0; enb = 1'b0; end
            endmodule
            """
        )
        assert sim.value("y") == "1"

    def test_driver_conflict_is_x(self):
        sim = run(
            """
            module m (); reg a, b; wire y;
            buf b1 (y, a);
            buf b2 (y, b);
            initial begin a = 1'b1; b = 1'b0; end
            endmodule
            """
        )
        assert sim.value("y") == "x"

    def test_tristate_z(self):
        sim = run(
            """
            module m (); reg a, en; wire y;
            bufif1 b1 (y, a, en);
            initial begin a = 1'b1; en = 1'b0; end
            endmodule
            """
        )
        assert sim.value("y") == "z"


class TestProcedural:
    def test_level_sensitive_always(self):
        sim = run(
            """
            module m (); reg a, b, y;
            always @(a or b) y = a | b;
            initial begin a = 1'b0; b = 1'b0; #5 a = 1'b1; end
            endmodule
            """
        )
        assert sim.value("y") == "1"
        assert (5, "1") in sim.waveform("y")

    def test_incomplete_sensitivity_goes_stale(self):
        """The paper's modeling-style trap: out misses changes of c."""
        sim = run(
            """
            module m (); reg a, b, c, out;
            always @(a or b) out = a & b & c;
            initial begin c = 1'b1; a = 1'b1; b = 1'b1; #10 c = 1'b0; end
            endmodule
            """
        )
        # c fell at t=10 but out was not re-evaluated: stale 1.
        assert sim.value("out") == "1"

    def test_star_sensitivity_tracks_all_reads(self):
        sim = run(
            """
            module m (); reg a, b, c, out;
            always @(*) out = a & b & c;
            initial begin c = 1'b1; a = 1'b1; b = 1'b1; #10 c = 1'b0; end
            endmodule
            """
        )
        assert sim.value("out") == "0"

    def test_posedge_flop(self):
        sim = run(
            """
            module m (); reg clk, d, q;
            always @(posedge clk) q <= d;
            initial begin clk = 1'b0; d = 1'b1;
              #5 clk = 1'b1; #5 clk = 1'b0; d = 1'b0; #5 clk = 1'b1; end
            endmodule
            """
        )
        wave = sim.waveform("q")
        assert (5, "1") in wave and (15, "0") in wave

    def test_negedge(self):
        sim = run(
            """
            module m (); reg clk, q;
            always @(negedge clk) q <= 1'b1;
            initial begin q = 1'b0; clk = 1'b1; #5 clk = 1'b0; end
            endmodule
            """
        )
        assert (5, "1") in sim.waveform("q")

    def test_nonblocking_swap(self):
        """The classic: nonblocking assignments swap cleanly."""
        sim = run(
            """
            module m (); reg clk, a, b;
            always @(posedge clk) a <= b;
            always @(posedge clk) b <= a;
            initial begin a = 1'b0; b = 1'b1; clk = 1'b0; #5 clk = 1'b1; end
            endmodule
            """
        )
        assert sim.value("a") == "1" and sim.value("b") == "0"

    def test_nonblocking_swap_order_independent(self):
        src = """
            module m (); reg clk, a, b;
            always @(posedge clk) a <= b;
            always @(posedge clk) b <= a;
            initial begin a = 1'b0; b = 1'b1; clk = 1'b0; #5 clk = 1'b1; end
            endmodule
        """
        for policy in (FIFO, LIFO, seeded_shuffle_policy(3)):
            sim = run(src, policy=policy)
            assert (sim.value("a"), sim.value("b")) == ("1", "0"), policy.name

    def test_blocking_swap_races(self):
        """Blocking swap is a race: outcome depends on ordering."""
        src = """
            module m (); reg clk, a, b;
            always @(posedge clk) a = b;
            always @(posedge clk) b = a;
            initial begin a = 1'b0; b = 1'b1; clk = 1'b0; #5 clk = 1'b1; end
            endmodule
        """
        fifo = run(src, policy=FIFO)
        lifo = run(src, policy=LIFO)
        assert (fifo.value("a"), fifo.value("b")) != (lifo.value("a"), lifo.value("b"))

    def test_if_x_condition_takes_else(self):
        sim = run(
            """
            module m (); reg a, y;
            always @(a) if (a) y = 1'b1; else y = 1'b0;
            initial begin a = 1'bx; #1 a = 1'bx; end
            endmodule
            """
        )
        # a stays x; the block runs at t=0... a never changes so the always
        # block may not trigger; force evaluation via initial values.
        assert sim.value("y") in ("x", "0")

    def test_initial_sequencing(self):
        sim = run(
            """
            module m (); reg a;
            initial begin a = 1'b0; #5 a = 1'b1; #5 a = 1'b0; end
            endmodule
            """
        )
        assert sim.waveform("a") == [(0, "0"), (5, "1"), (10, "0")]

    def test_two_initial_blocks(self):
        sim = run(
            """
            module m (); reg a, b;
            initial a = 1'b1;
            initial b = 1'b0;
            endmodule
            """
        )
        assert sim.value("a") == "1" and sim.value("b") == "0"


class TestKernelGuards:
    def test_zero_delay_oscillation_detected(self):
        # Two level-sensitive blocks chasing each other with no delay:
        # p=0 -> q=1 -> p=1 -> q=0 -> ... forever within t=0.
        src = """
            module m (); reg p, q;
            always @(p) q = ~p;
            always @(q) p = q;
            initial p = 1'b0;
            endmodule
        """
        sim = Simulator(parse_module(src))
        with pytest.raises(HDLError):
            sim.run(10, max_activations=500)

    def test_unflattened_hierarchy_rejected(self):
        from cadinterop.hdl.parser import parse

        unit = parse(
            """
            module c (p); input p; endmodule
            module t (); wire w; c u1 (.p(w)); endmodule
            """
        )
        unit.top = "t"
        with pytest.raises(HDLError):
            Simulator(unit.top_module)

    def test_run_until_stops_early(self):
        sim = Simulator(parse_module(
            "module m (); reg a; initial begin a = 1'b0; #100 a = 1'b1; end endmodule"
        ))
        sim.run(50)
        assert sim.value("a") == "0"
        sim.run(200)
        assert sim.value("a") == "1"

    # ``a`` wakes the assign; nothing listens to ``y``.
    @pytest.mark.parametrize("signal", ["a", "y"])
    @pytest.mark.parametrize("value", ["2", "X", 1, ""])
    def test_bad_level_names_signal_and_value(self, signal, value):
        sim = Simulator(parse_module(
            "module m (); reg a; wire y; assign y = ~a; endmodule"
        ))
        sim.run(10)
        before = dict(sim.values)
        with pytest.raises(HDLError) as excinfo:
            sim.set_signal(signal, value)
        assert repr(signal) in str(excinfo.value)
        assert repr(value) in str(excinfo.value)
        assert sim.values == before  # rejected before any update

    def test_waveform_trace_filter(self):
        sim = simulate(
            parse_module("module m (); reg a, b; initial begin a = 1'b0; b = 1'b1; end endmodule"),
            trace=["a"],
        )
        assert sim.waveform("a")
        with pytest.raises(KeyError):
            sim.waveform("b")


class TestConditionalSemantics:
    def test_x_selector_merges_agreeing_arms(self):
        sim = run(
            """
            module m (); reg s, y; wire out;
            assign out = s ? 1'b1 : 1'b1;
            endmodule
            """
        )
        # Selector is x but both arms agree: the result is known.
        assert sim.value("out") == "1"

    def test_x_selector_pessimistic_on_disagreeing_arms(self):
        sim = run(
            """
            module m (); reg s; wire out;
            assign out = s ? 1'b1 : 1'b0;
            endmodule
            """
        )
        assert sim.value("out") == "x"

    def test_delayed_gate(self):
        sim = run(
            """
            module m (); reg a; wire y;
            not #7 g (y, a);
            initial begin a = 1'b0; #10 a = 1'b1; end
            endmodule
            """
        )
        wave = sim.waveform("y")
        assert (7, "1") in wave and (17, "0") in wave

    def test_case_equality_distinguishes_x_and_z(self):
        sim = run(
            """
            module m (); reg a; wire is_z, is_x;
            assign is_z = a === 1'bz;
            assign is_x = a === 1'bx;
            initial a = 1'bz;
            endmodule
            """
        )
        assert sim.value("is_z") == "1"
        assert sim.value("is_x") == "0"


class TestObservability:
    """Each facility gates its own record: the ``hdl.sim.*`` counters need
    metrics only, the ``hdl:sim`` span needs the tracer only."""

    SRC = """
        module m (); reg a; wire y;
        assign y = ~a;
        initial begin a = 1'b0; #10 a = 1'b1; end
        endmodule
    """

    def counters(self, snapshot):
        return {
            name: data["value"]
            for name, data in snapshot.items() if name.startswith("hdl.sim.")
        }

    def test_metrics_alone_count_runs(self):
        from cadinterop.obs import MetricsRegistry, ObsContext, installed

        registry = MetricsRegistry()
        sim = Simulator(parse_module(self.SRC))
        with installed(ObsContext(metrics=registry)):
            sim.run(5)
            sim.run(50)
        assert self.counters(registry.snapshot()) == {
            "hdl.sim.runs": 2,
            "hdl.sim.events": sim.events_executed,
            "hdl.sim.activations": sim.activations,
        }

    def test_tracing_alone_records_the_span(self):
        from cadinterop.obs import ObsContext, Tracer, installed

        tracer = Tracer()
        sim = Simulator(parse_module(self.SRC))
        with installed(ObsContext(tracer)):
            sim.run(50)
        (span,) = [s for s in tracer.spans() if s["name"] == "hdl:sim"]
        assert span["attrs"]["activations"] == sim.activations

    def test_cosim_kernels_stay_quiet(self):
        from cadinterop.hdl.cosim import BridgeSignal, CoSimulation
        from cadinterop.obs import ObsContext, installed

        context = ObsContext.enabled()
        with installed(context):
            CoSimulation(
                parse_module(self.SRC),
                parse_module("module c (); reg din; endmodule"),
                [BridgeSignal("left", "y", "din")],
            ).run(50)
        assert not [s for s in context.tracer.spans() if s["name"] == "hdl:sim"]
        assert self.counters(context.metrics.snapshot()) == {}
        assert context.metrics.snapshot()["hdl.cosim.exchanges"]["value"] > 0
