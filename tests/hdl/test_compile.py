"""Tests for the closure-compilation layer (cadinterop.hdl.compile).

The interpreter (``evaluate`` and the ``reference_model`` lowering) is
the reference semantics; ``compile_expr`` / ``compile_model`` must agree
with it everywhere.  These tests sweep expressions and gates exhaustively over
small input spaces and check the model/run split — one CompiledModel
shared by many Simulators with zero state bleed.
"""

import itertools

import pytest

from cadinterop.hdl.ast_nodes import (
    AlwaysBlock,
    Binary,
    Cond,
    Const,
    Delay,
    GateInst,
    HDLError,
    Module,
    SensItem,
    Sensitivity,
    Unary,
    Var,
)
from cadinterop.hdl.compile import (
    CompiledModel,
    compile_always_body,
    compile_calls,
    compile_expr,
    compile_gate_eval,
    compile_model,
    evaluate,
    reference_model,
)
from cadinterop.hdl.logic import Logic4
from cadinterop.hdl.parser import parse_module
from cadinterop.hdl.simulator import FIFO, LIFO, Simulator

V4 = Logic4.VALUES
BINARY_OPERATORS = ["&", "&&", "|", "||", "^", "~^", "==", "!=", "===", "!=="]


def gate_module(gate, inputs):
    module = Module("m")
    for name in inputs:
        module.add_net(name, "reg")
    module.add_net("o", "wire")
    module.add_gate(gate)
    return module


def assert_expr_equivalent(expr, names):
    """Compiled closure == interpreter over every 4-value assignment, with
    truth tables and as the plain closure tree that fills them."""
    for fn in (compile_expr(expr), compile_expr(expr, tables=False)):
        for combo in itertools.product(V4, repeat=len(names)):
            values = dict(zip(names, combo))
            assert fn(values) == evaluate(expr, values), (expr, values)


class TestExprEquivalence:
    def test_const_and_var(self):
        assert_expr_equivalent(Const("1"), [])
        assert_expr_equivalent(Var("a"), ["a"])

    @pytest.mark.parametrize("op", ["~", "!"])
    def test_unary_on_var_and_nested(self, op):
        assert_expr_equivalent(Unary(op, Var("a")), ["a"])
        assert_expr_equivalent(Unary(op, Unary("~", Var("a"))), ["a"])
        assert_expr_equivalent(Unary(op, Const("x")), [])

    @pytest.mark.parametrize("op", BINARY_OPERATORS)
    def test_binary_all_operand_shapes(self, op):
        # Var/Var, Var/nested, nested/Var, nested/nested — each shape is a
        # distinct specialization of the plain closure tree.
        assert_expr_equivalent(Binary(op, Var("a"), Var("b")), ["a", "b"])
        assert_expr_equivalent(
            Binary(op, Var("a"), Unary("~", Var("b"))), ["a", "b"]
        )
        assert_expr_equivalent(
            Binary(op, Unary("~", Var("a")), Var("b")), ["a", "b"]
        )
        assert_expr_equivalent(
            Binary(op, Unary("~", Var("a")), Unary("~", Var("b"))), ["a", "b"]
        )

    def test_conditional_exhaustive(self):
        expr = Cond(Var("s"), Var("a"), Var("b"))
        assert_expr_equivalent(expr, ["s", "a", "b"])

    def test_deep_mixed_tree(self):
        expr = Binary(
            "|",
            Binary("^", Var("a"), Unary("~", Var("b"))),
            Cond(Var("s"), Binary("&", Var("a"), Var("s")), Const("z")),
        )
        assert_expr_equivalent(expr, ["a", "b", "s"])

    def test_unknown_operator_rejected_at_compile_time(self):
        with pytest.raises(HDLError):
            compile_expr(Binary("<<", Var("a"), Var("b")))


class TestGateEquivalence:
    @pytest.mark.parametrize(
        "kind", ["and", "nand", "or", "nor", "xor", "xnor"]
    )
    @pytest.mark.parametrize("arity", [2, 3])
    def test_logic_gates_match_simulated_reference(self, kind, arity):
        inputs = [f"i{k}" for k in range(arity)]
        gate = GateInst(name="g", gate=kind, output="o", inputs=inputs)
        fn = compile_gate_eval(gate)
        model = reference_model(gate_module(gate, inputs))
        for combo in itertools.product(V4, repeat=arity):
            values = dict(zip(inputs, combo))
            sim = Simulator(model, FIFO)
            for name, value in values.items():
                sim.set_signal(name, value)
            sim.run(10)
            assert fn(dict(values)) == sim.value("o"), (kind, values)

    @pytest.mark.parametrize("kind", ["buf", "not", "bufif0", "bufif1"])
    def test_buffer_and_tristate_gates(self, kind):
        inputs = ["d"] if kind in ("buf", "not") else ["d", "e"]
        gate = GateInst(name="g", gate=kind, output="o", inputs=inputs)
        fn = compile_gate_eval(gate)
        model = reference_model(gate_module(gate, inputs))
        for combo in itertools.product(V4, repeat=len(inputs)):
            values = dict(zip(inputs, combo))
            sim = Simulator(model, FIFO)
            for name, value in values.items():
                sim.set_signal(name, value)
            sim.run(10)
            assert fn(dict(values)) == sim.value("o"), (kind, values)


class TestCompileModel:
    def test_delay_in_always_rejected_at_compile_time(self):
        block = AlwaysBlock(
            sensitivity=Sensitivity(items=[SensItem("clk", "posedge")]),
            body=[Delay(5)],
        )
        with pytest.raises(HDLError, match="delays inside always"):
            compile_always_body(block.body)
        module = Module("m")
        module.add_net("clk", "reg")
        module.always_blocks.append(block)
        for lower in (compile_model, reference_model):
            with pytest.raises(HDLError, match="delays inside always"):
                lower(module)

    def test_unflattened_hierarchy_rejected(self):
        from cadinterop.hdl.ast_nodes import ModuleInst

        module = parse_module("module top; reg x; endmodule")
        module.add_instance(ModuleInst("u0", "leaf", {}))
        with pytest.raises(HDLError, match="flatten"):
            compile_model(module)

    def test_compiled_model_shared_across_runs_without_state_bleed(self):
        module = parse_module(
            """
            module shared;
              reg clk; reg q; wire w;
              assign w = ~q;
              initial begin clk = 0; q = 0; #5 clk = 1; #5 clk = 0; #5 clk = 1; end
              always @(posedge clk) q = w;
            endmodule
            """
        )
        model = compile_model(module)
        assert isinstance(model, CompiledModel)
        first = Simulator(model, FIFO, trace_signals=["q", "w"])
        first.run(100)
        # A second run from the same model starts from scratch.
        second = Simulator(model, FIFO, trace_signals=["q", "w"])
        assert second.now == 0
        assert second.value("q") == "x"  # fresh state, nothing ran yet
        second.run(100)
        assert first.values == second.values
        assert first.waveforms == second.waveforms
        # And a differently-ordered run shares the model too.
        third = Simulator(model, LIFO)
        third.run(100)
        assert third.values == first.values

    def test_compile_calls_counter_advances_once_per_compile(self):
        module = parse_module("module m; reg a; endmodule")
        before = compile_calls()
        compile_model(module)
        assert compile_calls() == before + 1
        Simulator(module, FIFO)  # a Module is compiled once on the way in
        assert compile_calls() == before + 2
        model = compile_model(module)
        baseline = compile_calls()
        Simulator(model, FIFO)
        Simulator(model, LIFO)
        assert compile_calls() == baseline  # spawning runs never recompiles
        Simulator(reference_model(module), FIFO)
        assert compile_calls() == baseline  # the test oracle is not counted

    def test_multi_driver_nets_still_resolve(self):
        module = parse_module(
            """
            module bus;
              reg a; reg b; wire w;
              assign w = a;
              assign w = b;
              initial begin a = 1'bz; b = 1'b1; end
            endmodule
            """
        )
        for lower in (reference_model, compile_model):
            sim = Simulator(lower(module), FIFO)
            sim.run(10)
            assert sim.value("w") == "1", lower.__name__
