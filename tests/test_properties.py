"""Cross-cutting property-based tests (hypothesis) on core invariants.

These target the load-bearing invariants the paper's remedies rely on:
synthesis must preserve combinational function, flattening must preserve
behavior and be reversibly named, race-free circuits must be
policy-independent, migration must preserve connectivity, and the bus
grammar must round-trip.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cadinterop.hdl.ast_nodes import (
    Assign,
    Binary,
    Cond,
    Const,
    Expr,
    InitialBlock,
    Module,
    SensItem,
    Sensitivity,
    Unary,
    Var,
    expr_reads,
)
from cadinterop.hdl.flatten import flatten, unflatten_name
from cadinterop.hdl.parser import parse
from cadinterop.hdl.compile import evaluate
from cadinterop.hdl.simulator import FIFO, LIFO, Simulator, seeded_shuffle_policy
from cadinterop.hdl.synth import synthesize
from cadinterop.schematic.busnotation import COMPOSER_BUS_SYNTAX, VIEWDRAW_BUS_SYNTAX

# ---------------------------------------------------------------------------
# Random expression trees over a fixed variable set
# ---------------------------------------------------------------------------

VARS = ("va", "vb", "vc")


def expressions(max_depth=4):
    leaves = st.one_of(
        st.sampled_from([Var(v) for v in VARS]),
        st.sampled_from([Const("0"), Const("1")]),
    )

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(["~", "!"]), children),
            st.builds(
                Binary,
                st.sampled_from(["&", "|", "^", "~^", "&&", "||", "==", "!="]),
                children,
                children,
            ),
            st.builds(Cond, children, children, children),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def binary_values():
    return st.tuples(*[st.sampled_from("01") for _ in VARS])


class TestSynthesisPreservesFunction:
    @given(expr=expressions(), values=binary_values())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_rtl_and_gates_agree_on_binary_inputs(self, expr, values):
        """synthesize() output computes the same function as the RTL.

        Expressions reading no signals are excluded: `always @(*) out = 0;`
        legitimately never triggers in simulation (its sensitivity set is
        empty) while synthesis ties the output — a real sim/synth semantic
        gap, covered separately in the synth tests.
        """
        from hypothesis import assume

        assume(expr_reads(expr))
        module = Module("prop")
        for name in VARS:
            module.add_net(name, "reg")
        module.add_net("out", "reg")
        module.add_always(
            Sensitivity(items=[SensItem(v) for v in sorted(expr_reads(expr))]),
            [Assign("out", expr)],
        )
        module.add_initial([
            Assign(name, Const(value)) for name, value in zip(VARS, values)
        ])

        rtl_sim = Simulator(module)
        rtl_sim.run(10)

        gates = synthesize(module).netlist
        gate_sim = Simulator(gates)
        gate_sim.run(10)
        assert gate_sim.value("out") == rtl_sim.value("out")

    @given(expr=expressions(), values=binary_values())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_direct_evaluation_matches_simulation(self, expr, values):
        env = dict(zip(VARS, values))
        expected = evaluate(expr, env)
        module = Module("prop2")
        for name in VARS:
            module.add_net(name, "reg")
        module.add_net("out", "wire")
        module.add_assign("out", expr)
        module.add_initial([
            Assign(name, Const(value)) for name, value in zip(VARS, values)
        ])
        sim = Simulator(module)
        sim.run(10)
        assert sim.value("out") == expected


class TestPolicyIndependenceOfCleanDesigns:
    @given(
        values=binary_values(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_combinational_network_policy_independent(self, values, seed):
        """Pure combinational logic has no races: all policies agree."""
        source = """
        module net ();
          reg va, vb, vc;
          wire n1, n2, n3, out;
          assign n1 = va & vb;
          assign n2 = vb | vc;
          assign n3 = n1 ^ n2;
          assign out = n3 ? n1 : n2;
        endmodule
        """
        unit = parse(source)
        module = unit.top_module
        module.add_initial([
            Assign(name, Const(value)) for name, value in zip(VARS, values)
        ])
        results = set()
        for policy in (FIFO, LIFO, seeded_shuffle_policy(seed)):
            sim = Simulator(module, policy)
            sim.run(10)
            results.add(sim.value("out"))
        assert len(results) == 1


class TestFlattenBehaviorPreservation:
    @given(values=st.tuples(st.sampled_from("01"), st.sampled_from("01")))
    @settings(max_examples=16, deadline=None)
    def test_flat_equals_hierarchical_function(self, values):
        source = """
        module half (x, y, s, c);
          input x, y; output s, c;
          xor g1 (s, x, y);
          and g2 (c, x, y);
        endmodule
        module top (a, b, s, c);
          input a, b; output s, c;
          half u1 (.x(a), .y(b), .s(s), .c(c));
        endmodule
        """
        unit = parse(source)
        unit.top = "top"
        flat, name_map = flatten(unit)
        flat.add_net("a", "reg")
        flat.add_net("b", "reg")
        flat.add_initial([
            Assign("a", Const(values[0])), Assign("b", Const(values[1])),
        ])
        sim = Simulator(flat)
        sim.run(10)
        a, b = (v == "1" for v in values)
        assert sim.value("s") == ("1" if a != b else "0")
        assert sim.value("c") == ("1" if a and b else "0")

    @given(st.integers(min_value=1, max_value=4))
    @settings(max_examples=8, deadline=None)
    def test_every_flat_name_unflattens(self, depth):
        source = ["module leaf (p, q); input p; output q; assign q = ~p; endmodule"]
        previous = "leaf"
        for level in range(depth):
            name = f"lvl{level}"
            source.append(
                f"module {name} (p, q); input p; output q; wire m;"
                f" {previous} u1 (.p(p), .q(m));"
                f" {previous} u2 (.p(m), .q(q)); endmodule"
            )
            previous = name
        unit = parse("\n".join(source))
        unit.top = previous
        flat, name_map = flatten(unit)
        for flat_name in flat.nets:
            dotted = unflatten_name(name_map, flat_name)
            assert name_map.target_of(dotted) == flat_name


class TestBusGrammarRoundTrip:
    bases = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)

    @given(base=bases, msb=st.integers(0, 99), lsb=st.integers(0, 99))
    @settings(max_examples=60)
    def test_explicit_refs_roundtrip_both_dialects(self, base, msb, lsb):
        text = f"{base}<{msb}:{lsb}>" if msb != lsb else f"{base}<{msb}>"
        for syntax in (VIEWDRAW_BUS_SYNTAX, COMPOSER_BUS_SYNTAX):
            assert syntax.format(syntax.parse(text)) == text

    @given(base=bases)
    @settings(max_examples=30)
    def test_postfix_roundtrip_in_viewdraw(self, base):
        text = base + "-"
        ref = VIEWDRAW_BUS_SYNTAX.parse(text)
        assert VIEWDRAW_BUS_SYNTAX.format(ref) == text


class TestMigrationConnectivityProperty:
    @given(
        pages=st.integers(1, 3),
        chains=st.integers(1, 3),
        stages=st.integers(2, 5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_chain_migrations_always_verify(self, pages, chains, stages, seed):
        from cadinterop.schematic.migrate import Migrator
        from cadinterop.schematic.samples import (
            build_sample_plan,
            build_vl_libraries,
            generate_chain_schematic,
        )

        libraries = build_vl_libraries()
        cell = generate_chain_schematic(
            libraries, pages=pages, chains_per_page=chains, stages=stages, seed=seed
        )
        result = Migrator(build_sample_plan(source_libraries=libraries)).migrate(cell)
        assert result.verification.equivalent, result.verification.summary()
