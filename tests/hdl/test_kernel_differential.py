"""Differential tests: the closure lowering vs the interpreter lowering.

The simulator has one scheduler; a module reaches it either through
``compile_model`` (closures over lookup tables, the production path) or
through ``reference_model`` (closures that walk the AST, the oracle).
The compiled lowering is only allowed to be *faster*, never *different*:
for every module — a hand-written corpus plus hypothesis-generated flat
modules — and every ordering policy, final values, full waveforms and
activation counts must be identical.  The corpus deliberately includes
racy models, where the policy choice is observable, so the test also
proves both lowerings present races to the policies in the same order.

The trigger index both lowerings share is checked separately, against a
brute-force scan over the AST.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cadinterop.hdl.ast_nodes import (
    Assign,
    Binary,
    Cond,
    Const,
    Delay,
    GateInst,
    HDLError,
    If,
    Module,
    SensItem,
    Sensitivity,
    Unary,
    Var,
    expr_reads,
)
from cadinterop.hdl.compile import (
    _CLOSURES,
    _compile,
    compile_calls,
    compile_model,
    compile_stmt,
    reference_model,
)
from cadinterop.hdl.logic import Logic4
from cadinterop.hdl.parser import parse_module
from cadinterop.hdl.personalities import DEFAULT_ENSEMBLE
from cadinterop.hdl.races import detect_races
from cadinterop.hdl.simulator import (
    FIFO,
    LIFO,
    Simulator,
    seeded_shuffle_policy,
)

#: name -> HDL source.  Everything the kernels implement is represented:
#: continuous assigns (plain/delayed/multi-driver), the gate primitives
#: incl. tristate, level/edge/star sensitivity, blocking vs nonblocking
#: races, x/z conditional semantics, and delayed initial sequencing.
CORPUS = {
    "racy_blocking": """
        module racy_blocking;
          reg clk; reg b; reg d; reg flag;
          wire a;
          assign a = b;
          always @(posedge clk) if (a != d) flag = 1; else flag = 0;
          always @(posedge clk) b = d;
          always @(posedge clk) d = ~d;
          initial begin d = 1; b = 0; flag = 0; clk = 0; #5 clk = 1; #5 clk = 0; #5 clk = 1; end
        endmodule
    """,
    "clean_nonblocking": """
        module clean_nonblocking;
          reg clk; reg b; reg d; reg flag;
          always @(posedge clk) b <= d;
          always @(posedge clk) flag <= d;
          initial begin d = 1; b = 0; flag = 0; clk = 0; #5 clk = 1; #5 clk = 0; #5 clk = 1; end
        endmodule
    """,
    "gates_and_tristate": """
        module gates_and_tristate;
          reg a; reg b; reg en;
          wire n1; wire n2; wire n3; wire bus;
          and g1 (n1, a, b);
          nor g2 (n2, a, b, n1);
          xnor g3 (n3, n1, n2);
          bufif1 t1 (bus, n3, en);
          bufif0 t2 (bus, a, en);
          initial begin a = 0; b = 1; en = 0; #4 en = 1; #4 a = 1; #4 en = 1'bx; end
        endmodule
    """,
    "delays_and_glitches": """
        module delays_and_glitches;
          reg a;
          wire slow; wire fast;
          assign #3 slow = ~a;
          assign fast = ~a;
          initial begin a = 0; #10 a = 1; #1 a = 0; #10 a = 1; end
        endmodule
    """,
    "cond_xz": """
        module cond_xz;
          reg s; reg p; reg q;
          wire same; wire differ;
          assign same = s ? p : p;
          assign differ = s ? p : q;
          initial begin p = 1; q = 0; #2 s = 1'bx; #2 s = 1'bz; #2 s = 1; end
        endmodule
    """,
    "star_and_negedge": """
        module star_and_negedge;
          reg clk; reg a; reg b; reg acc; reg ncount;
          always @(*) acc = a ^ b;
          always @(negedge clk) ncount = ~ncount;
          initial begin clk = 1; a = 0; b = 0; ncount = 0;
            #5 clk = 0; #5 clk = 1; a = 1; #5 clk = 0; b = 1; end
        endmodule
    """,
    "multi_driver_bus": """
        module multi_driver_bus;
          reg a; reg b;
          wire w;
          assign w = a;
          assign w = b;
          initial begin a = 1'bz; b = 0; #3 a = 1; #3 b = 1'bz; #3 b = 0; end
        endmodule
    """,
    # The order a change wakes its listeners in is observable in these
    # two: edge-triggered blocks defined before level-sensitive ones on the
    # same signal, blocks on both edges of a clock, and blocking reads of a
    # signal another woken block writes.
    "edge_before_level": """
        module edge_before_level;
          reg clk; reg lvl; reg q; reg both; reg n;
          always @(posedge clk) q = lvl;
          always @(clk) lvl = clk;
          always @(posedge clk or negedge clk) both = lvl;
          always @(negedge clk) n = lvl;
          initial begin clk = 0; #5 clk = 1; #5 clk = 0; #5 clk = 1'bx;
            #5 clk = 1; #5 clk = 1'bz; #5 clk = 0; end
        endmodule
    """,
    "level_between_edges": """
        module level_between_edges;
          reg clk; reg d; reg lvl; reg p; reg n;
          wire w;
          assign w = clk ^ d;
          always @(negedge clk) n = w;
          always @(*) lvl = clk & d;
          always @(posedge clk) p = lvl;
          always @(posedge clk or negedge clk) d = ~d;
          initial begin d = 1; clk = 0; #5 clk = 1; #5 clk = 0; #5 clk = 1;
            #5 clk = 1'bx; #5 clk = 0; end
        endmodule
    """,
    # Equal assignments (same target, expression and kind) lower to one
    # shared closure; the blocking and nonblocking ``d`` writes stay apart.
    "repeated_statements": """
        module repeated_statements;
          reg clk; reg d; reg e;
          always @(posedge clk) d <= ~d;
          always @(negedge clk) d <= ~d;
          always @(posedge clk) e = ~d;
          always @(negedge clk) if (d) e = ~d; else e = d;
          initial begin d = 0; e = 0; clk = 0; #5 clk = 1; #5 clk = 0;
            #5 clk = 1; d = 0; #5 clk = 0; #5 clk = 1; d = 0; #5 clk = 0;
            #5 e <= ~d; end
        endmodule
    """,
}

POLICIES = [
    ("fifo", FIFO),
    ("lifo", LIFO),
    ("shuffle11", seeded_shuffle_policy(11)),
    ("shuffle97", seeded_shuffle_policy(97)),
]

V4 = Logic4.VALUES


# ---------------------------------------------------------------------------
# Generated flat modules
# ---------------------------------------------------------------------------

#: Procedural blocks write the regs; assigns and gates drive the wires.
REGS = ("r0", "r1", "r2", "r3")
WIRES = ("w0", "w1", "w2")
NETS = REGS + WIRES
GATE_KINDS = ("and", "or", "nand", "nor", "xor", "xnor", "not", "buf",
              "bufif0", "bufif1")


#: Every leaf an expression can have: a net or a 4-value constant.
LEAVES = tuple(Var(name) for name in NETS) + tuple(Const(value) for value in V4)
CONSTS = LEAVES[len(NETS):]


@st.composite
def flat_modules(draw):
    """A flat module over a few regs and wires.

    Covers plain, delayed and multi-driver assigns (several drivers share
    the three wires), 2- and 3-input gates plus buf/not/bufif0/bufif1,
    edge / level / ``@(*)`` always blocks with blocking and nonblocking
    assigns, x/z conditionals, and delayed initials.  Every choice is one
    integer draw: nested ``builds``/``one_of``/``recursive`` strategies
    made an example ten times slower to generate.
    """

    def number(low, high):
        return draw(st.integers(low, high))

    def pick(options):
        return options[number(0, len(options) - 1)]

    def expr(depth=2):
        shape = number(0, 3) if depth else 0
        if shape == 0:
            return pick(LEAVES)
        if shape == 1:
            return Unary(pick(Unary.OPS), expr(depth - 1))
        if shape == 2:
            return Binary(pick(Binary.OPS), expr(depth - 1), expr(depth - 1))
        return Cond(expr(depth - 1), expr(depth - 1), expr(depth - 1))

    def assign():
        return Assign(pick(REGS), expr(), nonblocking=bool(number(0, 1)))

    def assigns():
        return [assign() for _ in range(number(1, 2))]

    def statement():
        if number(0, 1):
            return assign()
        return If(expr(), assigns(), assigns() if number(0, 1) else None)

    def sensitivity():
        shape = number(0, 2)
        if shape == 0:
            items = [
                SensItem(pick(NETS), pick(("posedge", "negedge")))
                for _ in range(number(1, 2))
            ]
            # A stray level item in an edge list is ignored; add one sometimes.
            items += [SensItem(pick(NETS)) for _ in range(number(0, 1))]
            return Sensitivity(items=items)
        if shape == 1:
            return Sensitivity(items=[SensItem(pick(NETS)) for _ in range(number(1, 3))])
        return Sensitivity(star=True)

    def initial_step():
        shape = number(0, 2)
        if shape == 0:
            return Delay(number(1, 6))
        if shape == 1:
            return Assign(pick(REGS), pick(CONSTS))
        return assign()

    module = Module("generated")
    for name in REGS:
        module.add_net(name, "reg")
    for name in WIRES:
        module.add_net(name, "wire")
    for _ in range(number(0, 4)):
        module.add_assign(pick(WIRES), expr(), pick((0, 0, 1, 3)))
    for index in range(number(0, 3)):
        kind = pick(GATE_KINDS)
        if kind in ("not", "buf"):
            arity = 1
        elif kind in ("bufif0", "bufif1"):
            arity = 2
        else:
            arity = number(2, 3)
        inputs = [pick(NETS) for _ in range(arity)]
        module.add_gate(GateInst(f"g{index}", kind, pick(WIRES), inputs, pick((0, 0, 2))))
    for _ in range(number(0, 3)):
        module.add_always(sensitivity(), [statement() for _ in range(number(1, 3))])
    for _ in range(number(1, 2)):
        module.add_initial([initial_step() for _ in range(number(1, 8))])
    return module


def generated(count):
    """Settings for a generated test: ``count`` examples, or the loaded
    profile's count where that exceeds hypothesis's default (the
    ``kernel-stress`` profile in conftest.py)."""
    profile = settings.default.max_examples
    if profile > settings.get_profile("default").max_examples:
        count = max(count, profile)
    return settings(max_examples=count, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# Lowering equivalence
# ---------------------------------------------------------------------------


def run_model(model, policy, until=1000, max_activations=1_000_000):
    """Run to ``until``; a budget overrun is a result, not a failure."""
    sim = Simulator(model, policy, trace_signals=sorted(model.module.nets))
    try:
        sim.run(until, max_activations=max_activations)
    except HDLError as exc:
        return sim, str(exc)
    return sim, None


def assert_lowerings_agree(module, policy, **run):
    compiled, compiled_error = run_model(compile_model(module), policy, **run)
    reference, reference_error = run_model(reference_model(module), policy, **run)
    # Same error (message carries the time), or none on both sides.
    assert compiled_error == reference_error
    assert compiled.values == reference.values
    assert compiled.waveforms == reference.waveforms
    # Same number of scheduling decisions means the policies saw the
    # same ready-queue evolution, not just converging end states.
    assert compiled.activations == reference.activations


class TestWaveformEquivalence:
    @pytest.mark.parametrize("policy_name,policy", POLICIES)
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_compiled_matches_interpreter(self, name, policy_name, policy):
        assert_lowerings_agree(parse_module(CORPUS[name]), policy)

    @given(module=flat_modules())
    @generated(150)
    def test_generated_modules_match_interpreter(self, module):
        for _, policy in POLICIES:
            # Short horizon and budget: generated zero-delay loops must
            # exhaust the budget identically, and fast.
            assert_lowerings_agree(module, policy, until=60, max_activations=400)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_shared_model_matches_per_run_compilation(self, name):
        module = parse_module(CORPUS[name])
        model = compile_model(module)
        for _, policy in POLICIES:
            fresh, _ = run_model(compile_model(module), policy)
            shared, _ = run_model(model, policy)
            assert fresh.values == shared.values
            assert fresh.waveforms == shared.waveforms


# ---------------------------------------------------------------------------
# The trigger index vs a brute-force scan
# ---------------------------------------------------------------------------


def scan_woken(module, signal, old, new):
    """Process indices a change of ``signal`` wakes, by scanning the AST.

    The rules are the ones the removed per-process interpreter applied:
    assigns and gates wake on any change of an input; non-edge always
    blocks on their effective sensitivity; edge lists on a matching
    posedge/negedge; initial blocks never.
    """
    if old == new:
        return []
    woken = []
    index = 0
    for assign in module.assigns:
        if signal in expr_reads(assign.expr):
            woken.append(index)
        index += 1
    for gate in module.gates:
        if signal in gate.inputs:
            woken.append(index)
        index += 1
    for block in module.always_blocks:
        if block.sensitivity.is_edge_triggered():
            wants = any(
                item.signal == signal and (
                    (item.edge == "posedge" and new == "1" and old != "1")
                    or (item.edge == "negedge" and new == "0" and old != "0")
                )
                for item in block.sensitivity.items
            )
        else:
            wants = signal in block.effective_sensitivity()
        if wants:
            woken.append(index)
        index += 1
    return woken


def take_ready(sim):
    """The process ids queued so far; empties the ready list and its flags."""
    woken = list(sim._ready)
    sim._ready.clear()
    sim._queued[:] = bytes(len(sim._queued))
    return woken


def assert_trigger_index_matches_scan(module):
    sim = Simulator(compile_model(module), FIFO)
    for signal in module.nets:
        for old, new in itertools.product(V4, repeat=2):
            take_ready(sim)
            sim.values[signal] = old
            sim.set_signal(signal, new)
            woken = take_ready(sim)
            assert woken == scan_woken(module, signal, old, new), (signal, old, new)
            # The wake table itself holds the same ids, in the same order.
            if old != new:
                assert list(sim._triggers[signal][new]) == woken


class TestTriggerIndex:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_index_matches_scan(self, name):
        assert_trigger_index_matches_scan(parse_module(CORPUS[name]))

    @given(module=flat_modules())
    @generated(60)
    def test_generated_index_matches_scan(self, module):
        assert_trigger_index_matches_scan(module)


class TestWakeOrder:
    """Wake tables keyed by the new level keep process-definition order."""

    @pytest.mark.parametrize("name", ["edge_before_level", "level_between_edges"])
    def test_wake_order_is_observable(self, name):
        # The policies disagree on these models, so waking in any order
        # but definition order would change their schedules.
        model = compile_model(parse_module(CORPUS[name]))
        fifo, _ = run_model(model, FIFO)
        lifo, _ = run_model(model, LIFO)
        assert fifo.waveforms != lifo.waveforms

    def test_rising_clock_wakes_edge_block_before_level_block(self):
        sim = Simulator(compile_model(parse_module(CORPUS["edge_before_level"])))
        take_ready(sim)
        sim.values["clk"] = "0"
        sim.set_signal("clk", "1")
        # posedge q-block, level lvl-block, both-edges block; not negedge n.
        assert take_ready(sim) == [0, 1, 2]

    def test_queued_process_is_not_queued_twice(self):
        sim = Simulator(compile_model(parse_module(CORPUS["edge_before_level"])))
        take_ready(sim)
        sim.values["clk"] = "0"
        sim.set_signal("clk", "1")
        sim.set_signal("clk", "0")
        # The level block (1) and the both-edges block (2) are already
        # queued; the falling edge adds only the negedge block (3).
        assert sim._ready == [0, 1, 2, 3]
        assert [i for i, flag in enumerate(sim._queued) if flag] == [0, 1, 2, 3]


class TestSharedLowering:
    def test_equal_assignments_lower_once(self):
        module = parse_module(CORPUS["repeated_statements"])
        lowered = []

        def counting(stmt):
            lowered.append(stmt)
            return compile_stmt(stmt)

        model = _compile(module, _CLOSURES._replace(stmt=counting))
        keys = [(s.target, s.expr, s.nonblocking) for s in lowered if isinstance(s, Assign)]
        # d <= ~d, e = ~d, e <= ~d, d = 0, e = 0, clk = 0 and clk = 1 once
        # each, plus the if (whose inner assignments compile_stmt lowers).
        assert len(keys) == len(set(keys)) == 7
        assert len(lowered) == 8
        # The two flop bodies are one closure.
        assert model.runs[0] is model.runs[1]
        assert model.runs[0] is not model.runs[2]

    @pytest.mark.parametrize("lower", [compile_model, reference_model])
    def test_shared_closures_keep_the_schedule(self, lower):
        module = parse_module(CORPUS["repeated_statements"])
        for _, policy in POLICIES:
            assert_lowerings_agree(module, policy)
        sim, error = run_model(lower(module), FIFO)
        assert error is None
        assert sim.waveform("clk") == [
            (0, "0"), (5, "1"), (10, "0"), (15, "1"), (20, "0"), (25, "1"), (30, "0"),
        ]


class TestEnsembleEquivalence:
    def test_ensemble_compiles_exactly_once(self):
        module = parse_module(CORPUS["racy_blocking"])
        before = compile_calls()
        detect_races(module, until=1000)
        assert compile_calls() == before + 1
        assert len(DEFAULT_ENSEMBLE) >= 4  # one compile serves all of these


class TestPolicyDeterminism:
    def test_shuffle_policy_object_reuse_is_deterministic(self):
        # A reused policy object must give identical runs — the ensemble
        # reuses its shuffle personalities across detect_races calls.
        module = parse_module(CORPUS["racy_blocking"])
        policy = seeded_shuffle_policy(1234)
        first, _ = run_model(compile_model(module), policy)
        second, _ = run_model(compile_model(module), policy)
        assert first.values == second.values
        assert first.waveforms == second.waveforms

    def test_shuffle_streams_differ_by_seed(self):
        ready = list(range(5))
        a = seeded_shuffle_policy(1)
        b = seeded_shuffle_policy(2)
        choices_a = [a.choose(ready, ordinal) for ordinal in range(32)]
        choices_b = [b.choose(ready, ordinal) for ordinal in range(32)]
        assert choices_a != choices_b

    def test_shuffle_stream_is_pinned(self):
        # The first 64 choices per ready length, recorded from the
        # splitmix64 stream: reruns and cached race results rely on it.
        for (seed, length), digits in SHUFFLE_GOLDEN.items():
            policy = seeded_shuffle_policy(seed)
            ready = list(range(length))
            choices = "".join(str(policy.choose(ready, o)) for o in range(64))
            assert choices == digits, (seed, length)

    def test_shuffle_choice_depends_only_on_seed_and_ordinal(self):
        ready = list(range(7))
        first = seeded_shuffle_policy(42)
        second = seeded_shuffle_policy(42)
        for ordinal in (0, 1, 5, 100, 10_000):
            assert first.choose(ready, ordinal) == second.choose(ready, ordinal)


#: (seed, ready length) -> seeded_shuffle_policy(seed) choices for
#: activation ordinals 0..63, one digit each.
SHUFFLE_GOLDEN = {
    (11, 2): "1100111100001000001011001001000000111111010010110110011110010011",
    (11, 3): "0202021011122212001012110100002120022010120210012122022110111202",
    (11, 4): "1102313300001220003033221223002202111111030230110310211332030231",
    (11, 5): "2404123022424132022434410133302310201113322240243134410414211403",
    (97, 2): "1001000011011001000001101010011111010110010001100100000000101011",
    (97, 3): "1120220102011220120111101120020000002221212001121210212122112012",
    (97, 4): "1023220013211001002223301030233131032330030223300300022202101031",
    (97, 5): "0120423212103213240342331241302044242434031023212410431322441313",
}
