"""The one module rewriter: every construct survives, instances included."""

import pytest
from hypothesis import given, settings, strategies as st

from cadinterop.hdl.ast_nodes import (
    Assign,
    Delay,
    GateInst,
    HDLError,
    If,
    Module,
    ModuleInst,
    SensItem,
    Sensitivity,
    rewrite_module,
)
from cadinterop.hdl.parser import parse
from cadinterop.hdl.personalities import PC8_LIKE, XL_LIKE, run_personality
from cadinterop.hdl.translate import translate_module
from cadinterop.hdl.writer import write_module
from cadinterop.rtl2gds import strip_testbench

from test_writer import expression_trees

HIERARCHY = """
module child (p, q); input p; output q; assign q = ~p; endmodule
module top (in, out); input in; output out; wire long_middle_net;
  child u1 (.p(in), .q(long_middle_net));
  assign out = long_middle_net;
  initial in = 1'b0;
endmodule
"""


def hierarchical_top():
    return parse(HIERARCHY).module("top")


class TestRewritesKeepInstances:
    def test_translate_module_renames_actuals(self):
        translated, plan = translate_module(hierarchical_top())
        assert "in" in plan.renames
        [inst] = translated.instances
        assert (inst.name, inst.module_name) == ("u1", "child")
        assert inst.connections == {"p": plan.renames["in"], "q": "long_middle_net"}
        translated.validate()

    def test_pc8_prepare_renames_actuals(self):
        prepared = PC8_LIKE.prepare(hierarchical_top())
        [inst] = prepared.instances
        assert (inst.name, inst.module_name) == ("u1", "child")
        assert inst.connections == {"p": "in", "q": "long_mid"}
        prepared.validate()

    def test_strip_testbench_keeps_instance(self):
        top = hierarchical_top()
        stripped = strip_testbench(top)
        assert stripped.initial_blocks == []
        [inst] = stripped.instances
        assert (inst.name, inst.module_name) == ("u1", "child")
        assert inst.connections == {"p": "in", "q": "long_middle_net"}
        assert inst is not top.instances[0]

    @pytest.mark.parametrize("personality", [XL_LIKE, PC8_LIKE], ids=lambda p: p.name)
    def test_every_personality_refuses_hierarchy(self, personality):
        with pytest.raises(HDLError, match="flatten first"):
            run_personality(hierarchical_top(), personality)

    def test_merging_rename_is_refused(self):
        with pytest.raises(HDLError, match="merges signals"):
            rewrite_module(hierarchical_top(), {"in": "out"})


# ---------------------------------------------------------------------------
# Generated modules: the rewriter is exact under identity and inverse renames
# ---------------------------------------------------------------------------

NETS = ("a", "b", "c", "y", "q", "w")
_names = st.sampled_from(NETS)
_statements = st.builds(Assign, st.just("q"), expression_trees, st.booleans())
_ifs = st.builds(
    If,
    expression_trees,
    st.lists(_statements, min_size=1, max_size=2),
    st.none() | st.lists(_statements, max_size=2),
)
_bodies = st.lists(_statements | _ifs, min_size=1, max_size=3)
_sensitivities = st.builds(
    Sensitivity,
    st.lists(st.builds(SensItem, _names, st.sampled_from(SensItem.EDGES)), min_size=1, max_size=3),
) | st.builds(Sensitivity, star=st.just(True))


@st.composite
def modules(draw):
    """A module over the expression trees' inputs ``a``/``b``/``c`` with
    every construct the rewriter copies."""
    module = Module("m")
    for name in ("a", "b", "c"):
        module.add_port(name, "input")
    module.add_port("y", "output")
    module.add_net("q", "reg")
    module.add_net("w")
    for _ in range(draw(st.integers(0, 2))):
        module.add_assign(
            draw(st.sampled_from(("w", "y"))), draw(expression_trees), draw(st.sampled_from((0, 2)))
        )
    for index in range(draw(st.integers(0, 2))):
        inputs = draw(st.lists(_names, min_size=2, max_size=3))
        module.add_gate(GateInst(f"g{index}", draw(st.sampled_from(("and", "xor"))), "w", inputs))
    for _ in range(draw(st.integers(0, 2))):
        module.add_always(draw(_sensitivities), draw(_bodies))
    for _ in range(draw(st.integers(0, 1))):
        module.add_initial(draw(st.lists(st.builds(Delay, st.integers(1, 5)) | _statements,
                                         min_size=1, max_size=4)))
    for index in range(draw(st.integers(0, 2))):
        module.add_instance(ModuleInst(f"u{index}", "child", {"p": draw(_names), "q": draw(_names)}))
    return module


class TestRewriteRoundTrip:
    @given(module=modules())
    @settings(max_examples=80, deadline=None)
    def test_identity_rewrite_writes_the_same_text(self, module):
        assert write_module(rewrite_module(module, {})) == write_module(module)

    @given(module=modules(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_injective_rename_then_inverse_writes_the_same_text(self, module, data):
        names = list(module.nets)
        targets = data.draw(st.permutations(names + ["t0", "t1", "t2"]))[: len(names)]
        mapping = dict(zip(names, targets))
        renamed = rewrite_module(module, mapping)
        assert list(renamed.nets) == targets
        assert len(renamed.instances) == len(module.instances)
        inverse = {new: old for old, new in mapping.items()}
        assert write_module(rewrite_module(renamed, inverse)) == write_module(module)
