"""Truth-table expressions: small expressions collapse to one lookup.

``compile_expr`` evaluates an expression that reads 1 to ``TABLE_READS``
distinct signals over every 0/1/x/z combination of them at compile time
and lowers it to one nested-dict lookup.  These tests check the tabled
closures against the AST interpreter (``evaluate``) on every assignment of
their reads, and that exactly the intended shapes are tabled: single
lookups (``Var``, ``Const``, ``op Var``, ``Var op Var``), constant-only
expressions and expressions reading more than ``TABLE_READS`` signals keep
their closure tree.
"""

import gc
import itertools

from hypothesis import given, settings, strategies as st

from cadinterop.hdl.ast_nodes import Binary, Cond, Const, Unary, Var, expr_reads
from cadinterop.hdl.compile import TABLE_READS, compile_expr, evaluate
from cadinterop.hdl.logic import Logic4

V4 = Logic4.VALUES
NAMES = ("a", "b", "c", "d", "e")
CONSTS = tuple(Const(value) for value in V4)


def is_tabled(fn):
    """Is ``fn`` a truth-table lookup rather than a closure-tree node?"""
    return fn.__qualname__.startswith("_tabulate.")


def is_single_lookup(expr):
    if isinstance(expr, Unary):
        return isinstance(expr.operand, Var)
    if isinstance(expr, Binary):
        return isinstance(expr.left, Var) and isinstance(expr.right, Var)
    return isinstance(expr, (Var, Const))


def assert_matches_evaluate(expr):
    """Both lowerings of ``expr`` agree with ``evaluate``; returns the
    default (tabled where eligible) one."""
    fn = compile_expr(expr)
    tree = compile_expr(expr, tables=False)
    assert not is_tabled(tree)
    names = sorted(expr_reads(expr))
    for combo in itertools.product(V4, repeat=len(names)):
        values = dict(zip(names, combo))
        expected = evaluate(expr, values)
        assert fn(values) == expected, (expr, values)
        assert tree(values) == expected, (expr, values)
    return fn


@st.composite
def expressions(draw):
    """An expression reading exactly the first 0-5 of :data:`NAMES`.

    A random tree of depth up to 3 over those names and the constants;
    any name it missed is then folded in with a random binary operator.
    Every choice is one integer draw, as in the differential suite's
    module generator.
    """
    pool = tuple(Var(name) for name in NAMES[: draw(st.integers(0, len(NAMES)))])
    leaves = pool + CONSTS

    def number(low, high):
        return draw(st.integers(low, high))

    def pick(options):
        return options[number(0, len(options) - 1)]

    def expr(depth):
        shape = number(0, 3) if depth else 0
        if shape == 0:
            # Favour reads over constants so wide expressions show up.
            return pick(pool) if pool and number(0, 3) else pick(leaves)
        if shape == 1:
            return Unary(pick(Unary.OPS), expr(depth - 1))
        if shape == 2:
            return Binary(pick(Binary.OPS), expr(depth - 1), expr(depth - 1))
        return Cond(expr(depth - 1), expr(depth - 1), expr(depth - 1))

    tree = expr(number(0, 3))
    for var in pool:
        if var.name not in expr_reads(tree):
            tree = Binary(pick(Binary.OPS), tree, var)
    return tree


class TestTruthTables:
    @given(expr=expressions())
    @settings(max_examples=300, deadline=None)
    def test_lowering_matches_evaluate_and_tables_the_right_shapes(self, expr):
        fn = assert_matches_evaluate(expr)
        reads = len(expr_reads(expr))
        expected = 0 < reads <= TABLE_READS and not is_single_lookup(expr)
        assert is_tabled(fn) == expected, (expr, reads)

    def test_single_lookups_are_left_untabled(self):
        a, b = Var("a"), Var("b")
        for expr in (a, Const("1"), Unary("~", a), Binary("^", a, b)):
            assert not is_tabled(assert_matches_evaluate(expr)), expr

    def test_small_expressions_become_one_lookup(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        for expr in (
            Binary("==", a, Const("1")),
            Unary("~", Binary("&", a, b)),
            Cond(a, b, c),
            # The race-ensemble pipeline cell: a depth-4 tree over two reads.
            Binary(
                "|",
                Binary("^", a, b),
                Binary(
                    "^",
                    Binary("&", Unary("~", a), Binary("^", a, b)),
                    Binary("&", a, Unary("~", b)),
                ),
            ),
        ):
            assert is_tabled(assert_matches_evaluate(expr)), expr

    def test_wide_expressions_keep_the_tree_and_table_their_parts(self):
        small = Binary("&", Var("a"), Binary("|", Var("b"), Var("c")))
        wide = Binary("^", small, Binary("&", Var("d"), Var("e")))
        fn = assert_matches_evaluate(wide)
        assert not is_tabled(fn)
        # The left operand reads three signals, so it is a table of its
        # own; the right one, ``d & e``, is a single lookup already.
        operands = [
            cell.cell_contents for cell in fn.__closure__
            if callable(cell.cell_contents)
        ]
        assert sorted(is_tabled(operand) for operand in operands) == [False, True]

    def test_constant_only_expressions_are_left_untabled(self):
        expr = Binary("&", Unary("~", Const("0")), Const("x"))
        assert not is_tabled(assert_matches_evaluate(expr))

    def test_tabled_compiles_leave_no_reference_cycles(self):
        # Building a table must not leave garbage that only the cyclic GC
        # can free (a recursive closure refers to itself through its cell).
        a, b, c = Var("a"), Var("b"), Var("c")
        expr = Binary("&", Unary("~", Binary("|", a, b)), c)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(10):
                assert is_tabled(compile_expr(expr))
            gc.collect()
            assert gc.garbage == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
