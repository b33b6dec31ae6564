"""Lowering HDL models to closures: compile once, simulate many times.

Race detection (:func:`cadinterop.hdl.races.detect_races`) and
co-simulation run the *same model* under many :class:`OrderingPolicy`
variants, so the model is split from the run:
:func:`compile_model` lowers a :class:`Module` to an immutable
:class:`CompiledModel` —

* one Python closure per continuous assign, gate, always body, and
  initial step (expressions become nested closures over the precomputed
  :mod:`cadinterop.hdl.logic` lookup tables, and one reading at most
  :data:`TABLE_READS` signals becomes a single truth-table lookup, so an
  activation is closure calls and dict hits, no AST in sight);
* a sensitivity *trigger index* holding one wake table per signal, keyed
  by the new level (``"1"`` -> level and posedge listeners, ``"0"`` ->
  level and negedge, ``"x"``/``"z"`` -> level), so a signal change is one
  lookup and one walk over the ids of exactly the processes it wakes;
* ``runs``, the run closures indexed by process id, which is all the
  scheduler calls;
* a driver map for multi-driver net resolution.

A ``CompiledModel`` holds no simulation state and is safely shared: every
``Simulator(model, policy)`` spawned from it gets fresh values, queues,
and waveforms.  The simulator has one scheduler and runs nothing else.

:func:`reference_model` is the second lowering into the same layout —
same driver ids, trigger index and startup list — whose leaf closures
walk the AST with :func:`evaluate` and a small statement interpreter.
It is the oracle: both lowerings must give identical values, waveforms
and activation counts under every ordering policy
(tests/hdl/test_kernel_differential.py).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple, Union

from cadinterop.hdl.ast_nodes import (
    Assign,
    Binary,
    Cond,
    Const,
    Delay,
    Expr,
    GateInst,
    HDLError,
    If,
    Module,
    Stmt,
    Unary,
    Var,
    expr_reads,
)
from cadinterop.hdl.logic import (
    AND_TABLE,
    BUF_TABLE,
    CASE_EQ_TABLE,
    EQ_TABLE,
    NOT_TABLE,
    OR_TABLE,
    XOR_TABLE,
    Logic4,
)
from cadinterop.obs import get_tracer

#: An expression closure: values-dict in, 4-value level out.
ExprFn = Callable[[Dict[str, str]], str]
#: A statement closure: acts on the running simulator.
StmtFn = Callable[[object], None]
#: One step of an initial body: a statement closure or a delay amount.
InitialStep = Union[StmtFn, int]


def _negate_table(table: Dict[str, Dict[str, str]]) -> Dict[str, Dict[str, str]]:
    return {
        a: {b: NOT_TABLE[value] for b, value in row.items()}
        for a, row in table.items()
    }


#: Composed tables so negated operators stay a single lookup per operand
#: pair (``a ~^ b`` is one hit in the XNOR table, not XOR-then-NOT).
_XNOR_TABLE = _negate_table(XOR_TABLE)
_NEQ_TABLE = _negate_table(EQ_TABLE)
_CASE_NEQ_TABLE = _negate_table(CASE_EQ_TABLE)

_BINARY_TABLES: Dict[str, Dict[str, Dict[str, str]]] = {
    "&": AND_TABLE,
    "&&": AND_TABLE,
    "|": OR_TABLE,
    "||": OR_TABLE,
    "^": XOR_TABLE,
    "~^": _XNOR_TABLE,
    "==": EQ_TABLE,
    "!=": _NEQ_TABLE,
    "===": CASE_EQ_TABLE,
    "!==": _CASE_NEQ_TABLE,
}


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------


#: Expressions reading at most this many distinct signals become one
#: truth-table lookup (4**3 = 64 entries at the most).
TABLE_READS = 3


def compile_expr(expr: Expr, tables: bool = True) -> ExprFn:
    """Lower an expression tree to a closure over the value map.

    Semantics match :func:`evaluate` exactly (the interpreter remains
    the oracle; see tests/hdl/test_compile.py).  With ``tables``, an
    expression reading 1 to :data:`TABLE_READS` signals that is not already
    a single lookup is evaluated by its plain closure tree
    (``tables=False``) over every level combination here, at compile time,
    and becomes one nested-dict lookup; wider expressions keep the closure
    tree, whose small operands are tabled in turn.
    """
    if isinstance(expr, Const):
        value = expr.value

        return lambda values: value
    if isinstance(expr, Var):
        name = expr.name

        return lambda values: values[name]
    if tables and not _single_lookup(expr):
        names = sorted(expr_reads(expr))
        if 0 < len(names) <= TABLE_READS:
            return _tabulate(compile_expr(expr, tables=False), names)
    if isinstance(expr, Unary):
        # Both ``~`` and ``!`` reduce to scalar inversion on 4-value levels.
        table = NOT_TABLE
        if isinstance(expr.operand, Var):
            # Leaf specialization: fold the variable read into this closure
            # instead of paying a child-lambda frame per activation.
            name = expr.operand.name
            return lambda values: table[values[name]]
        operand = compile_expr(expr.operand, tables)

        return lambda values: table[operand(values)]
    if isinstance(expr, Binary):
        table = _BINARY_TABLES.get(expr.op)
        if table is None:
            raise HDLError(f"unhandled operator {expr.op!r}")
        left_var = isinstance(expr.left, Var)
        right_var = isinstance(expr.right, Var)
        if left_var and right_var:
            # ``a OP b`` — the overwhelmingly common shape — becomes one
            # closure with two inline dict reads and a double table hit.
            ln, rn = expr.left.name, expr.right.name
            return lambda values: table[values[ln]][values[rn]]
        if left_var:
            ln = expr.left.name
            right = compile_expr(expr.right, tables)
            return lambda values: table[values[ln]][right(values)]
        if right_var:
            rn = expr.right.name
            left = compile_expr(expr.left, tables)
            return lambda values: table[left(values)][values[rn]]
        left = compile_expr(expr.left, tables)
        right = compile_expr(expr.right, tables)

        return lambda values: table[left(values)][right(values)]
    if isinstance(expr, Cond):
        condition = compile_expr(expr.condition, tables)
        if_true = compile_expr(expr.if_true, tables)
        if_false = compile_expr(expr.if_false, tables)

        def cond_fn(values: Dict[str, str]) -> str:
            selector = condition(values)
            if selector == "1":
                return if_true(values)
            if selector == "0":
                return if_false(values)
            # x/z selector: merge both arms (Verilog-style pessimism).
            a = if_true(values)
            b = if_false(values)
            return a if a == b else "x"

        return cond_fn
    raise HDLError(f"cannot compile {expr!r}")


def _single_lookup(expr: Expr) -> bool:
    """``op Var`` and ``Var op Var`` are one lookup already."""
    if isinstance(expr, Unary):
        return isinstance(expr.operand, Var)
    return (
        isinstance(expr, Binary)
        and isinstance(expr.left, Var)
        and isinstance(expr.right, Var)
    )


def _table(fn: ExprFn, names: Sequence[str], values: Dict[str, str]):
    """``fn``'s nested table over the ``names`` not yet bound in ``values``
    (module-level: a recursive closure would be a reference cycle)."""
    if len(values) == len(names):
        return fn(values)
    name = names[len(values)]
    return {
        value: _table(fn, names, {**values, name: value})
        for value in Logic4.VALUES
    }


def _tabulate(fn: ExprFn, names: Sequence[str]) -> ExprFn:
    """Collapse ``fn`` over ``names`` to ``table[values[a]][values[b]]...``."""
    table = _table(fn, names, {})
    if len(names) == 1:
        (a,) = names
        return lambda values: table[values[a]]
    if len(names) == 2:
        a, b = names
        return lambda values: table[values[a]][values[b]]
    a, b, c = names
    return lambda values: table[values[a]][values[b]][values[c]]


# ---------------------------------------------------------------------------
# Statement compilation
# ---------------------------------------------------------------------------


def compile_stmt(stmt: Stmt) -> StmtFn:
    """Lower one procedural statement (no delays) to a closure."""
    if isinstance(stmt, Assign):
        expr = compile_expr(stmt.expr)
        target = stmt.target
        if stmt.nonblocking:

            def run_nba(sim) -> None:
                sim._nba.append((target, expr(sim.values)))

            return run_nba

        def run_blocking(sim) -> None:
            sim.set_signal(target, expr(sim.values))

        return run_blocking
    if isinstance(stmt, If):
        condition = compile_expr(stmt.condition)
        then_body = tuple(compile_stmt(inner) for inner in stmt.then_body)
        else_body = (
            tuple(compile_stmt(inner) for inner in stmt.else_body)
            if stmt.else_body is not None
            else None
        )

        def run_if(sim) -> None:
            if condition(sim.values) == "1":
                for fn in then_body:
                    fn(sim)
            elif else_body is not None:
                for fn in else_body:
                    fn(sim)

        return run_if
    raise HDLError(f"cannot compile {stmt!r}")


def compile_always_body(
    body: Sequence[Stmt], lower_stmt: Callable[[Stmt], StmtFn] = compile_stmt
) -> StmtFn:
    """Compile an always body; delays are rejected here, at compile time."""
    for stmt in body:
        if isinstance(stmt, Delay):
            raise HDLError("delays inside always blocks are not supported")
    steps = tuple(lower_stmt(stmt) for stmt in body)
    if len(steps) == 1:
        # The common flop body: no loop frame around its one statement.
        return steps[0]

    def run(sim) -> None:
        for fn in steps:
            fn(sim)

    return run


def compile_initial_body(
    body: Sequence[Stmt], lower_stmt: Callable[[Stmt], StmtFn] = compile_stmt
) -> Tuple[InitialStep, ...]:
    """Compile an initial body to a step list: closures and delay amounts."""
    return tuple(
        stmt.amount if isinstance(stmt, Delay) else lower_stmt(stmt)
        for stmt in body
    )


# ---------------------------------------------------------------------------
# Gate compilation
# ---------------------------------------------------------------------------

_GATE_TABLES = {
    "and": (AND_TABLE, False),
    "nand": (AND_TABLE, True),
    "or": (OR_TABLE, False),
    "nor": (OR_TABLE, True),
    "xor": (XOR_TABLE, False),
    "xnor": (XOR_TABLE, True),
}
_NAND_TABLE = _negate_table(AND_TABLE)
_NOR_TABLE = _negate_table(OR_TABLE)


def compile_gate_eval(gate: GateInst) -> ExprFn:
    """Lower a gate primitive to a closure evaluating its output level."""
    inputs = tuple(gate.inputs)
    kind = gate.gate
    if kind in ("bufif0", "bufif1"):
        data, control = inputs[0], inputs[1]
        active = "1" if kind == "bufif1" else "0"

        def tristate(values: Dict[str, str]) -> str:
            enable = values[control]
            if enable == "x" or enable == "z":
                return "x"
            if enable != active:
                return "z"
            return BUF_TABLE[values[data]]

        return tristate
    if kind == "not":
        operand = inputs[0]
        return lambda values: NOT_TABLE[values[operand]]
    if kind == "buf":
        operand = inputs[0]
        return lambda values: BUF_TABLE[values[operand]]

    base, invert = _GATE_TABLES[kind]
    if len(inputs) == 2:
        # The common case gets a single (pre-composed) table lookup.
        first, second = inputs
        table = {"and": _NAND_TABLE, "or": _NOR_TABLE, "xor": _XNOR_TABLE}[
            {"nand": "and", "nor": "or", "xnor": "xor"}.get(kind, kind)
        ] if invert else base
        return lambda values: table[values[first]][values[second]]

    def folded(values: Dict[str, str]) -> str:
        result = values[inputs[0]]
        for name in inputs[1:]:
            result = base[result][values[name]]
        return NOT_TABLE[result] if invert else result

    return folded


# ---------------------------------------------------------------------------
# The reference interpreter (the oracle the closures are checked against)
# ---------------------------------------------------------------------------


def evaluate(expr: Expr, values: Dict[str, str]) -> str:
    """Evaluate an expression by walking its AST (the reference semantics)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return values[expr.name]
    if isinstance(expr, Unary):
        # Both ``~`` and ``!`` reduce to scalar inversion on 4-value levels.
        return Logic4.not_(evaluate(expr.operand, values))
    if isinstance(expr, Binary):
        left = evaluate(expr.left, values)
        right = evaluate(expr.right, values)
        if expr.op in ("&", "&&"):
            return Logic4.and_(left, right)
        if expr.op in ("|", "||"):
            return Logic4.or_(left, right)
        if expr.op == "^":
            return Logic4.xor(left, right)
        if expr.op == "~^":
            return Logic4.not_(Logic4.xor(left, right))
        if expr.op == "==":
            return Logic4.eq(left, right)
        if expr.op == "!=":
            return Logic4.not_(Logic4.eq(left, right))
        if expr.op == "===":
            return Logic4.case_eq(left, right)
        if expr.op == "!==":
            return Logic4.not_(Logic4.case_eq(left, right))
        raise HDLError(f"unhandled operator {expr.op!r}")
    if isinstance(expr, Cond):
        condition = evaluate(expr.condition, values)
        if condition == "1":
            return evaluate(expr.if_true, values)
        if condition == "0":
            return evaluate(expr.if_false, values)
        # x/z selector: merge both arms (Verilog-style pessimism).
        a = evaluate(expr.if_true, values)
        b = evaluate(expr.if_false, values)
        return a if a == b else "x"
    raise HDLError(f"cannot evaluate {expr!r}")


def _fold(fn: Callable[[str, str], str], values: List[str]) -> str:
    result = values[0]
    for value in values[1:]:
        result = fn(result, value)
    return result


_GATE_EVAL: Dict[str, Callable[[List[str]], str]] = {
    "and": lambda ins: _fold(Logic4.and_, ins),
    "or": lambda ins: _fold(Logic4.or_, ins),
    "nand": lambda ins: Logic4.not_(_fold(Logic4.and_, ins)),
    "nor": lambda ins: Logic4.not_(_fold(Logic4.or_, ins)),
    "xor": lambda ins: _fold(Logic4.xor, ins),
    "xnor": lambda ins: Logic4.not_(_fold(Logic4.xor, ins)),
    "not": lambda ins: Logic4.not_(ins[0]),
    "buf": lambda ins: "x" if ins[0] in "xz" else ins[0],
}


def _reference_gate(kind: str, ins: List[str]) -> str:
    if kind in ("bufif0", "bufif1"):
        if ins[1] in "xz":
            return "x"
        active = "1" if kind == "bufif1" else "0"
        return ("x" if ins[0] in "xz" else ins[0]) if ins[1] == active else "z"
    return _GATE_EVAL[kind](ins)


def _execute_stmt(sim, stmt: Stmt) -> None:
    if isinstance(stmt, Assign):
        value = evaluate(stmt.expr, sim.values)
        if stmt.nonblocking:
            sim._nba.append((stmt.target, value))
        else:
            sim.set_signal(stmt.target, value)
    elif isinstance(stmt, If):
        body = stmt.then_body if evaluate(stmt.condition, sim.values) == "1" else stmt.else_body
        for inner in body or ():
            _execute_stmt(sim, inner)
    else:
        raise HDLError(f"cannot execute {stmt!r}")


def _reference_stmt(stmt: Stmt) -> StmtFn:
    return lambda sim: _execute_stmt(sim, stmt)


def _reference_expr(expr: Expr) -> ExprFn:
    return lambda values: evaluate(expr, values)


def _reference_gate_eval(gate: GateInst) -> ExprFn:
    kind, inputs = gate.gate, tuple(gate.inputs)
    return lambda values: _reference_gate(kind, [values[name] for name in inputs])


# ---------------------------------------------------------------------------
# Compiled processes and the model
# ---------------------------------------------------------------------------


class CompiledProcess:
    """One schedulable unit: an index, a kind tag, and a run closure.

    Immutable after construction and stateless — all simulation state
    lives on the :class:`Simulator` the closure receives — so one process
    object is safely shared by any number of concurrent runs.
    """

    __slots__ = ("index", "kind", "run")

    def __init__(self, index: int, kind: str, run: StmtFn) -> None:
        self.index = index
        self.kind = kind  # "assign" | "gate" | "always" | "initial"
        self.run = run


#: signal -> new level -> ids of the processes to wake, in ascending id
#: (process-definition) order.  A signal only wakes anything when its
#: level changes, so a posedge is exactly "the new level is 1" and a
#: negedge "the new level is 0": the "1" tuple holds the level and posedge
#: listeners, "0" the level and negedge ones, "x" and "z" the level ones.
#: Every net has an entry.  A process id is its index in
#: :attr:`CompiledModel.processes` and :attr:`CompiledModel.runs`.
TriggerIndex = Dict[str, Dict[str, Tuple[int, ...]]]


class CompiledModel:
    """The immutable compile-once artifact of one flat module.

    Holds compiled processes, the sensitivity trigger index, and the
    driver map — everything a run needs that cannot change between runs.
    The scheduler works on process ids only: ``runs[i]`` is the run
    closure of ``processes[i]``, and the trigger index and ``startup``
    hold ids.  Instantiate runs with ``Simulator(model, policy)``; the
    ensemble machinery (``detect_races``) builds one of these per module
    and fans out policies over it.
    """

    __slots__ = ("module", "processes", "runs", "triggers", "drivers_of",
                 "driver_count", "startup")

    def __init__(
        self,
        module: Module,
        processes: Tuple[CompiledProcess, ...],
        triggers: TriggerIndex,
        drivers_of: Dict[str, Tuple[int, ...]],
        driver_count: int,
        startup: Tuple[int, ...],
    ) -> None:
        self.module = module
        self.processes = processes
        self.runs: Tuple[StmtFn, ...] = tuple(p.run for p in processes)
        self.triggers = triggers
        self.drivers_of = drivers_of
        self.driver_count = driver_count
        self.startup = startup


#: Total compile_model() invocations — lets tests assert that ensemble
#: runs elaborate once instead of once per personality.
_compile_calls = 0


def compile_calls() -> int:
    return _compile_calls


class _Lowering(NamedTuple):
    """The leaf closures a lowering supplies; :func:`_compile` lays out
    everything else (driver ids, trigger index, startup list)."""

    expr: Callable[[Expr], ExprFn]
    gate: Callable[[GateInst], ExprFn]
    stmt: Callable[[Stmt], StmtFn]
    #: May a zero-delay driver of a single-driver net bypass ``sim.drive``
    #: (its resolution is the identity) and go straight to ``set_signal``?
    shortcut: bool


_CLOSURES = _Lowering(compile_expr, compile_gate_eval, compile_stmt, shortcut=True)
#: The reference always drives through ``sim.drive``, so the compiled
#: shortcut is checked against the full resolution path.
_REFERENCE = _Lowering(
    _reference_expr, _reference_gate_eval, _reference_stmt, shortcut=False
)


def compile_model(module: Module) -> CompiledModel:
    """Validate and lower ``module`` to a shareable :class:`CompiledModel`."""
    global _compile_calls
    with get_tracer().span("hdl:compile", module=module.name) as span:
        model = _compile(module, _CLOSURES)
        span.set(
            processes=len(model.processes),
            nets=len(module.nets),
            drivers=model.driver_count,
        )
    _compile_calls += 1
    return model


def reference_model(module: Module) -> CompiledModel:
    """Lower ``module`` through the AST interpreter: the test oracle.

    Same layout as :func:`compile_model`, so the one scheduler runs both;
    only the leaf closures differ.  Not counted by :func:`compile_calls`.
    """
    return _compile(module, _REFERENCE)


#: The edge kind a change *to* each level completes (x and z complete none).
_WAKING_EDGE = {"0": "negedge", "1": "posedge", "x": None, "z": None}
#: The wake table of a signal nothing is sensitive to (shared, never mutated).
_WAKE_NONE: Dict[str, Tuple[int, ...]] = dict.fromkeys(_WAKING_EDGE, ())


def _compile(module: Module, lower: _Lowering) -> CompiledModel:
    module.validate()
    if module.instances:
        raise HDLError(
            f"module {module.name!r} has unresolved instances; flatten first"
        )

    processes: List[CompiledProcess] = []
    # signal -> process index -> kinds (insertion-ordered on both levels,
    # so triggering follows process-definition order).
    sensitivity: Dict[str, Dict[int, List[str]]] = {}
    # Assigns, then gates, open the process list, so a driver's id is its
    # process index.  Lay the ids out first so the closures below know
    # which targets are single-driver.
    targets = [a.target for a in module.assigns] + [g.output for g in module.gates]
    drivers_of: Dict[str, List[int]] = {}
    for driver_id, target in enumerate(targets):
        drivers_of.setdefault(target, []).append(driver_id)
    shortcut = (
        {s for s, ids in drivers_of.items() if len(ids) == 1}
        if lower.shortcut else set()
    )

    # Equal assignments lower to one shared closure (closures are
    # stateless): long stimulus bodies repeat ``clk = 1`` / ``clk = 0``.
    lowered: Dict[Tuple[str, Expr, bool], StmtFn] = {}

    def lower_stmt(stmt: Stmt) -> StmtFn:
        if not isinstance(stmt, Assign):
            return lower.stmt(stmt)
        key = (stmt.target, stmt.expr, stmt.nonblocking)
        fn = lowered.get(key)
        if fn is None:
            fn = lowered[key] = lower.stmt(stmt)
        return fn

    def register(signal: str, index: int, kind: str) -> None:
        kinds = sensitivity.setdefault(signal, {}).setdefault(index, [])
        if kind not in kinds:
            kinds.append(kind)

    def add_driver(kind: str, value: ExprFn, target: str, delay: int) -> int:
        index = len(processes)
        if delay <= 0 and target in shortcut:

            def run(sim, _e=value, _t=target) -> None:
                sim.set_signal(_t, _e(sim.values))

        else:

            def run(sim, _e=value, _t=target, _d=delay, _i=index) -> None:
                sim.drive(_i, _t, _e(sim.values), _d)

        processes.append(CompiledProcess(index, kind, run))
        return index

    for assign in module.assigns:
        index = add_driver(
            "assign", lower.expr(assign.expr), assign.target, assign.delay
        )
        for name in sorted(expr_reads(assign.expr)):
            register(name, index, "level")

    for gate in module.gates:
        index = add_driver("gate", lower.gate(gate), gate.output, gate.delay)
        for name in gate.inputs:
            register(name, index, "level")

    for block in module.always_blocks:
        index = len(processes)
        run_always = compile_always_body(block.body, lower_stmt)
        processes.append(CompiledProcess(index, "always", run_always))
        if block.sensitivity.is_edge_triggered():
            # An edge-triggered list ignores any stray level items.
            for item in block.sensitivity.items:
                if item.edge != "level":
                    register(item.signal, index, item.edge)
        else:
            for name in sorted(block.effective_sensitivity()):
                register(name, index, "level")

    for block in module.initial_blocks:
        index = len(processes)
        steps = compile_initial_body(block.body, lower_stmt)

        def run_initial(sim, _steps=steps) -> None:
            sim._resume_initial(_steps, 0)

        processes.append(CompiledProcess(index, "initial", run_initial))

    triggers: TriggerIndex = dict.fromkeys(module.nets, _WAKE_NONE)
    for signal, per_signal in sensitivity.items():
        listeners = sorted(per_signal.items())
        triggers[signal] = {
            level: tuple(
                index
                for index, kinds in listeners
                if "level" in kinds or edge in kinds
            )
            for level, edge in _WAKING_EDGE.items()
        }
    startup = tuple(p.index for p in processes if p.kind != "always")
    return CompiledModel(
        module=module,
        processes=tuple(processes),
        triggers=triggers,
        drivers_of={s: tuple(ids) for s, ids in drivers_of.items()},
        driver_count=len(targets),
        startup=startup,
    )
