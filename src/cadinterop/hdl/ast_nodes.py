"""The HDL intermediate representation.

A deliberately small Verilog-like language, rich enough to express every
Section 3 failure mode: scalar 4-value signals, continuous assigns with
delay, ``always`` blocks with (possibly incomplete) sensitivity lists,
blocking and nonblocking assignment, ``initial`` stimulus with delays, gate
primitives, and hierarchical module instances.

Vectors are intentionally out of scope — every interoperability mechanism
the paper discusses (event ordering, sensitivity lists, naming, subsets,
timing checks) manifests on scalars, and scalar-only keeps the simulator
kernel small enough to parameterize aggressively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Union

from cadinterop.hdl.logic import Logic4


class HDLError(Exception):
    """Structural error in an HDL description."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    """A 4-value literal (``1'b0``, ``1'b1``, ``1'bx``, ``1'bz``)."""

    value: str

    def __post_init__(self) -> None:
        Logic4.validate(self.value)


@dataclass(frozen=True)
class Var:
    """A signal reference."""

    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "~" or "!"
    operand: "Expr"

    OPS = ("~", "!")

    def __post_init__(self) -> None:
        if self.op not in self.OPS:
            raise HDLError(f"unknown unary operator {self.op!r}")


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"

    OPS = ("&", "|", "^", "~^", "==", "!=", "===", "!==", "&&", "||")

    def __post_init__(self) -> None:
        if self.op not in self.OPS:
            raise HDLError(f"unknown binary operator {self.op!r}")


@dataclass(frozen=True)
class Cond:
    """The ternary ``cond ? a : b``."""

    condition: "Expr"
    if_true: "Expr"
    if_false: "Expr"


Expr = Union[Const, Var, Unary, Binary, Cond]


@lru_cache(maxsize=4096)
def _expr_reads_frozen(expr: Expr) -> FrozenSet[str]:
    """Memoized read-set (expression nodes are frozen, hence hashable).

    Sensitivity queries recompute read-sets per trigger check on the hot
    simulation path; the cache makes repeats O(hash) instead of O(tree).
    """
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Unary):
        return _expr_reads_frozen(expr.operand)
    if isinstance(expr, Binary):
        return _expr_reads_frozen(expr.left) | _expr_reads_frozen(expr.right)
    if isinstance(expr, Cond):
        return (
            _expr_reads_frozen(expr.condition)
            | _expr_reads_frozen(expr.if_true)
            | _expr_reads_frozen(expr.if_false)
        )
    raise HDLError(f"not an expression: {expr!r}")


def expr_reads(expr: Expr) -> Set[str]:
    """All signal names an expression reads (fresh, caller-mutable set)."""
    return set(_expr_reads_frozen(expr))


def substitute(expr: Expr, env: Mapping[str, Expr]) -> Expr:
    """Return ``expr`` with every variable named in ``env`` replaced by its
    expression there; ``{old: Var(new)}`` entries make it a rename."""
    if isinstance(expr, Var):
        return env.get(expr.name, expr)
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Unary):
        return Unary(expr.op, substitute(expr.operand, env))
    if isinstance(expr, Binary):
        return Binary(expr.op, substitute(expr.left, env), substitute(expr.right, env))
    if isinstance(expr, Cond):
        return Cond(
            substitute(expr.condition, env),
            substitute(expr.if_true, env),
            substitute(expr.if_false, env),
        )
    raise HDLError(f"not an expression: {expr!r}")


# ---------------------------------------------------------------------------
# Statements (inside always / initial)
# ---------------------------------------------------------------------------


@dataclass
class Assign:
    """Procedural assignment; ``nonblocking`` selects ``<=`` semantics."""

    target: str
    expr: Expr
    nonblocking: bool = False


@dataclass
class If:
    condition: Expr
    then_body: List["Stmt"]
    else_body: Optional[List["Stmt"]] = None


@dataclass
class Delay:
    """``#n`` inside an initial block (not allowed in always blocks here)."""

    amount: int

    def __post_init__(self) -> None:
        if self.amount <= 0:
            raise HDLError("delay must be positive")


Stmt = Union[Assign, If, Delay]


def stmt_reads(stmt: Stmt) -> Set[str]:
    if isinstance(stmt, Assign):
        return expr_reads(stmt.expr)
    if isinstance(stmt, If):
        reads = expr_reads(stmt.condition)
        for inner in stmt.then_body:
            reads |= stmt_reads(inner)
        for inner in stmt.else_body or []:
            reads |= stmt_reads(inner)
        return reads
    if isinstance(stmt, Delay):
        return set()
    raise HDLError(f"not a statement: {stmt!r}")


def stmt_writes(stmt: Stmt) -> Set[str]:
    if isinstance(stmt, Assign):
        return {stmt.target}
    if isinstance(stmt, If):
        writes: Set[str] = set()
        for inner in stmt.then_body:
            writes |= stmt_writes(inner)
        for inner in stmt.else_body or []:
            writes |= stmt_writes(inner)
        return writes
    if isinstance(stmt, Delay):
        return set()
    raise HDLError(f"not a statement: {stmt!r}")


def body_reads(body: Sequence[Stmt]) -> Set[str]:
    reads: Set[str] = set()
    for stmt in body:
        reads |= stmt_reads(stmt)
    return reads


def body_writes(body: Sequence[Stmt]) -> Set[str]:
    writes: Set[str] = set()
    for stmt in body:
        writes |= stmt_writes(stmt)
    return writes


def rename_body(body: Sequence[Stmt], mapping: Mapping[str, str]) -> List[Stmt]:
    """Copy a statement list with every signal renamed through ``mapping``."""
    env = {old: Var(new) for old, new in mapping.items()}

    def rename(stmts: Sequence[Stmt]) -> List[Stmt]:
        renamed: List[Stmt] = []
        for stmt in stmts:
            if isinstance(stmt, Assign):
                target = mapping.get(stmt.target, stmt.target)
                renamed.append(Assign(target, substitute(stmt.expr, env), stmt.nonblocking))
            elif isinstance(stmt, If):
                else_body = None if stmt.else_body is None else rename(stmt.else_body)
                condition = substitute(stmt.condition, env)
                renamed.append(If(condition, rename(stmt.then_body), else_body))
            elif isinstance(stmt, Delay):
                renamed.append(Delay(stmt.amount))
            else:
                raise HDLError(f"not a statement: {stmt!r}")
        return renamed

    return rename(body)


# ---------------------------------------------------------------------------
# Module items
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SensItem:
    """One sensitivity-list entry: level, posedge, or negedge of a signal."""

    signal: str
    edge: str = "level"

    EDGES = ("level", "posedge", "negedge")

    def __post_init__(self) -> None:
        if self.edge not in self.EDGES:
            raise HDLError(f"bad edge kind {self.edge!r}")


@dataclass
class Sensitivity:
    """An always block's trigger condition.

    ``star`` means ``@(*)`` — sensitive to everything the body reads.
    """

    items: List[SensItem] = field(default_factory=list)
    star: bool = False

    def signals(self) -> Set[str]:
        return {item.signal for item in self.items}

    def is_edge_triggered(self) -> bool:
        return any(item.edge != "level" for item in self.items)


@dataclass
class AlwaysBlock:
    sensitivity: Sensitivity
    body: List[Stmt]

    def reads(self) -> Set[str]:
        return body_reads(self.body)

    def writes(self) -> Set[str]:
        return body_writes(self.body)

    def effective_sensitivity(self) -> Set[str]:
        """Signals that actually trigger this block in simulation."""
        if self.sensitivity.star:
            return self.reads()
        return self.sensitivity.signals()


@dataclass
class InitialBlock:
    body: List[Stmt]


@dataclass
class ContAssign:
    """``assign #d target = expr;``"""

    target: str
    expr: Expr
    delay: int = 0


@dataclass
class GateInst:
    """A gate primitive instance: ``and g1 (y, a, b);``"""

    name: str
    gate: str
    output: str
    inputs: List[str]
    delay: int = 0

    GATES = ("and", "or", "nand", "nor", "xor", "xnor", "not", "buf", "bufif0", "bufif1")

    def __post_init__(self) -> None:
        if self.gate not in self.GATES:
            raise HDLError(f"unknown gate primitive {self.gate!r}")
        minimum = 1 if self.gate in ("not", "buf") else 2
        if self.gate in ("bufif0", "bufif1"):
            minimum = 2
        if len(self.inputs) < minimum:
            raise HDLError(f"gate {self.gate!r} needs at least {minimum} inputs")


@dataclass
class ModuleInst:
    """A hierarchical instance with named port connections."""

    name: str
    module_name: str
    connections: Dict[str, str]  # formal port -> actual signal


@dataclass
class PortDecl:
    name: str
    direction: str  # input / output / inout

    DIRECTIONS = ("input", "output", "inout")

    def __post_init__(self) -> None:
        if self.direction not in self.DIRECTIONS:
            raise HDLError(f"bad port direction {self.direction!r}")


@dataclass
class NetDecl:
    name: str
    kind: str = "wire"  # wire / reg

    KINDS = ("wire", "reg")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise HDLError(f"bad net kind {self.kind!r}")


class Module:
    """One HDL module."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.ports: List[PortDecl] = []
        self.nets: Dict[str, NetDecl] = {}
        self.assigns: List[ContAssign] = []
        self.always_blocks: List[AlwaysBlock] = []
        self.initial_blocks: List[InitialBlock] = []
        self.gates: List[GateInst] = []
        self.instances: List[ModuleInst] = []

    # -- construction helpers ------------------------------------------------

    def add_port(self, name: str, direction: str) -> PortDecl:
        if any(p.name == name for p in self.ports):
            raise HDLError(f"duplicate port {name!r} in module {self.name!r}")
        port = PortDecl(name, direction)
        self.ports.append(port)
        if name not in self.nets:
            self.nets[name] = NetDecl(name, "wire")
        return port

    def add_net(self, name: str, kind: str = "wire") -> NetDecl:
        existing = self.nets.get(name)
        if existing is not None:
            if existing.kind == "wire" and kind == "reg":
                # input a; reg a; style double declaration upgrades the
                # kind; an implicit wire reference never downgrades a reg.
                self.nets[name] = NetDecl(name, kind)
            return self.nets[name]
        decl = NetDecl(name, kind)
        self.nets[name] = decl
        return decl

    def add_assign(self, target: str, expr: Expr, delay: int = 0) -> ContAssign:
        item = ContAssign(target, expr, delay)
        self.assigns.append(item)
        return item

    def add_always(self, sensitivity: Sensitivity, body: List[Stmt]) -> AlwaysBlock:
        block = AlwaysBlock(sensitivity, body)
        self.always_blocks.append(block)
        return block

    def add_initial(self, body: List[Stmt]) -> InitialBlock:
        block = InitialBlock(body)
        self.initial_blocks.append(block)
        return block

    def add_gate(self, gate: GateInst) -> GateInst:
        self.gates.append(gate)
        return gate

    def add_instance(self, inst: ModuleInst) -> ModuleInst:
        if any(existing.name == inst.name for existing in self.instances):
            raise HDLError(f"duplicate instance {inst.name!r} in module {self.name!r}")
        self.instances.append(inst)
        return inst

    # -- queries ---------------------------------------------------------------

    def port(self, name: str) -> PortDecl:
        for port in self.ports:
            if port.name == name:
                return port
        raise HDLError(f"module {self.name!r} has no port {name!r}")

    def port_names(self) -> List[str]:
        return [p.name for p in self.ports]

    def signal_names(self) -> List[str]:
        return list(self.nets)

    def drivers_of(self, signal: str) -> List[object]:
        """Every construct that drives ``signal`` (for multi-driver checks)."""
        drivers: List[object] = []
        for assign in self.assigns:
            if assign.target == signal:
                drivers.append(assign)
        for gate in self.gates:
            if gate.output == signal:
                drivers.append(gate)
        for block in self.always_blocks:
            if signal in block.writes():
                drivers.append(block)
        return drivers

    def validate(self) -> None:
        """Raise on structural inconsistencies (undeclared signals etc.)."""
        declared = set(self.nets)

        def check(names: Set[str], where: str) -> None:
            unknown = names - declared
            if unknown:
                raise HDLError(
                    f"module {self.name!r}: undeclared signal(s) {sorted(unknown)} in {where}"
                )

        for assign in self.assigns:
            check({assign.target} | expr_reads(assign.expr), "continuous assign")
        for block in self.always_blocks:
            check(block.reads() | block.writes() | block.sensitivity.signals(), "always block")
        for block in self.initial_blocks:
            check(body_reads(block.body) | body_writes(block.body), "initial block")
        for gate in self.gates:
            check({gate.output} | set(gate.inputs), f"gate {gate.name!r}")
        for inst in self.instances:
            check(set(inst.connections.values()), f"instance {inst.name!r}")


def rewrite_module(module: Module, mapping: Mapping[str, str]) -> Module:
    """Copy ``module`` with every signal renamed through ``mapping``.

    Ports, nets (in declaration order), continuous assigns, gates, always
    and initial blocks and submodule instances are all copied.  Instance
    actuals are renamed; formals belong to the child module and, like gate
    and instance names, are kept.  A mapping that merges two signals is an
    error, not a silent alias.
    """

    def rename(signal: str) -> str:
        return mapping.get(signal, signal)

    copy = Module(module.name)
    copy.ports = [PortDecl(rename(port.name), port.direction) for port in module.ports]
    copy.nets = {
        rename(name): NetDecl(rename(name), decl.kind) for name, decl in module.nets.items()
    }
    if len(copy.nets) != len(module.nets):
        raise HDLError(f"module {module.name!r}: the rename merges signals")
    env = {old: Var(new) for old, new in mapping.items()}
    copy.assigns = [
        ContAssign(rename(assign.target), substitute(assign.expr, env), assign.delay)
        for assign in module.assigns
    ]
    copy.gates = [
        GateInst(
            gate.name, gate.gate, rename(gate.output), [rename(pin) for pin in gate.inputs],
            gate.delay,
        )
        for gate in module.gates
    ]
    copy.always_blocks = [
        AlwaysBlock(
            Sensitivity(
                [SensItem(rename(item.signal), item.edge) for item in block.sensitivity.items],
                block.sensitivity.star,
            ),
            rename_body(block.body, mapping),
        )
        for block in module.always_blocks
    ]
    copy.initial_blocks = [
        InitialBlock(rename_body(block.body, mapping)) for block in module.initial_blocks
    ]
    copy.instances = [
        ModuleInst(
            inst.name,
            inst.module_name,
            {formal: rename(actual) for formal, actual in inst.connections.items()},
        )
        for inst in module.instances
    ]
    return copy


class DesignUnit:
    """A set of modules with one top (the compilation unit)."""

    def __init__(self, top: Optional[str] = None) -> None:
        self.modules: Dict[str, Module] = {}
        self.top = top

    def add(self, module: Module, top: bool = False) -> Module:
        if module.name in self.modules:
            raise HDLError(f"duplicate module {module.name!r}")
        self.modules[module.name] = module
        if top or self.top is None:
            self.top = module.name
        return module

    def module(self, name: str) -> Module:
        try:
            return self.modules[name]
        except KeyError:
            raise HDLError(f"no module named {name!r}") from None

    @property
    def top_module(self) -> Module:
        if self.top is None:
            raise HDLError("design unit has no top module")
        return self.module(self.top)
