"""Simple synthesis: RTL to a gate-level netlist.

Combinational cones (continuous assigns and level-sensitive always blocks)
become gate primitives; edge-triggered blocks remain as minimal flip-flop
processes fed by synthesized cones; incomplete assignment paths infer
latches (kept as level-sensitive feedback processes and reported).

Crucially for the paper's Section 3.2 example, synthesis reads a
level-sensitive block under the *full* sensitivity of its body — so the
synthesized netlist of ``always @(a or b) out = a & b & c;`` responds to
``c``, while RTL simulation of the original does not.  The resulting
netlist is itself a simulatable :class:`~cadinterop.hdl.ast_nodes.Module`,
so that divergence is directly observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.hdl.ast_nodes import (
    AlwaysBlock,
    Assign,
    Binary,
    Cond,
    Const,
    Expr,
    GateInst,
    HDLError,
    If,
    Module,
    SensItem,
    Sensitivity,
    Stmt,
    Unary,
    Var,
    expr_reads,
    substitute,
)
from cadinterop.hdl.synth.subset import SubsetProfile


class SynthesisError(HDLError):
    """The module cannot be synthesized by this implementation."""


@dataclass
class SynthesisResult:
    """A gate netlist plus inference accounting."""

    netlist: Module
    gate_count: int = 0
    ff_count: int = 0
    latch_count: int = 0
    log: IssueLog = field(default_factory=IssueLog)


class _NetlistBuilder:
    """Emits gates and temporary wires into the output module."""

    def __init__(self, netlist: Module) -> None:
        self.netlist = netlist
        self._temp = 0
        self._gate = 0

    def wire(self) -> str:
        self._temp += 1
        name = f"synth$t{self._temp}"
        self.netlist.add_net(name, "wire")
        return name

    def gate(self, kind: str, output: str, inputs: List[str]) -> None:
        self._gate += 1
        self.netlist.add_gate(GateInst(f"synth$g{self._gate}", kind, output, inputs))

    @property
    def gate_count(self) -> int:
        return self._gate

    def emit_expr(self, expr: Expr, constants: Dict[str, str]) -> str:
        """Lower an expression tree to gates; returns the result wire."""
        if isinstance(expr, Const):
            if expr.value not in ("0", "1"):
                raise SynthesisError(f"cannot synthesize literal 1'b{expr.value}")
            name = constants.get(expr.value)
            if name is None:
                # Constants become tied wires driven by a buf of themselves
                # via an assign-free idiom: use a buf from a tied net.
                name = f"synth$const{expr.value}"
                if name not in self.netlist.nets:
                    self.netlist.add_net(name, "wire")
                    self.netlist.add_assign(name, Const(expr.value))
                constants[expr.value] = name
            return name
        if isinstance(expr, Var):
            return expr.name
        if isinstance(expr, Unary):
            operand = self.emit_expr(expr.operand, constants)
            out = self.wire()
            self.gate("not", out, [operand])
            return out
        if isinstance(expr, Binary):
            left = self.emit_expr(expr.left, constants)
            right = self.emit_expr(expr.right, constants)
            out = self.wire()
            if expr.op in ("&", "&&"):
                self.gate("and", out, [left, right])
            elif expr.op in ("|", "||"):
                self.gate("or", out, [left, right])
            elif expr.op == "^":
                self.gate("xor", out, [left, right])
            elif expr.op == "~^":
                self.gate("xnor", out, [left, right])
            elif expr.op in ("==", "==="):
                self.gate("xnor", out, [left, right])
            elif expr.op in ("!=", "!=="):
                self.gate("xor", out, [left, right])
            else:
                raise SynthesisError(f"cannot synthesize operator {expr.op!r}")
            return out
        if isinstance(expr, Cond):
            condition = self.emit_expr(expr.condition, constants)
            if_true = self.emit_expr(expr.if_true, constants)
            if_false = self.emit_expr(expr.if_false, constants)
            ncond = self.wire()
            self.gate("not", ncond, [condition])
            arm_true = self.wire()
            self.gate("and", arm_true, [condition, if_true])
            arm_false = self.wire()
            self.gate("and", arm_false, [ncond, if_false])
            out = self.wire()
            self.gate("or", out, [arm_true, arm_false])
            return out
        raise SynthesisError(f"cannot synthesize expression {expr!r}")


def _symbolic_exec(body: Sequence[Stmt], env: Dict[str, Expr]) -> Dict[str, Expr]:
    """Sequentially interpret a comb body into per-signal expressions."""
    current = dict(env)
    for stmt in body:
        if isinstance(stmt, Assign):
            if stmt.nonblocking:
                raise SynthesisError("nonblocking assign in combinational block")
            current[stmt.target] = substitute(stmt.expr, current)
        elif isinstance(stmt, If):
            condition = substitute(stmt.condition, current)
            then_env = _symbolic_exec(stmt.then_body, current)
            else_env = _symbolic_exec(stmt.else_body or [], current)
            merged = dict(current)
            for target in set(then_env) | set(else_env):
                then_value = then_env.get(target, current.get(target, Var(target)))
                else_value = else_env.get(target, current.get(target, Var(target)))
                if then_value is else_value:
                    merged[target] = then_value
                else:
                    merged[target] = Cond(condition, then_value, else_value)
            current = merged
        else:
            raise SynthesisError(f"cannot synthesize statement {stmt!r}")
    return current


def _expr_self_reads(expr: Expr, target: str) -> bool:
    return target in expr_reads(expr)


def synthesize(module: Module, profile: Optional[SubsetProfile] = None) -> SynthesisResult:
    """Synthesize ``module`` into a gate netlist.

    ``initial`` blocks are carried over verbatim (they are testbench
    stimulus, not hardware); hierarchy must be flattened first.
    """
    if module.instances:
        raise SynthesisError("flatten hierarchy before synthesis")
    if profile is not None:
        violations = profile.violations(module)
        if violations:
            raise SynthesisError(
                f"{profile.name} rejects module {module.name!r}: {violations}"
            )

    netlist = Module(module.name + "_syn")
    result = SynthesisResult(netlist=netlist)
    builder = _NetlistBuilder(netlist)
    constants: Dict[str, str] = {}

    for port in module.ports:
        netlist.add_port(port.name, port.direction)
    for name, decl in module.nets.items():
        netlist.add_net(name, decl.kind)

    for assign in module.assigns:
        wire = builder.emit_expr(assign.expr, constants)
        builder.gate("buf", assign.target, [wire])

    for gate in module.gates:
        netlist.add_gate(
            GateInst("synth$" + gate.name, gate.gate, gate.output, list(gate.inputs), 0)
        )
        builder._gate += 1

    for index, block in enumerate(module.always_blocks):
        if block.sensitivity.is_edge_triggered():
            _synthesize_ff_block(block, builder, constants, result)
            continue
        env = _symbolic_exec(block.body, {})
        for target in sorted(block.writes()):
            expr = env[target]
            if _expr_self_reads(expr, target):
                # Latch inference: keep a level-sensitive feedback process.
                result.latch_count += 1
                result.log.add(
                    Severity.WARNING, Category.SEMANTICS,
                    f"{module.name}.always[{index}].{target}",
                    "latch inferred (not all paths assign the target)",
                    remedy="add an else branch or default assignment",
                )
                cone_inputs = sorted(expr_reads(expr) - {target})
                netlist.add_always(
                    Sensitivity(items=[SensItem(s) for s in cone_inputs]),
                    [Assign(target, expr)],
                )
            else:
                wire = builder.emit_expr(expr, constants)
                builder.gate("buf", target, [wire])

    for block in module.initial_blocks:
        netlist.add_initial(list(block.body))

    result.gate_count = builder.gate_count
    netlist.validate()
    return result


def _synthesize_ff_block(
    block: AlwaysBlock,
    builder: _NetlistBuilder,
    constants: Dict[str, str],
    result: SynthesisResult,
) -> None:
    """Edge block: synthesize the input cones, keep a minimal FF process."""
    env = _symbolic_exec_ff(block.body)
    netlist = builder.netlist
    ff_body: List[Stmt] = []
    for target, expr in sorted(env.items()):
        cone_wire = builder.emit_expr(expr, constants)
        ff_body.append(Assign(target, Var(cone_wire), nonblocking=True))
        result.ff_count += 1
    netlist.add_always(
        Sensitivity(items=[SensItem(i.signal, i.edge) for i in block.sensitivity.items]),
        ff_body,
    )


def _symbolic_exec_ff(body: Sequence[Stmt]) -> Dict[str, Expr]:
    """Sequential blocks: nonblocking targets get their cone expressions."""
    env: Dict[str, Expr] = {}
    for stmt in body:
        if isinstance(stmt, Assign):
            env[stmt.target] = stmt.expr
        elif isinstance(stmt, If):
            condition = stmt.condition
            then_env = _symbolic_exec_ff(stmt.then_body)
            else_env = _symbolic_exec_ff(stmt.else_body or [])
            for target in set(then_env) | set(else_env):
                then_value = then_env.get(target, env.get(target, Var(target)))
                else_value = else_env.get(target, env.get(target, Var(target)))
                env[target] = Cond(condition, then_value, else_value)
        else:
            raise SynthesisError(f"cannot synthesize {stmt!r} in sequential block")
    return env
