"""Parser for the Verilog-like subset into the HDL IR.

Accepts the constructs :mod:`cadinterop.hdl.ast_nodes` models::

    module top (a, b, y);
      input a, b;
      output y;
      wire w;
      reg r;
      assign #2 w = a & b;
      always @(a or b) begin
        r = a | b;
        if (r) r = ~b; else r = b;
      end
      always @(posedge clk) q <= d;
      initial begin a = 1'b0; #5 a = 1'b1; end
      and g1 (w2, a, b);
      child u1 (.p(a), .q(w));
    endmodule

Escaped identifiers (``\\name ``) are accepted and stored with their body
as the signal name, so the naming experiments can roundtrip them.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from cadinterop.hdl.ast_nodes import (
    Assign,
    Binary,
    Cond,
    Const,
    Delay,
    DesignUnit,
    Expr,
    GateInst,
    HDLError,
    If,
    Module,
    ModuleInst,
    SensItem,
    Sensitivity,
    Stmt,
    Unary,
    Var,
)


class ParseError(HDLError):
    """Syntax error with position information."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<literal>1'b[01xz])
    | (?P<number>\d+)
    | (?P<escaped>\\[^\s]+\s)
    | (?P<id>[A-Za-z_][A-Za-z_0-9$]*)
    | (?P<op><=|==+|!==|!=|&&|\|\||~\^|[~!&|^()=;,#@.?:*])
    """,
    re.VERBOSE | re.DOTALL,
)


class _Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


def tokenize(source: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    line = 1
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if not match:
            raise ParseError(f"unexpected character {source[pos]!r}", line)
        kind = match.lastgroup
        text = match.group(kind)
        line += text.count("\n")
        pos = match.end()
        if kind in ("ws", "line_comment", "block_comment"):
            continue
        if kind == "escaped":
            # Strip leading backslash and trailing whitespace terminator.
            tokens.append(_Token("id", text[1:].rstrip(), line))
            continue
        tokens.append(_Token(kind, text, line))
    return tokens


_GATES = set(GateInst.GATES)
_KEYWORD_IDS = {
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "assign", "always", "initial", "begin", "end", "if", "else",
    "posedge", "negedge", "or",
}


class Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, source: str) -> None:
        self._tokens = tokenize(source)
        self._pos = 0

    # -- token plumbing ---------------------------------------------------

    def _peek(self) -> Optional[_Token]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            last_line = self._tokens[-1].line if self._tokens else 1
            raise ParseError("unexpected end of input", last_line)
        self._pos += 1
        return token

    def _expect(self, text: str) -> _Token:
        token = self._next()
        if token.text != text:
            raise ParseError(f"expected {text!r}, got {token.text!r}", token.line)
        return token

    def _accept(self, text: str) -> bool:
        token = self._peek()
        if token is not None and token.text == text:
            self._pos += 1
            return True
        return False

    def _expect_id(self) -> str:
        token = self._next()
        if token.kind != "id":
            raise ParseError(f"expected identifier, got {token.text!r}", token.line)
        return token.text

    def _expect_number(self) -> int:
        token = self._next()
        if token.kind != "number":
            raise ParseError(f"expected number, got {token.text!r}", token.line)
        return int(token.text)

    # -- entry points -------------------------------------------------------

    def parse_design(self) -> DesignUnit:
        unit = DesignUnit()
        while self._peek() is not None:
            unit.add(self.parse_module())
        if not unit.modules:
            raise ParseError("no modules in source", 1)
        return unit

    def parse_module(self) -> Module:
        self._expect("module")
        module = Module(self._expect_id())
        header_ports: List[str] = []
        if self._accept("("):
            if not self._accept(")"):
                while True:
                    header_ports.append(self._expect_id())
                    if self._accept(")"):
                        break
                    self._expect(",")
        self._expect(";")
        while not self._accept("endmodule"):
            self._parse_item(module)
        declared_ports = set(module.port_names())
        missing = [p for p in header_ports if p not in declared_ports]
        if missing:
            raise HDLError(
                f"module {module.name!r}: header ports {missing} never given a direction"
            )
        module.validate()
        return module

    # -- items ---------------------------------------------------------------

    def _parse_item(self, module: Module) -> None:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of module", self._tokens[-1].line)
        word = token.text
        if word in ("input", "output", "inout"):
            self._next()
            for name in self._id_list():
                module.add_port(name, word)
            self._expect(";")
        elif word in ("wire", "reg"):
            self._next()
            for name in self._id_list():
                module.add_net(name, word)
            self._expect(";")
        elif word == "assign":
            self._next()
            delay = 0
            if self._accept("#"):
                delay = self._expect_number()
            target = self._expect_id()
            self._expect("=")
            expr = self._parse_expr()
            self._expect(";")
            module.add_net(target)
            module.add_assign(target, expr, delay)
        elif word == "always":
            self._next()
            self._expect("@")
            sensitivity = self._parse_sensitivity()
            body = self._parse_stmt()
            module.add_always(sensitivity, body)
        elif word == "initial":
            self._next()
            module.add_initial(self._parse_stmt())
        elif word in _GATES:
            self._next()
            delay = 0
            if self._accept("#"):
                delay = self._expect_number()
            name = self._expect_id()
            self._expect("(")
            terminals = self._id_list()
            self._expect(")")
            self._expect(";")
            if len(terminals) < 2:
                raise HDLError(f"gate {name!r} needs an output and inputs")
            for terminal in terminals:
                module.add_net(terminal)
            module.add_gate(GateInst(name, word, terminals[0], terminals[1:], delay))
        elif token.kind == "id" and word not in _KEYWORD_IDS:
            # Module instance: <module> <name> ( .port(signal), ... );
            self._next()
            inst_name = self._expect_id()
            self._expect("(")
            connections: Dict[str, str] = {}
            if not self._accept(")"):
                while True:
                    self._expect(".")
                    formal = self._expect_id()
                    self._expect("(")
                    actual = self._expect_id()
                    self._expect(")")
                    if formal in connections:
                        raise ParseError(f"port {formal!r} connected twice", token.line)
                    connections[formal] = actual
                    if self._accept(")"):
                        break
                    self._expect(",")
            self._expect(";")
            for actual in connections.values():
                module.add_net(actual)
            module.add_instance(ModuleInst(inst_name, word, connections))
        else:
            raise ParseError(f"unexpected token {word!r} in module body", token.line)

    def _id_list(self) -> List[str]:
        names = [self._expect_id()]
        while self._accept(","):
            names.append(self._expect_id())
        return names

    def _parse_sensitivity(self) -> Sensitivity:
        self._expect("(")
        if self._accept("*"):
            self._expect(")")
            return Sensitivity(star=True)
        items: List[SensItem] = []
        while True:
            edge = "level"
            token = self._peek()
            if token is not None and token.text in ("posedge", "negedge"):
                edge = self._next().text
            items.append(SensItem(self._expect_id(), edge))
            if self._accept(")"):
                break
            if not (self._accept("or") or self._accept(",")):
                bad = self._peek()
                raise ParseError(
                    f"expected 'or', ',' or ')' in sensitivity list, got "
                    f"{bad.text if bad else 'EOF'!r}",
                    bad.line if bad else 0,
                )
        return Sensitivity(items=items)

    # -- statements ------------------------------------------------------------

    def _parse_stmt(self) -> List[Stmt]:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input in statement", self._tokens[-1].line)
        if token.text == "begin":
            self._next()
            body: List[Stmt] = []
            while not self._accept("end"):
                body.extend(self._parse_stmt())
            return body
        if token.text == "if":
            self._next()
            self._expect("(")
            condition = self._parse_expr()
            self._expect(")")
            then_body = self._parse_stmt()
            else_body: Optional[List[Stmt]] = None
            if self._accept("else"):
                else_body = self._parse_stmt()
            return [If(condition, then_body, else_body)]
        if token.text == "#":
            self._next()
            amount = self._expect_number()
            rest: List[Stmt] = []
            nxt = self._peek()
            if nxt is not None and nxt.text != "end":
                rest = self._parse_stmt()
            return [Delay(amount)] + rest
        if token.kind == "id":
            target = self._expect_id()
            op = self._next()
            if op.text == "=":
                nonblocking = False
            elif op.text == "<=":
                nonblocking = True
            else:
                raise ParseError(f"expected '=' or '<=', got {op.text!r}", op.line)
            expr = self._parse_expr()
            self._expect(";")
            return [Assign(target, expr, nonblocking=nonblocking)]
        raise ParseError(f"unexpected token {token.text!r} in statement", token.line)

    # -- expressions (precedence climbing) ---------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> Expr:
        condition = self._parse_or()
        if self._accept("?"):
            if_true = self._parse_ternary()
            self._expect(":")
            if_false = self._parse_ternary()
            return Cond(condition, if_true, if_false)
        return condition

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._accept("||"):
            left = Binary("||", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_bitor()
        while self._accept("&&"):
            left = Binary("&&", left, self._parse_bitor())
        return left

    def _parse_bitor(self) -> Expr:
        left = self._parse_bitxor()
        while self._accept("|"):
            left = Binary("|", left, self._parse_bitxor())
        return left

    def _parse_bitxor(self) -> Expr:
        left = self._parse_bitand()
        while True:
            if self._accept("^"):
                left = Binary("^", left, self._parse_bitand())
            elif self._accept("~^"):
                left = Binary("~^", left, self._parse_bitand())
            else:
                return left

    def _parse_bitand(self) -> Expr:
        left = self._parse_equality()
        while self._accept("&"):
            left = Binary("&", left, self._parse_equality())
        return left

    def _parse_equality(self) -> Expr:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token is not None and token.text in ("==", "!=", "===", "!=="):
                op = self._next().text
                left = Binary(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expr:
        if self._accept("~"):
            return Unary("~", self._parse_unary())
        if self._accept("!"):
            return Unary("!", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._next()
        if token.text == "(":
            expr = self._parse_expr()
            self._expect(")")
            return expr
        if token.kind == "literal":
            return Const(token.text[-1])
        if token.kind == "number":
            if token.text in ("0", "1"):
                return Const(token.text)
            raise ParseError(f"only 0/1/1'bx/1'bz literals supported, got {token.text!r}", token.line)
        if token.kind == "id":
            return Var(token.text)
        raise ParseError(f"unexpected token {token.text!r} in expression", token.line)


def parse(source: str) -> DesignUnit:
    """Parse source text into a design unit (first module becomes top)."""
    return Parser(source).parse_design()


def parse_module(source: str) -> Module:
    """Parse a single module."""
    unit = parse(source)
    if len(unit.modules) != 1:
        raise HDLError(f"expected one module, found {len(unit.modules)}")
    return unit.top_module
