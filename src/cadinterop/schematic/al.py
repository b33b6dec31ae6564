"""a/L — the Access Language, a small Lisp dialect for migration callbacks.

Section 2 of the paper: "These requirements were handled by the addition of
Access Language (a/L) callbacks for a selected set of objects.  Concurrent
CAE Solution's a/L is a Lisp dialect and is set up so that a user can
interact with the entire design hierarchy during the migration process."

This module implements that language: a tokenizer, s-expression reader, and
lexically scoped evaluator with the design-hierarchy builtins a migration
callback needs — reading, writing, renaming, and deleting properties on the
object being migrated, splitting one property into several (the paper's
analog-property example), and string/number manipulation.

The host binds the object under migration to the symbol ``obj``; callbacks
are ordinary a/L expressions, e.g. splitting a combined analog spec::

    (let ((spec (get-prop obj "wl")))
      (set-prop! obj "w" (car (split spec "/")))
      (set-prop! obj "l" (cadr (split spec "/")))
      (del-prop! obj "wl"))
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from cadinterop.common.properties import PropertyBag


class ALError(Exception):
    """Any a/L tokenization, parse, or evaluation failure."""


@dataclass(frozen=True)
class Symbol:
    """An a/L symbol (interned by name equality)."""

    name: str

    def __repr__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<comment>;[^\n]*)
      | (?P<open>\()
      | (?P<close>\))
      | (?P<quote>')
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<symbol>[^\s()'";]+)
    )""",
    re.VERBOSE,
)


def tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            if text[pos:].strip():
                raise ALError(f"bad character at offset {pos}: {text[pos]!r}")
            break
        pos = match.end()
        if match.lastgroup != "comment":
            tokens.append(match.group(match.lastgroup))
    return tokens


def _atom(token: str) -> Any:
    if token.startswith('"'):
        return token[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    if token == "#t":
        return True
    if token == "#f":
        return False
    if token == "nil":
        return None
    return Symbol(token)


def parse(text: str) -> List[Any]:
    """Read all top-level forms from ``text``."""
    tokens = tokenize(text)
    forms: List[Any] = []
    index = 0

    def read_form() -> Any:
        nonlocal index
        if index >= len(tokens):
            raise ALError("unexpected end of input")
        token = tokens[index]
        index += 1
        if token == "(":
            items: List[Any] = []
            while True:
                if index >= len(tokens):
                    raise ALError("unterminated list")
                if tokens[index] == ")":
                    index += 1
                    return items
                items.append(read_form())
        if token == ")":
            raise ALError("unexpected ')'")
        if token == "'":
            return [Symbol("quote"), read_form()]
        return _atom(token)

    while index < len(tokens):
        forms.append(read_form())
    return forms


# ---------------------------------------------------------------------------
# Environment & evaluator
# ---------------------------------------------------------------------------


class Environment:
    """A lexical frame chained to an enclosing frame."""

    def __init__(self, parent: Optional["Environment"] = None) -> None:
        self._parent = parent
        self._bindings: Dict[str, Any] = {}

    def define(self, name: str, value: Any) -> None:
        self._bindings[name] = value

    def set(self, name: str, value: Any) -> None:
        frame = self._find(name)
        if frame is None:
            raise ALError(f"set! of undefined variable {name!r}")
        frame._bindings[name] = value

    def lookup(self, name: str) -> Any:
        frame = self._find(name)
        if frame is None:
            raise ALError(f"undefined variable {name!r}")
        return frame._bindings[name]

    def _find(self, name: str) -> Optional["Environment"]:
        env: Optional[Environment] = self
        while env is not None:
            if name in env._bindings:
                return env
            env = env._parent
        return None


@dataclass
class Lambda:
    """A user-defined a/L procedure closing over its defining environment."""

    params: List[str]
    body: List[Any]
    env: Environment

    def __call__(self, *args: Any) -> Any:
        if len(args) != len(self.params):
            raise ALError(f"lambda expected {len(self.params)} args, got {len(args)}")
        frame = Environment(self.env)
        for name, value in zip(self.params, args):
            frame.define(name, value)
        result = None
        for form in self.body:
            result = evaluate(form, frame)
        return result


def evaluate(form: Any, env: Environment) -> Any:
    """Evaluate one form in ``env``."""
    while True:
        if isinstance(form, Symbol):
            return env.lookup(form.name)
        if not isinstance(form, list):
            return form
        if not form:
            return []
        head = form[0]
        if isinstance(head, Symbol):
            name = head.name
            if name == "quote":
                return form[1]
            if name == "if":
                test = evaluate(form[1], env)
                if test is not None and test is not False:
                    form = form[2]
                elif len(form) > 3:
                    form = form[3]
                else:
                    return None
                continue
            if name == "cond":
                for clause in form[1:]:
                    test = clause[0]
                    is_else = isinstance(test, Symbol) and test.name == "else"
                    value = True if is_else else evaluate(test, env)
                    if value is not None and value is not False:
                        result = None
                        for expr in clause[1:]:
                            result = evaluate(expr, env)
                        return result if clause[1:] else value
                return None
            if name == "define":
                target = form[1]
                if isinstance(target, list):
                    # (define (f a b) body...) sugar
                    fn_name = target[0]
                    params = [p.name for p in target[1:]]
                    env.define(fn_name.name, Lambda(params, form[2:], env))
                    return None
                env.define(target.name, evaluate(form[2], env))
                return None
            if name == "set!":
                env.set(form[1].name, evaluate(form[2], env))
                return None
            if name == "lambda":
                params = [p.name for p in form[1]]
                return Lambda(params, form[2:], env)
            if name == "let":
                frame = Environment(env)
                for binding in form[1]:
                    frame.define(binding[0].name, evaluate(binding[1], frame))
                result = None
                for expr in form[2:-1]:
                    evaluate(expr, frame)
                env, form = frame, form[-1] if len(form) > 2 else None
                if form is None:
                    return None
                continue
            if name == "begin" or name == "progn":
                for expr in form[1:-1]:
                    evaluate(expr, env)
                if len(form) == 1:
                    return None
                form = form[-1]
                continue
            if name == "and":
                value: Any = True
                for expr in form[1:]:
                    value = evaluate(expr, env)
                    if value is False or value is None:
                        return False
                return value
            if name == "or":
                for expr in form[1:]:
                    value = evaluate(expr, env)
                    if value is not False and value is not None:
                        return value
                return False
            if name == "while":
                while True:
                    test = evaluate(form[1], env)
                    if test is False or test is None:
                        return None
                    for expr in form[2:]:
                        evaluate(expr, env)
            if name == "foreach":
                # (foreach x list body...)
                var = form[1].name
                items = evaluate(form[2], env)
                frame = Environment(env)
                for item in items:
                    frame.define(var, item)
                    for expr in form[3:]:
                        evaluate(expr, frame)
                return None
        # Application
        fn = evaluate(head, env)
        args = [evaluate(arg, env) for arg in form[1:]]
        if not callable(fn):
            raise ALError(f"attempt to call non-procedure {fn!r}")
        return fn(*args)


# ---------------------------------------------------------------------------
# Builtins, including design-hierarchy access
# ---------------------------------------------------------------------------


def _truthy_eq(a: Any, b: Any) -> bool:
    return a == b


def _builtin_split(text: str, sep: str) -> List[str]:
    return list(str(text).split(sep))


def standard_environment() -> Environment:
    """The global a/L environment with arithmetic, list and string builtins."""
    env = Environment()
    builtins: Dict[str, Callable[..., Any]] = {
        "+": lambda *a: sum(a),
        "-": lambda a, *rest: -a if not rest else a - sum(rest),
        "*": lambda *a: _product(a),
        "/": lambda a, b: a / b if isinstance(a, float) or isinstance(b, float) or a % b else a // b,
        "mod": lambda a, b: a % b,
        "=": _truthy_eq,
        "equal?": _truthy_eq,
        "<": lambda a, b: a < b,
        ">": lambda a, b: a > b,
        "<=": lambda a, b: a <= b,
        ">=": lambda a, b: a >= b,
        "not": lambda a: a is False or a is None,
        "list": lambda *a: list(a),
        "car": lambda lst: _car(lst),
        "cdr": lambda lst: list(lst[1:]),
        "cadr": lambda lst: _car(lst[1:]),
        "cons": lambda a, lst: [a] + list(lst),
        "append": lambda *ls: [x for lst in ls for x in lst],
        "length": lambda lst: len(lst),
        "null?": lambda lst: lst is None or lst == [],
        "member": lambda item, lst: item in lst,
        "reverse": lambda lst: list(reversed(lst)),
        "nth": lambda idx, lst: lst[idx],
        "map": lambda fn, lst: [fn(x) for x in lst],
        "filter": lambda fn, lst: [x for x in lst if fn(x) not in (False, None)],
        "split": _builtin_split,
        "join": lambda lst, sep: str(sep).join(str(x) for x in lst),
        "concat": lambda *parts: "".join(str(p) for p in parts),
        "strcat": lambda *parts: "".join(str(p) for p in parts),
        "substring": lambda s, start, end=None: s[start:end],
        "upcase": lambda s: str(s).upper(),
        "downcase": lambda s: str(s).lower(),
        "strlen": lambda s: len(str(s)),
        "string->number": _string_to_number,
        "number->string": lambda n: str(n),
        "string?": lambda v: isinstance(v, str),
        "number?": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "index": lambda s, sub: str(s).find(str(sub)),
        "replace": lambda s, old, new: str(s).replace(str(old), str(new)),
        "startswith": lambda s, prefix: str(s).startswith(str(prefix)),
        "endswith": lambda s, suffix: str(s).endswith(str(suffix)),
        "min": min,
        "max": max,
        "abs": abs,
    }
    for name, fn in builtins.items():
        env.define(name, fn)
    return env


def _product(values: Sequence[Any]) -> Any:
    result: Any = 1
    for value in values:
        result = result * value
    return result


def _car(lst: Sequence[Any]) -> Any:
    if not lst:
        raise ALError("car of empty list")
    return lst[0]


def _string_to_number(s: str) -> Union[int, float]:
    try:
        return int(s)
    except ValueError:
        try:
            return float(s)
        except ValueError:
            raise ALError(f"not a number: {s!r}") from None


class ObjectHandle:
    """The hierarchy handle bound to ``obj`` inside a callback.

    Wraps any host object exposing a ``properties`` :class:`PropertyBag`
    (instances, symbols, schematics).  ``context`` carries extra read-only
    bindings the migrator wants visible (page number, cell name, ...).
    """

    def __init__(self, target: Any, context: Optional[Dict[str, Any]] = None) -> None:
        if not hasattr(target, "properties") or not isinstance(target.properties, PropertyBag):
            raise ALError(f"object {target!r} has no property bag")
        self.target = target
        self.context = dict(context or {})

    @property
    def properties(self) -> PropertyBag:
        return self.target.properties


def _property_environment() -> Environment:
    """The standard environment plus the property builtins that both callback
    environments share; each takes an :class:`ObjectHandle` first."""
    env = standard_environment()

    def get_prop(obj: ObjectHandle, name: str, default: Any = None) -> Any:
        value = obj.properties.get(name)
        return default if value is None else value

    def set_prop(obj: ObjectHandle, name: str, value: Any) -> Any:
        obj.properties.set(name, value, origin="a/L")
        return value

    def del_prop(obj: ObjectHandle, name: str) -> bool:
        return obj.properties.remove(name) is not None

    def rename_prop(obj: ObjectHandle, old: str, new: str) -> bool:
        return obj.properties.rename(old, new, origin="a/L")

    def has_prop(obj: ObjectHandle, name: str) -> bool:
        return name in obj.properties

    def prop_names(obj: ObjectHandle) -> List[str]:
        return obj.properties.names()

    def object_name(obj: ObjectHandle) -> str:
        return getattr(obj.target, "name", "")

    def context_get(obj: ObjectHandle, key: str, default: Any = None) -> Any:
        return obj.context.get(key, default)

    env.define("get-prop", get_prop)
    env.define("set-prop!", set_prop)
    env.define("del-prop!", del_prop)
    env.define("rename-prop!", rename_prop)
    env.define("has-prop?", has_prop)
    env.define("prop-names", prop_names)
    env.define("object-name", object_name)
    env.define("context", context_get)
    return env


def design_environment(handle: ObjectHandle) -> Environment:
    """Extend the standard environment with design-hierarchy builtins."""
    env = _property_environment()
    env.define("obj", handle)
    return env


class PageHandle:
    """Opaque handle for a schematic page inside a/L programs."""

    def __init__(self, page: Any) -> None:
        self.page = page


def schematic_environment(schematic: Any, context: Optional[Dict[str, Any]] = None) -> Environment:
    """Environment for *design-level* callbacks: ``design`` is bound.

    This is the "interact with the entire design hierarchy" capability:
    programs can walk pages, enumerate or find instances, read and write
    any instance's properties, and count/filter as needed::

        (foreach inst (all-instances design)
          (if (has-prop? inst "rval")
              (rename-prop! inst "rval" "r")))
    """
    env = _property_environment()
    extra = dict(context or {})

    def pages(design: Any) -> List[PageHandle]:
        return [PageHandle(page) for page in design.pages]

    def page_number(handle: PageHandle) -> int:
        return handle.page.number

    def page_instances(handle: PageHandle) -> List[ObjectHandle]:
        return [ObjectHandle(inst, extra) for inst in handle.page.instances]

    def all_instances(design: Any) -> List[ObjectHandle]:
        return [
            ObjectHandle(inst, extra)
            for page in design.pages
            for inst in page.instances
        ]

    def find_instance(design: Any, name: str) -> Any:
        for page in design.pages:
            for inst in page.instances:
                if inst.name == name:
                    return ObjectHandle(inst, extra)
        return None

    def instance_symbol(handle: ObjectHandle) -> str:
        return handle.target.symbol.name

    def instance_library(handle: ObjectHandle) -> str:
        return handle.target.symbol.library

    def wire_labels(handle: PageHandle) -> List[str]:
        return [wire.label for wire in handle.page.wires if wire.label]

    def relabel_wires(handle: PageHandle, old: str, new: str) -> int:
        count = 0
        for wire in handle.page.wires:
            if wire.label == old:
                wire.label = new
                count += 1
        return count

    def design_name(design: Any) -> str:
        return design.name

    env.define("pages", pages)
    env.define("page-number", page_number)
    env.define("page-instances", page_instances)
    env.define("all-instances", all_instances)
    env.define("find-instance", find_instance)
    env.define("instance-symbol", instance_symbol)
    env.define("instance-library", instance_library)
    env.define("wire-labels", wire_labels)
    env.define("relabel-wires!", relabel_wires)
    env.define("design-name", design_name)
    env.define("design", schematic)
    return env


def run_design_callback(source: str, schematic: Any, context: Optional[Dict[str, Any]] = None) -> Any:
    """Run a design-level a/L callback with ``design`` bound."""
    return run(source, schematic_environment(schematic, context))


def run(source: str, env: Optional[Environment] = None) -> Any:
    """Parse and evaluate ``source``; returns the last form's value."""
    environment = env if env is not None else standard_environment()
    result = None
    for form in parse(source):
        result = evaluate(form, environment)
    return result


def run_callback(source: str, target: Any, context: Optional[Dict[str, Any]] = None) -> Any:
    """Run a migration callback with ``obj`` bound to ``target``."""
    handle = ObjectHandle(target, context)
    return run(source, design_environment(handle))
