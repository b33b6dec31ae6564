"""Composer-like text format: s-expression schematic serialization.

The target system of the paper's case study is modelled with a fully
parenthesized format (its real counterpart exposed a Lisp-based access
language, so the on-disk flavor follows suit).  The reader reuses the a/L
s-expression parser — one concrete benefit of having implemented the
callback language properly.

Format sketch::

    (library "cd_basic"
      (symbol "nand2" "symbol" component (body 0 0 40 40)
        (pin "A" input (at 0 10))
        (prop "model" str "nand2_lvs")))

    (schematic "counter" "composer-like"
      (port "clk" input)
      (prop "author" str "exar")
      (page 1 (frame 0 0 1000 800)
        (inst "I1" ("cd_basic" "nand2" "symbol") (at 100 200) (orient R0)
          (prop "w" str "2u"))
        (wire (label "A<0>") (at 4 0) (pts 0 0 10 0))
        (text "title" (at 5 5) (font 10 7 2))))
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from cadinterop.common.geometry import Orientation, Point, Rect, Transform
from cadinterop.common.properties import PropertyBag, PropertyValue
from cadinterop.schematic import al
from cadinterop.schematic.model import (
    Instance,
    Library,
    Page,
    Port,
    Schematic,
    SchematicError,
    Symbol,
    SymbolPin,
    TextLabel,
    Wire,
)


class CDFormatError(SchematicError):
    """Malformed Composer-like text."""


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _emit_value(value: PropertyValue) -> str:
    if isinstance(value, bool):
        return f"bool {'#t' if value else '#f'}"
    if isinstance(value, int):
        return f"int {value}"
    if isinstance(value, float):
        return f"float {value!r}"
    return f"str {_quote(str(value))}"


def _emit_props(bag: PropertyBag, indent: str) -> List[str]:
    return [f"{indent}(prop {_quote(p.name)} {_emit_value(p.value)})" for p in bag]


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------


def dump_library(library: Library) -> str:
    lines = [f"(library {_quote(library.name)}"]
    for symbol in library.symbols():
        body = symbol.body
        lines.append(
            f"  (symbol {_quote(symbol.name)} {_quote(symbol.view)} {symbol.kind} "
            f"(body {body.x1} {body.y1} {body.x2} {body.y2})"
        )
        for pin in symbol.pins:
            lines.append(
                f"    (pin {_quote(pin.name)} {pin.direction} (at {pin.position.x} {pin.position.y}))"
            )
        lines.extend(_emit_props(symbol.properties, "    "))
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"


def dump_schematic(schematic: Schematic) -> str:
    lines = [f"(schematic {_quote(schematic.name)} {_quote(schematic.dialect)}"]
    for port in schematic.ports:
        lines.append(f"  (port {_quote(port.name)} {port.direction})")
    lines.extend(_emit_props(schematic.properties, "  "))
    for page in schematic.pages:
        frame = page.frame
        lines.append(f"  (page {page.number} (frame {frame.x1} {frame.y1} {frame.x2} {frame.y2})")
        for instance in page.instances:
            symbol = instance.symbol
            offset = instance.transform.offset
            lines.append(
                f"    (inst {_quote(instance.name)} "
                f"({_quote(symbol.library)} {_quote(symbol.name)} {_quote(symbol.view)}) "
                f"(at {offset.x} {offset.y}) (orient {instance.transform.orientation.value})"
            )
            lines.extend(_emit_props(instance.properties, "      "))
            lines.append("    )")
        for wire in page.wires:
            head = f"(label {_quote(wire.label)}) " if wire.label else ""
            if wire.label_position is not None:
                head += f"(at {wire.label_position.x} {wire.label_position.y}) "
            coords = " ".join(f"{p.x} {p.y}" for p in wire.points)
            lines.append(f"    (wire {head}(pts {coords}))")
        for label in page.labels:
            lines.append(
                f"    (text {_quote(label.text)} (at {label.position.x} {label.position.y}) "
                f"(font {label.height} {label.width_per_char} {label.baseline_offset}))"
            )
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Readers (on top of the a/L s-expression parser)
# ---------------------------------------------------------------------------


def _parse_one(text: str, expected_head: str) -> List[Any]:
    try:
        forms = al.parse(text)
    except al.ALError as exc:
        raise CDFormatError(f"unreadable {expected_head} text: {exc}") from None
    if len(forms) != 1 or not isinstance(forms[0], list) or not forms[0]:
        raise CDFormatError(f"expected a single ({expected_head} ...) form")
    head = forms[0][0]
    if not isinstance(head, al.Symbol) or head.name != expected_head:
        raise CDFormatError(f"expected ({expected_head} ...), got ({head} ...)")
    return forms[0]


def _sym(value: Any) -> str:
    if isinstance(value, al.Symbol):
        return value.name
    raise CDFormatError(f"expected symbol, got {value!r}")


def _str(value: Any) -> str:
    if isinstance(value, str):
        return value
    raise CDFormatError(f"expected string, got {value!r}")


def _int(value: Any) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise CDFormatError(f"expected integer, got {value!r}")


def _sections(form: Sequence[Any], start: int) -> List[List[Any]]:
    sections = []
    for item in form[start:]:
        if not isinstance(item, list) or not item or not isinstance(item[0], al.Symbol):
            raise CDFormatError(f"expected (keyword ...) section, got {item!r}")
        sections.append(item)
    return sections


def _read_value(type_tag: str, raw: Any) -> PropertyValue:
    if type_tag == "bool":
        if isinstance(raw, bool):
            return raw
        raise CDFormatError(f"expected boolean literal, got {raw!r}")
    if type_tag == "int":
        return _int(raw)
    if type_tag == "float":
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            return float(raw)
        raise CDFormatError(f"expected float literal, got {raw!r}")
    if type_tag == "str":
        return _str(raw)
    raise CDFormatError(f"unknown property type {type_tag!r}")


def _read_prop(section: List[Any], bag: PropertyBag) -> None:
    if len(section) != 4:
        raise CDFormatError(f"bad prop section: {section!r}")
    bag.set(_str(section[1]), _read_value(_sym(section[2]), section[3]))


def load_library(text: str) -> Library:
    form = _parse_one(text, "library")
    if len(form) < 2:
        raise CDFormatError("library form missing name")
    library = Library(_str(form[1]))
    for section in _sections(form, 2):
        if _sym(section[0]) != "symbol":
            raise CDFormatError(f"unexpected {_sym(section[0])!r} in library")
        if len(section) < 5:
            raise CDFormatError(f"bad symbol section: {section!r}")
        name, view, kind = _str(section[1]), _str(section[2]), _sym(section[3])
        body_section = section[4]
        if _sym(body_section[0]) != "body" or len(body_section) != 5:
            raise CDFormatError(f"bad body section: {body_section!r}")
        body = Rect(*(_int(v) for v in body_section[1:5]))
        pins: List[SymbolPin] = []
        properties = PropertyBag()
        for sub in _sections(section, 5):
            keyword = _sym(sub[0])
            if keyword == "pin":
                at = sub[3]
                if _sym(at[0]) != "at":
                    raise CDFormatError(f"pin missing (at ...): {sub!r}")
                pins.append(SymbolPin(_str(sub[1]), Point(_int(at[1]), _int(at[2])), _sym(sub[2])))
            elif keyword == "prop":
                _read_prop(sub, properties)
            else:
                raise CDFormatError(f"unexpected {keyword!r} in symbol")
        library.add(
            Symbol(
                library=library.name, name=name, view=view, body=body,
                pins=pins, properties=properties, kind=kind,
            )
        )
    return library


def load_schematic(text: str, libraries) -> Schematic:
    form = _parse_one(text, "schematic")
    if len(form) < 3:
        raise CDFormatError("schematic form missing name/dialect")
    schematic = Schematic(_str(form[1]), _str(form[2]))
    for section in _sections(form, 3):
        keyword = _sym(section[0])
        if keyword == "port":
            schematic.add_port(Port(_str(section[1]), _sym(section[2])))
        elif keyword == "prop":
            _read_prop(section, schematic.properties)
        elif keyword == "page":
            _read_page(section, schematic, libraries)
        else:
            raise CDFormatError(f"unexpected {keyword!r} in schematic")
    return schematic


def _read_page(section: List[Any], schematic: Schematic, libraries) -> None:
    frame_section = section[2]
    if _sym(frame_section[0]) != "frame" or len(frame_section) != 5:
        raise CDFormatError(f"bad frame section: {frame_section!r}")
    page = schematic.add_page(Rect(*(_int(v) for v in frame_section[1:5])))
    if page.number != _int(section[1]):
        raise CDFormatError(
            f"page numbers must be sequential; got {section[1]}, expected {page.number}"
        )
    instances: List[Instance] = []
    for sub in _sections(section, 3):
        keyword = _sym(sub[0])
        if keyword == "inst":
            ref = sub[2]
            if not isinstance(ref, list) or len(ref) != 3:
                raise CDFormatError(f"bad symbol reference: {ref!r}")
            symbol = libraries.resolve(_str(ref[0]), _str(ref[1]), _str(ref[2]))
            at = sub[3]
            orient = sub[4]
            if _sym(at[0]) != "at" or _sym(orient[0]) != "orient":
                raise CDFormatError(f"bad inst placement: {sub!r}")
            instance = Instance(
                name=_str(sub[1]),
                symbol=symbol,
                transform=Transform(
                    Point(_int(at[1]), _int(at[2])), Orientation(_sym(orient[1]))
                ),
            )
            for inner in _sections(sub, 5):
                if _sym(inner[0]) != "prop":
                    raise CDFormatError(f"unexpected {_sym(inner[0])!r} in inst")
                _read_prop(inner, instance.properties)
            instances.append(instance)
        elif keyword == "wire":
            label: Optional[str] = None
            anchor: Optional[Point] = None
            points: List[Point] = []
            for inner in _sections(sub, 1):
                inner_keyword = _sym(inner[0])
                if inner_keyword == "label":
                    label = _str(inner[1])
                elif inner_keyword == "at":
                    if len(inner) != 3:
                        raise CDFormatError(f"bad wire label anchor: {inner!r}")
                    anchor = Point(_int(inner[1]), _int(inner[2]))
                elif inner_keyword == "pts":
                    coords = inner[1:]
                    if len(coords) % 2:
                        raise CDFormatError(f"odd coordinate count in wire: {sub!r}")
                    points = [
                        Point(_int(coords[i]), _int(coords[i + 1]))
                        for i in range(0, len(coords), 2)
                    ]
                else:
                    raise CDFormatError(f"unexpected {inner_keyword!r} in wire")
            page.add_wire(Wire(points, label=label, label_position=anchor))
        elif keyword == "text":
            at = sub[2]
            font = sub[3]
            if _sym(at[0]) != "at" or _sym(font[0]) != "font":
                raise CDFormatError(f"bad text section: {sub!r}")
            page.add_label(
                TextLabel(
                    text=_str(sub[1]),
                    position=Point(_int(at[1]), _int(at[2])),
                    height=_int(font[1]),
                    width_per_char=_int(font[2]),
                    baseline_offset=_int(font[3]),
                )
            )
        else:
            raise CDFormatError(f"unexpected {keyword!r} in page")
    page.add_instances(instances)
