"""Viewdraw-like text format: line-oriented schematic serialization.

The source system of the paper's case study stored designs as terse
line-oriented text.  This module defines a faithful synthetic equivalent —
one record per line, positional fields, ``#`` comments — with full
round-trip support for libraries and schematics.  Having *two* concrete
on-disk formats (this and :mod:`cadinterop.schematic.io_cd`) is what makes
the interoperability problem real: the migration pipeline is the only
bridge between them.

Format summary::

    VLLIB <name>
    SYM <name> <view> <kind> <x1> <y1> <x2> <y2>
    PIN <name> <direction> <x> <y>
    SPROP <name> <type> <value>
    ENDSYM
    ENDLIB

    VLSCHEM <version> <name> <dialect>
    PORT <name> <direction>
    CPROP <name> <type> <value>
    PAGE <number> <x1> <y1> <x2> <y2>
    I <instname> <library> <symbol> <view> <x> <y> <orient>
    IPROP <name> <type> <value>
    W <label or -> <n> <x1> <y1> ... <xn> <yn> [<label x> <label y>]
    T <x> <y> <height> <charwidth> <baseline> <text...>
    ENDPAGE
    END

Strings containing whitespace are percent-encoded (`%20`), keeping the
format strictly whitespace-separated.  A ``W`` record ends with the wire
label's anchor when the wire has one.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Optional, Tuple
from urllib.parse import quote, unquote

from cadinterop.common.geometry import Orientation, Point, Rect, Transform
from cadinterop.common.properties import PropertyBag, PropertyValue
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


class VLFormatError(SchematicError):
    """Malformed Viewdraw-like text."""


def _encode(text: str) -> str:
    return quote(text, safe="")


def _decode(text: str) -> str:
    return unquote(text)


def _encode_value(value: PropertyValue) -> Tuple[str, str]:
    if isinstance(value, bool):
        return ("bool", "1" if value else "0")
    if isinstance(value, int):
        return ("int", str(value))
    if isinstance(value, float):
        return ("float", repr(value))
    return ("str", _encode(str(value)))


def _decode_value(type_tag: str, text: str) -> PropertyValue:
    if type_tag == "bool":
        return text == "1"
    if type_tag == "int":
        return int(text)
    if type_tag == "float":
        return float(text)
    if type_tag == "str":
        return _decode(text)
    raise VLFormatError(f"unknown property type tag {type_tag!r}")


def _field(fields: List[str], index: int, convert: Callable[[str], Any] = str) -> Any:
    """The one way the readers take a field: a missing field, or one that
    ``convert`` rejects, raises :class:`VLFormatError` naming the record."""
    try:
        return convert(fields[index])
    except IndexError:
        raise VLFormatError(f"record {' '.join(fields)!r} has no field {index}") from None
    except ValueError as exc:
        raise VLFormatError(f"record {' '.join(fields)!r}, field {index}: {exc}") from None


def _read_prop(fields: List[str], bag: PropertyBag) -> None:
    """Store a ``<keyword> <name> <type> <value>`` record in ``bag``."""
    decode = partial(_decode_value, _field(fields, 2))
    bag.set(_field(fields, 1, _decode), _field(fields, 3, decode))


def _write_props(lines: List[str], keyword: str, bag: PropertyBag) -> None:
    for prop in bag:
        type_tag, encoded = _encode_value(prop.value)
        lines.append(f"{keyword} {_encode(prop.name)} {type_tag} {encoded}")


# ---------------------------------------------------------------------------
# Libraries
# ---------------------------------------------------------------------------


def dump_library(library: Library) -> str:
    lines = [f"VLLIB {_encode(library.name)}"]
    for symbol in library.symbols():
        body = symbol.body
        lines.append(
            f"SYM {_encode(symbol.name)} {_encode(symbol.view)} {symbol.kind} "
            f"{body.x1} {body.y1} {body.x2} {body.y2}"
        )
        for pin in symbol.pins:
            lines.append(f"PIN {_encode(pin.name)} {pin.direction} {pin.position.x} {pin.position.y}")
        _write_props(lines, "SPROP", symbol.properties)
        lines.append("ENDSYM")
    lines.append("ENDLIB")
    return "\n".join(lines) + "\n"


def load_library(text: str) -> Library:
    lines = _meaningful_lines(text)
    if not lines or not lines[0].startswith("VLLIB "):
        raise VLFormatError("missing VLLIB header")
    library = Library(_field(lines[0].split(), 1, _decode))
    index = 1
    while index < len(lines):
        line = lines[index]
        if line == "ENDLIB":
            return library
        fields = line.split()
        if fields[0] != "SYM":
            raise VLFormatError(f"expected SYM record, got {line!r}")
        if len(fields) != 8:
            raise VLFormatError(f"bad SYM record: {line!r}")
        name, view, kind = _decode(fields[1]), _decode(fields[2]), fields[3]
        body = Rect(*(_field(fields, i, int) for i in range(4, 8)))
        pins: List[SymbolPin] = []
        properties = PropertyBag()
        index += 1
        while index < len(lines) and lines[index] != "ENDSYM":
            fields = lines[index].split()
            if fields[0] == "PIN":
                position = Point(_field(fields, 3, int), _field(fields, 4, int))
                pins.append(SymbolPin(_field(fields, 1, _decode), position, _field(fields, 2)))
            elif fields[0] == "SPROP":
                _read_prop(fields, properties)
            else:
                raise VLFormatError(f"unexpected record in SYM: {lines[index]!r}")
            index += 1
        if index >= len(lines):
            raise VLFormatError("unterminated SYM record")
        library.add(
            Symbol(
                library=library.name, name=name, view=view, body=body,
                pins=pins, properties=properties, kind=kind,
            )
        )
        index += 1
    raise VLFormatError("missing ENDLIB")


# ---------------------------------------------------------------------------
# Schematics
# ---------------------------------------------------------------------------


def dump_schematic(schematic: Schematic) -> str:
    lines = [f"VLSCHEM 1 {_encode(schematic.name)} {_encode(schematic.dialect)}"]
    for port in schematic.ports:
        lines.append(f"PORT {_encode(port.name)} {port.direction}")
    _write_props(lines, "CPROP", schematic.properties)
    for page in schematic.pages:
        frame = page.frame
        lines.append(f"PAGE {page.number} {frame.x1} {frame.y1} {frame.x2} {frame.y2}")
        for instance in page.instances:
            symbol = instance.symbol
            offset = instance.transform.offset
            lines.append(
                f"I {_encode(instance.name)} {_encode(symbol.library)} "
                f"{_encode(symbol.name)} {_encode(symbol.view)} "
                f"{offset.x} {offset.y} {instance.transform.orientation.value}"
            )
            _write_props(lines, "IPROP", instance.properties)
        for wire in page.wires:
            label = _encode(wire.label) if wire.label else "-"
            coords = " ".join(f"{p.x} {p.y}" for p in wire.points)
            if wire.label_position is not None:
                coords += f" {wire.label_position.x} {wire.label_position.y}"
            lines.append(f"W {label} {len(wire.points)} {coords}")
        for label in page.labels:
            lines.append(
                f"T {label.position.x} {label.position.y} {label.height} "
                f"{label.width_per_char} {label.baseline_offset} {_encode(label.text)}"
            )
        lines.append("ENDPAGE")
    lines.append("END")
    return "\n".join(lines) + "\n"


def load_schematic(text: str, libraries) -> Schematic:
    """Parse a schematic, resolving instances against ``libraries``.

    ``libraries`` is a :class:`~cadinterop.schematic.model.LibrarySet`; an
    instance referring to an unknown master is a hard error, matching the
    behaviour of real tools that refuse to open a design without its
    libraries installed.
    """
    lines = _meaningful_lines(text)
    if not lines or not lines[0].startswith("VLSCHEM "):
        raise VLFormatError("missing VLSCHEM header")
    header = lines[0].split()
    if len(header) != 4:
        raise VLFormatError(f"bad VLSCHEM header: {lines[0]!r}")
    schematic = Schematic(_decode(header[2]), _decode(header[3]))

    page: Optional[Page] = None
    last_instance: Optional[Instance] = None
    # Each page's instances, added in one call at END (one name check each).
    placed: List[Tuple[Page, List[Instance]]] = []
    index = 1
    while index < len(lines):
        fields = lines[index].split()
        field = partial(_field, fields)
        keyword = fields[0]
        if keyword == "END":
            for target, instances in placed:
                target.add_instances(instances)
            return schematic
        if keyword == "PORT":
            schematic.add_port(Port(field(1, _decode), field(2)))
        elif keyword == "CPROP":
            _read_prop(fields, schematic.properties)
        elif keyword == "PAGE":
            frame = Rect(*(field(i, int) for i in range(2, 6)))
            page = schematic.add_page(frame)
            if page.number != field(1, int):
                raise VLFormatError(
                    f"page numbers must be sequential; got {field(1)}, expected {page.number}"
                )
            placed.append((page, []))
        elif keyword == "ENDPAGE":
            page = None
            last_instance = None
        elif keyword == "I":
            if page is None:
                raise VLFormatError("instance record outside PAGE")
            symbol = libraries.resolve(field(2, _decode), field(3, _decode), field(4, _decode))
            last_instance = Instance(
                name=field(1, _decode),
                symbol=symbol,
                transform=Transform(Point(field(5, int), field(6, int)), field(7, Orientation)),
            )
            placed[-1][1].append(last_instance)
        elif keyword == "IPROP":
            if last_instance is None:
                raise VLFormatError("IPROP record without preceding instance")
            _read_prop(fields, last_instance.properties)
        elif keyword == "W":
            if page is None:
                raise VLFormatError("wire record outside PAGE")
            label = None if field(1) == "-" else field(1, _decode)
            count = field(2, int)
            ends = len(fields)
            if ends - 3 not in (2 * count, 2 * count + 2):
                raise VLFormatError(f"wire coordinate count mismatch: {lines[index]!r}")
            points = [Point(field(i, int), field(i + 1, int)) for i in range(3, ends, 2)]
            anchor = points.pop() if len(points) > count else None
            page.add_wire(Wire(points, label=label, label_position=anchor))
        elif keyword == "T":
            if page is None:
                raise VLFormatError("text record outside PAGE")
            page.add_label(
                TextLabel(
                    text=_decode(" ".join(fields[6:])),
                    position=Point(field(1, int), field(2, int)),
                    height=field(3, int),
                    width_per_char=field(4, int),
                    baseline_offset=field(5, int),
                )
            )
        else:
            raise VLFormatError(f"unknown record {keyword!r}")
        index += 1
    raise VLFormatError("missing END record")


def _meaningful_lines(text: str) -> List[str]:
    lines = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append(stripped)
    return lines
