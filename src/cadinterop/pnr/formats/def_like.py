"""DEF-like placed-design exchange format (reader/writer)."""

from __future__ import annotations

from typing import List

from cadinterop.common.geometry import Orientation, Point, Rect
from cadinterop.pnr.cells import CellLibrary
from cadinterop.pnr.design import PnRDesign, PnRInstance, Terminal


class DefFormatError(ValueError):
    """Malformed DEF-like text."""


def dump_design(design: PnRDesign, die: Rect) -> str:
    lines = [f"DESIGN {design.name}", f"DIE {die.x1} {die.y1} {die.x2} {die.y2}"]
    for instance in design.instances.values():
        if instance.placed:
            lines.append(
                f"INST {instance.name} {instance.cell.name} PLACED "
                f"{instance.location.x} {instance.location.y} {instance.orientation.value}"
            )
        else:
            lines.append(f"INST {instance.name} {instance.cell.name} UNPLACED")
    for net, terminals in design.nets.items():
        parts = [f"NET {net}"]
        for kind, name, pin in terminals:
            if kind == "inst":
                parts.append(f"( {name} {pin} )")
            else:
                parts.append(f"( PAD {name} )")
        lines.append(" ".join(parts))
    lines.append("END DESIGN")
    return "\n".join(lines) + "\n"


def load_design(text: str, library: CellLibrary) -> tuple:
    """Parse a DEF-like file; returns (design, die_rect)."""
    lines = [l.strip() for l in text.splitlines() if l.strip() and not l.startswith("#")]
    if not lines or not lines[0].startswith("DESIGN "):
        raise DefFormatError("missing DESIGN header")
    design = PnRDesign(lines[0].split()[1])
    die = None
    ended = False
    for line in lines[1:]:
        fields = line.split()
        keyword = fields[0]
        if keyword == "DIE":
            die = Rect(int(fields[1]), int(fields[2]), int(fields[3]), int(fields[4]))
        elif keyword == "INST":
            name, cell_name, state = fields[1], fields[2], fields[3]
            cell = library.cell(cell_name)
            if state == "PLACED":
                instance = PnRInstance(
                    name, cell,
                    location=Point(int(fields[4]), int(fields[5])),
                    orientation=Orientation(fields[6]),
                )
            elif state == "UNPLACED":
                instance = PnRInstance(name, cell)
            else:
                raise DefFormatError(f"bad placement state {state!r}")
            design.add_instance(instance)
        elif keyword == "NET":
            net_name = fields[1]
            terminals: List[Terminal] = []
            rest = fields[2:]
            index = 0
            while index < len(rest):
                if rest[index] != "(":
                    raise DefFormatError(f"bad net terminal syntax in {line!r}")
                if rest[index + 1] == "PAD":
                    terminals.append(("pad", rest[index + 2], ""))
                    index += 4
                else:
                    terminals.append(("inst", rest[index + 1], rest[index + 2]))
                    index += 4
            design.add_net(net_name, terminals)
        elif line == "END DESIGN":
            ended = True
            break
        else:
            raise DefFormatError(f"unexpected record {line!r}")
    if die is None:
        raise DefFormatError("missing DIE record")
    if not ended:
        raise DefFormatError("missing END DESIGN")
    return design, die
