"""Schematic dialect descriptors.

A *dialect* bundles every vendor-specific convention Section 2 of the paper
had to bridge: drawing grid and pin pitch, bus-reference grammar, whether
hierarchy and off-page connectors are required or implicit, font metrics
(the "E becomes F" cosmetic bug), and the names of the special connector
symbols in the native libraries.

Two concrete dialects are provided, modelled on the paper's source and
target systems:

* :data:`VIEWDRAW_LIKE` — 1/10-inch grid, 2/10-inch pin pitch, condensed bus
  syntax with postfix indicators, implicit cross-page connection by name,
  small baseline-offset fonts.
* :data:`COMPOSER_LIKE` — 1/16-inch grid, 2/16-inch pin pitch, explicit bus
  syntax, mandatory hierarchy and off-page connectors, larger fonts.

Both grids are expressed in a shared database unit of 1/160 inch so the
paper's scale-down is an exact rational operation (pitch 16 -> pitch 10,
factor 5/8 per grid index... in fact positions scale by the pitch ratio).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from cadinterop.common.geometry import Grid
from cadinterop.schematic.busnotation import (
    BusSyntax,
    COMPOSER_BUS_SYNTAX,
    VIEWDRAW_BUS_SYNTAX,
)

#: Shared database resolution: 160 units per inch makes both a 1/10-inch
#: pitch (16 units) and a 1/16-inch pitch (10 units) exact integers.
UNITS_PER_INCH = 160


@dataclass(frozen=True)
class FontMetrics:
    """Text rendering metrics; mismatches cause the paper's cosmetic bugs.

    ``baseline_offset`` is the vertical distance from the label anchor to
    the glyph baseline.  Viewdraw-like anchors sit *on* the baseline while
    Composer-like anchors sit below it, so untranslated labels shift — the
    paper's example of an "E" appearing as an "F" when the lowest bar is
    swallowed by an underlying wire.
    """

    height: int
    width_per_char: int
    baseline_offset: int

    def scale_to(self, other: "FontMetrics") -> Tuple[float, int]:
        """Return (height scale factor, baseline delta) for translation."""
        return (other.height / self.height, other.baseline_offset - self.baseline_offset)


@dataclass(frozen=True)
class ConnectorSymbols:
    """Native-library names of the special symbols a dialect uses."""

    library: str
    hier_in: str = "hierIn"
    hier_out: str = "hierOut"
    hier_inout: str = "hierInOut"
    offpage: str = "offPage"
    power: str = "vdd"
    ground: str = "gnd"


@dataclass(frozen=True)
class Dialect:
    """All conventions of one schematic system."""

    name: str
    grid: Grid
    pin_pitch_units: int
    bus_syntax: BusSyntax
    requires_hier_connectors: bool
    requires_offpage_connectors: bool
    implicit_cross_page_by_name: bool
    font: FontMetrics
    connectors: ConnectorSymbols
    #: Characters legal in object names beyond alphanumerics/underscore.
    extra_name_chars: str = ""


VIEWDRAW_LIKE = Dialect(
    name="viewdraw-like",
    grid=Grid(name="tenth-inch", units_per_inch=UNITS_PER_INCH, pitch_units=16),
    pin_pitch_units=32,  # 2/10 inch
    bus_syntax=VIEWDRAW_BUS_SYNTAX,
    requires_hier_connectors=False,
    requires_offpage_connectors=False,
    implicit_cross_page_by_name=True,
    font=FontMetrics(height=8, width_per_char=6, baseline_offset=0),
    connectors=ConnectorSymbols(library="vl_builtin"),
    extra_name_chars="$",
)

COMPOSER_LIKE = Dialect(
    name="composer-like",
    grid=Grid(name="sixteenth-inch", units_per_inch=UNITS_PER_INCH, pitch_units=10),
    pin_pitch_units=20,  # 2/16 inch
    bus_syntax=COMPOSER_BUS_SYNTAX,
    requires_hier_connectors=True,
    requires_offpage_connectors=True,
    implicit_cross_page_by_name=False,
    font=FontMetrics(height=10, width_per_char=7, baseline_offset=2),
    connectors=ConnectorSymbols(library="cd_basic"),
)

_REGISTRY: Dict[str, Dialect] = {
    VIEWDRAW_LIKE.name: VIEWDRAW_LIKE,
    COMPOSER_LIKE.name: COMPOSER_LIKE,
}


def register_dialect(dialect: Dialect) -> Dialect:
    """Register a custom dialect; refuses to overwrite an existing name."""
    if dialect.name in _REGISTRY:
        raise ValueError(f"dialect {dialect.name!r} already registered")
    _REGISTRY[dialect.name] = dialect
    return dialect


def get_dialect(name: str) -> Dialect:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown schematic dialect {name!r}") from None


def known_dialects() -> Tuple[str, ...]:
    return tuple(_REGISTRY)
