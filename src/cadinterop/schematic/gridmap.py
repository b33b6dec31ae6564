"""Grid rescaling between schematic dialects.

Section 2 ("Scaling"): "The schematic symbols used on the Viewlogic
schematics were drawn on a 1/10 inch grid with a 2/10 inch pin spacing.
The target Composer symbol libraries were drawn on a 1/16 inch grid with a
2/16 inch pin spacing.  The symbols and schematics were scaled down in size
to adjust to the Composer grid spacing."

Scaling maps grid index *k* of the source grid to grid index *k* of the
target grid — i.e. every coordinate is multiplied by the exact rational
``target_pitch / source_pitch``.  With the shared 1/160-inch database unit
this is 10/16 = 5/8, so any point on the source grid lands exactly on the
target grid; an *off-grid* source point (hand-nudged in the source tool)
does not, and is snapped with a logged warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.common.geometry import OffGridError, Point, Rect, Transform
from cadinterop.obs import get_lineage
from cadinterop.schematic.dialects import Dialect
from cadinterop.schematic.model import Schematic, Symbol, SymbolPin


@dataclass
class ScalingReport:
    """Accounting for one rescale pass."""

    factor: Fraction
    points_scaled: int = 0
    points_snapped: int = 0


def scale_point(
    point: Point,
    factor: Fraction,
    target: Dialect,
    log: Optional[IssueLog],
    report: ScalingReport,
    subject: str,
) -> Point:
    """Scale one point, snapping (and logging) if it leaves the lattice."""
    report.points_scaled += 1
    try:
        scaled = point.scaled(factor)
    except OffGridError:
        raw_x = float(point.x) * float(factor)
        raw_y = float(point.y) * float(factor)
        scaled = target.grid.snap(Point(round(raw_x), round(raw_y)))
        report.points_snapped += 1
        if log is not None:
            log.add(
                Severity.WARNING, Category.SCALING, subject,
                f"off-grid point {point.as_tuple()} snapped to {scaled.as_tuple()}",
                remedy="clean up off-grid drawing in the source tool",
            )
        get_lineage().record(
            "point", subject, "scaling", "approximated",
            detail=f"off-grid {point.as_tuple()} snapped to {scaled.as_tuple()}",
        )
        return scaled
    if not target.grid.is_on_grid(scaled):
        snapped = target.grid.snap(scaled)
        if snapped != scaled:
            report.points_snapped += 1
            if log is not None:
                log.add(
                    Severity.WARNING, Category.SCALING, subject,
                    f"scaled point {scaled.as_tuple()} off target grid; snapped to {snapped.as_tuple()}",
                )
            get_lineage().record(
                "point", subject, "scaling", "approximated",
                detail=f"scaled {scaled.as_tuple()} snapped to {snapped.as_tuple()}",
            )
            return snapped
    return scaled


def scale_symbol(symbol: Symbol, factor: Fraction) -> Symbol:
    """Produce a scaled copy of a symbol master (for unmapped components)."""
    return Symbol(
        library=symbol.library,
        name=symbol.name,
        view=symbol.view,
        body=symbol.body.scaled(factor),
        pins=[SymbolPin(p.name, p.position.scaled(factor), p.direction) for p in symbol.pins],
        properties=symbol.properties.copy(),
        kind=symbol.kind,
    )


def rescale_schematic(
    schematic: Schematic,
    source: Dialect,
    target: Dialect,
    log: Optional[IssueLog] = None,
) -> ScalingReport:
    """Rescale all geometry of ``schematic`` from ``source`` to ``target`` grid.

    Instance origins, wire vertices, label anchors, and page frames are
    scaled in place.  Symbol masters are *not* touched here — mapped symbols
    are replaced by native target masters, and unmapped ones are scaled
    separately via :func:`scale_symbol` by the migration driver.
    """
    factor = source.grid.scale_factor_to(target.grid)
    report = ScalingReport(factor=factor)

    for page in schematic.pages:
        page.frame = Rect(
            *scale_point(Point(page.frame.x1, page.frame.y1), factor, target, log, report, f"page{page.number}.frame"),
            *scale_point(Point(page.frame.x2, page.frame.y2), factor, target, log, report, f"page{page.number}.frame"),
        )
        for instance in page.instances:
            origin = scale_point(
                instance.transform.offset, factor, target, log, report, instance.name
            )
            instance.transform = Transform(origin, instance.transform.orientation)
        for wire in page.wires:
            wire.points = [
                scale_point(point, factor, target, log, report, wire.label or "wire")
                for point in wire.points
            ]
            if wire.label_position is not None:
                wire.label_position = scale_point(
                    wire.label_position, factor, target, log, report, wire.label or "label"
                )
        for label in page.labels:
            label.position = scale_point(
                label.position, factor, target, log, report, label.text
            )
    return report
