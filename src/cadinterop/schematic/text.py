"""Cosmetic text adjustment between dialect font systems.

Section 2 ("Cosmetic issues"): "Font characters in Viewlogic are typically
smaller than in Cadence, and the origin of each character is offset from
the baseline.  For example, if the character 'E' is placed on a line in
Viewlogic, it may appear as an 'F' when translated directly to Cadence
Composer.  Rules for character scaling and offsets were defined in order to
correctly align text."

The failure mechanism modelled here: the source dialect anchors label text
*on* the glyph baseline while the target anchors *below* it; copying the
anchor verbatim drops the glyph so its lowest bar coincides with an
underlying wire and disappears visually ("E" -> "F").  The fix applies the
font scale factor and the baseline-offset delta to every label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.common.geometry import Point
from cadinterop.schematic.dialects import Dialect
from cadinterop.schematic.model import Page, Schematic, TextLabel


@dataclass
class TextAdjustReport:
    """Accounting for one cosmetic adjustment pass."""

    labels_adjusted: int = 0
    collisions_avoided: int = 0


def label_obscured_by_wire(label: TextLabel, page: Page) -> bool:
    """True if the label's glyph baseline coincides with a horizontal wire.

    This is the geometric condition under which the bottom bar of an "E"
    visually merges into a wire, reading as an "F".
    """
    baseline_y = label.baseline_y
    x1 = label.position.x
    x2 = x1 + max(1, len(label.text)) * label.width_per_char
    for wire in page.wires:
        for segment in wire.segments():
            if not segment.is_horizontal:
                continue
            if segment.a.y != baseline_y:
                continue
            lo, hi = sorted((segment.a.x, segment.b.x))
            if lo <= x2 and hi >= x1:
                return True
    return False


def adjust_labels(
    schematic: Schematic,
    source: Dialect,
    target: Dialect,
    log: Optional[IssueLog] = None,
) -> TextAdjustReport:
    """Apply font scaling and baseline-offset correction to every label."""
    report = TextAdjustReport()
    scale, baseline_delta = source.font.scale_to(target.font)

    for page in schematic.pages:
        for label in page.labels:
            original_baseline = label.baseline_y
            # First model the *naive* copy: target font metrics applied but
            # the anchor left verbatim.  This is how the "E" lands on a
            # wire and reads as an "F".
            label.height = target.font.height
            label.width_per_char = target.font.width_per_char
            label.baseline_offset = target.font.baseline_offset
            naively_obscured = label_obscured_by_wire(label, page)
            # The fix: shift the anchor so the glyph baseline stays where
            # the source dialect drew it: anchor' - offset' == anchor - offset.
            label.position = Point(
                label.position.x,
                original_baseline + target.font.baseline_offset,
            )
            report.labels_adjusted += 1
            if naively_obscured and not label_obscured_by_wire(label, page):
                report.collisions_avoided += 1
                if log is not None:
                    log.add(
                        Severity.NOTE, Category.COSMETIC, label.text,
                        "label baseline no longer coincides with a wire "
                        "('E' would have read as 'F')",
                        remedy="character scaling and offset rules applied",
                    )
    if log is not None and report.labels_adjusted:
        log.add(
            Severity.INFO, Category.COSMETIC, schematic.name,
            f"adjusted {report.labels_adjusted} labels: height x{scale:.2f}, "
            f"baseline offset {baseline_delta:+d}",
        )
    return report
