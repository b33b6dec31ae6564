"""Planar geometry primitives shared by the schematic and physical packages.

The 1996 paper's schematic migration section turns almost entirely on
geometric bookkeeping: symbols drawn on a 1/10-inch grid must land on a
1/16-inch grid, replaced components carry origin offsets and rotation codes,
and off-page connectors must be dropped at wire ends or sheet edges.  This
module provides the exact, integer-friendly primitives those steps need:
points, rectangles, the eight Manhattan orientations, affine transforms
composed from them, and grid systems with rational rescaling.

All coordinates are kept in integer *database units* (DBU).  A
:class:`Grid` gives those units physical meaning (units per inch) so that
rescaling between vendor grids is exact whenever the grids are commensurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, List, NamedTuple, Sequence, Tuple


class Point(NamedTuple):
    """An integer lattice point in database units.

    A named tuple, so equality, hashing and ordering run in C and
    construction is cheaper than a dataclass's: hot loops compare and hash
    points more than anything else.  It orders and hashes as the tuple
    ``(x, y)`` (and equals it), prints as ``Point(x=.., y=..)`` and pickles
    as its two coordinates.
    """

    x: int
    y: int

    def __reduce__(self):
        """Pickle as ``Point(x, y)``: half the cost of the named-tuple default."""
        return (Point, (self.x, self.y))

    def translated(self, dx: int, dy: int) -> "Point":
        return Point(self.x + dx, self.y + dy)

    def scaled(self, factor: Fraction) -> "Point":
        """Scale about the origin by an exact rational factor.

        Raises :class:`OffGridError` if the result is not an integer point;
        exactness is the whole point of migrating between commensurate grids.
        """
        numerator, denominator = factor.numerator, factor.denominator
        x, x_rest = divmod(self.x * numerator, denominator)
        y, y_rest = divmod(self.y * numerator, denominator)
        if x_rest or y_rest:
            raise OffGridError(f"scaling {self} by {factor} leaves the integer lattice")
        return Point(x, y)

    def manhattan_to(self, other: "Point") -> int:
        return abs(self.x - other.x) + abs(self.y - other.y)

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> Tuple[int, int]:
        return (self.x, self.y)


ORIGIN = Point(0, 0)


class OffGridError(ValueError):
    """A geometric operation produced a coordinate not on the target grid."""


class Orientation(Enum):
    """The eight Manhattan orientations used by schematic and layout tools.

    ``R0``–``R270`` are counter-clockwise rotations; ``MX``/``MY`` mirror
    about the X and Y axes respectively, with rotated variants.  These are
    the "rotation codes" the paper's symbol replacement maps carry.
    """

    R0 = "R0"
    R90 = "R90"
    R180 = "R180"
    R270 = "R270"
    MX = "MX"
    MX90 = "MX90"
    MY = "MY"
    MY90 = "MY90"

    @property
    def is_mirrored(self) -> bool:
        return self in (Orientation.MX, Orientation.MX90, Orientation.MY, Orientation.MY90)

    def matrix(self) -> Tuple[int, int, int, int]:
        """Return the 2x2 integer matrix (a, b, c, d) mapping (x,y)->(ax+by, cx+dy)."""
        return _ORIENT_MATRICES[self]

    def compose(self, other: "Orientation") -> "Orientation":
        """Return the orientation equivalent to applying ``self`` then ``other``."""
        a1, b1, c1, d1 = self.matrix()
        a2, b2, c2, d2 = other.matrix()
        composed = (
            a2 * a1 + b2 * c1,
            a2 * b1 + b2 * d1,
            c2 * a1 + d2 * c1,
            c2 * b1 + d2 * d1,
        )
        return _MATRIX_TO_ORIENT[composed]

    def inverse(self) -> "Orientation":
        for cand in Orientation:
            if self.compose(cand) is Orientation.R0:
                return cand
        raise AssertionError("orientation group is closed; unreachable")

    def apply(self, point: Point) -> Point:
        a, b, c, d = self.matrix()
        return Point(a * point.x + b * point.y, c * point.x + d * point.y)


_ORIENT_MATRICES = {
    Orientation.R0: (1, 0, 0, 1),
    Orientation.R90: (0, -1, 1, 0),
    Orientation.R180: (-1, 0, 0, -1),
    Orientation.R270: (0, 1, -1, 0),
    Orientation.MX: (1, 0, 0, -1),
    Orientation.MX90: (0, -1, -1, 0),
    Orientation.MY: (-1, 0, 0, 1),
    Orientation.MY90: (0, 1, 1, 0),
}
_MATRIX_TO_ORIENT = {m: o for o, m in _ORIENT_MATRICES.items()}


@dataclass(frozen=True)
class Transform:
    """A placement transform: rotate/mirror by ``orientation`` then translate."""

    offset: Point = ORIGIN
    orientation: Orientation = Orientation.R0

    def __reduce__(self):
        """Pickle by constructor arguments, not the field dict: smaller and faster."""
        return (Transform, (self.offset, self.orientation))

    def apply(self, point: Point) -> Point:
        rotated = self.orientation.apply(point)
        return rotated.translated(self.offset.x, self.offset.y)

    def apply_rect(self, rect: "Rect") -> "Rect":
        p1 = self.apply(Point(rect.x1, rect.y1))
        p2 = self.apply(Point(rect.x2, rect.y2))
        return Rect.spanning(p1, p2)

    def compose(self, outer: "Transform") -> "Transform":
        """Return the transform equivalent to applying ``self`` then ``outer``."""
        new_offset = outer.apply(self.offset)
        return Transform(new_offset, self.orientation.compose(outer.orientation))

    def inverse(self) -> "Transform":
        inv_orient = self.orientation.inverse()
        inv_offset = inv_orient.apply(Point(-self.offset.x, -self.offset.y))
        return Transform(inv_offset, inv_orient)


IDENTITY = Transform()


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle with ``x1 <= x2`` and ``y1 <= y2``."""

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self) -> None:
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(f"degenerate rect corners: {self}")

    def __reduce__(self):
        """Pickle by constructor arguments, not the field dict: smaller and faster."""
        return (Rect, (self.x1, self.y1, self.x2, self.y2))

    @staticmethod
    def spanning(p1: Point, p2: Point) -> "Rect":
        return Rect(min(p1.x, p2.x), min(p1.y, p2.y), max(p1.x, p2.x), max(p1.y, p2.y))

    @staticmethod
    def bounding(points: Iterable[Point]) -> "Rect":
        pts = list(points)
        if not pts:
            raise ValueError("cannot bound an empty point set")
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    @property
    def width(self) -> int:
        return self.x2 - self.x1

    @property
    def height(self) -> int:
        return self.y2 - self.y1

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x1 + self.x2) // 2, (self.y1 + self.y2) // 2)

    def contains(self, point: Point) -> bool:
        return self.x1 <= point.x <= self.x2 and self.y1 <= point.y <= self.y2

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.x1 <= other.x1
            and self.y1 <= other.y1
            and self.x2 >= other.x2
            and self.y2 >= other.y2
        )

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.x1 > self.x2
            or other.x2 < self.x1
            or other.y1 > self.y2
            or other.y2 < self.y1
        )

    def intersection(self, other: "Rect") -> "Rect":
        if not self.intersects(other):
            raise ValueError(f"{self} and {other} do not intersect")
        return Rect(
            max(self.x1, other.x1),
            max(self.y1, other.y1),
            min(self.x2, other.x2),
            min(self.y2, other.y2),
        )

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def inflated(self, margin: int) -> "Rect":
        return Rect(self.x1 - margin, self.y1 - margin, self.x2 + margin, self.y2 + margin)

    def translated(self, dx: int, dy: int) -> "Rect":
        return Rect(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def scaled(self, factor: Fraction) -> "Rect":
        p1 = Point(self.x1, self.y1).scaled(factor)
        p2 = Point(self.x2, self.y2).scaled(factor)
        return Rect.spanning(p1, p2)

    def corners(self) -> List[Point]:
        return [
            Point(self.x1, self.y1),
            Point(self.x2, self.y1),
            Point(self.x2, self.y2),
            Point(self.x1, self.y2),
        ]


@dataclass(frozen=True)
class Segment:
    """A Manhattan wire segment between two lattice points."""

    a: Point
    b: Point

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("zero-length segment")
        if self.a.x != self.b.x and self.a.y != self.b.y:
            raise ValueError(f"segment {self.a}->{self.b} is not Manhattan")

    @property
    def is_horizontal(self) -> bool:
        return self.a.y == self.b.y

    @property
    def length(self) -> int:
        return self.a.manhattan_to(self.b)

    def endpoints(self) -> Tuple[Point, Point]:
        return (self.a, self.b)

    def canonical(self) -> "Segment":
        """Return the segment with endpoints sorted, so equality is direction-free."""
        lo, hi = sorted((self.a, self.b))
        return Segment(lo, hi)

    def contains_point(self, p: Point) -> bool:
        if self.is_horizontal:
            lo, hi = sorted((self.a.x, self.b.x))
            return p.y == self.a.y and lo <= p.x <= hi
        lo, hi = sorted((self.a.y, self.b.y))
        return p.x == self.a.x and lo <= p.y <= hi

    def touches(self, other: "Segment") -> bool:
        return (
            self.contains_point(other.a)
            or self.contains_point(other.b)
            or other.contains_point(self.a)
            or other.contains_point(self.b)
        )

    def transformed(self, transform: Transform) -> "Segment":
        return Segment(transform.apply(self.a), transform.apply(self.b))

    def scaled(self, factor: Fraction) -> "Segment":
        return Segment(self.a.scaled(factor), self.b.scaled(factor))


def path_segments(points: Sequence[Point]) -> List[Segment]:
    """Convert a polyline's vertices into Manhattan segments, dropping repeats."""
    segments: List[Segment] = []
    previous: Point | None = None
    for point in points:
        if previous is not None and point != previous:
            segments.append(Segment(previous, point))
        previous = point
    return segments


@dataclass(frozen=True)
class Grid:
    """A drawing grid defined by database units per inch and a pitch in units.

    The Viewdraw-like dialect uses a 1/10-inch grid and the Composer-like
    dialect a 1/16-inch grid; with ``units_per_inch = 160`` both pitches (16
    and 10 units) are exact integers, so migration math is exact.
    """

    name: str
    units_per_inch: int
    pitch_units: int

    def __post_init__(self) -> None:
        if self.units_per_inch <= 0 or self.pitch_units <= 0:
            raise ValueError("grid parameters must be positive")

    @property
    def pitch_inches(self) -> Fraction:
        return Fraction(self.pitch_units, self.units_per_inch)

    def is_on_grid(self, point: Point) -> bool:
        return point.x % self.pitch_units == 0 and point.y % self.pitch_units == 0

    def snap(self, point: Point) -> Point:
        """Snap a point to the nearest grid intersection (ties round up)."""

        def snap1(v: int) -> int:
            pitch = self.pitch_units
            down = (v // pitch) * pitch
            up = down + pitch
            return down if v - down < up - v else up

        return Point(snap1(point.x), snap1(point.y))

    def scale_factor_to(self, other: "Grid") -> Fraction:
        """Exact rational factor converting pitches of ``self`` to ``other``.

        This is the paper's scaling step: symbols on a 1/10-inch pitch are
        "scaled down in size to adjust to the Composer grid spacing", i.e. a
        point that sat on grid intersection *k* must land on intersection *k*
        of the target grid.
        """
        return Fraction(other.pitch_units, self.pitch_units)

    def index_of(self, point: Point) -> Tuple[int, int]:
        if not self.is_on_grid(point):
            raise OffGridError(f"{point} is not on grid {self.name}")
        return (point.x // self.pitch_units, point.y // self.pitch_units)

    def point_at(self, ix: int, iy: int) -> Point:
        return Point(ix * self.pitch_units, iy * self.pitch_units)
