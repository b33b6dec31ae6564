"""Tests for cadinterop.common.geometry."""

import pickle
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cadinterop.common.geometry import (
    Grid,
    OffGridError,
    Orientation,
    Point,
    Rect,
    Segment,
    Transform,
    path_segments,
)

coords = st.integers(min_value=-10_000, max_value=10_000)
points = st.builds(Point, coords, coords)
orientations = st.sampled_from(list(Orientation))


@dataclass(frozen=True, order=True)
class DataclassPoint:
    """``Point`` as a frozen, ordered dataclass, as it was before it became a
    named tuple: the reference for its printed form, order, hash and pickle."""

    x: int
    y: int


def fraction_scaled(point: Point, factor: Fraction) -> Point:
    """Reference: scale through two exact ``Fraction`` products."""
    nx = Fraction(point.x) * factor
    ny = Fraction(point.y) * factor
    if nx.denominator != 1 or ny.denominator != 1:
        raise OffGridError(f"scaling {point} by {factor} leaves the integer lattice")
    return Point(int(nx), int(ny))


def outcome(call):
    try:
        return call()
    except OffGridError as exc:
        return f"OffGridError: {exc}"


class TestPoint:
    def test_translate(self):
        assert Point(1, 2).translated(3, -5) == Point(4, -3)

    def test_scaled_exact(self):
        assert Point(16, 32).scaled(Fraction(5, 8)) == Point(10, 20)

    def test_scaled_off_lattice_raises(self):
        with pytest.raises(OffGridError):
            Point(3, 0).scaled(Fraction(5, 8))

    @given(
        point=points,
        factor=st.builds(
            Fraction, st.integers(-40, 40), st.integers(1, 40)
        ) | st.sampled_from([Fraction(5, 8), Fraction(8, 5), Fraction(1), Fraction(0)]),
    )
    def test_scaled_matches_fraction_arithmetic(self, point, factor):
        """Integer scaling gives the point, or the error, that exact
        rational arithmetic gives."""
        assert outcome(lambda: point.scaled(factor)) == outcome(
            lambda: fraction_scaled(point, factor)
        )

    def test_scaled_negative_coordinates(self):
        assert Point(-16, -8).scaled(Fraction(5, 8)) == Point(-10, -5)
        with pytest.raises(OffGridError, match=r"scaling Point\(x=-3, y=0\) by 5/8"):
            Point(-3, 0).scaled(Fraction(5, 8))

    def test_manhattan(self):
        assert Point(0, 0).manhattan_to(Point(3, 4)) == 7

    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_unpacking(self):
        x, y = Point(7, 9)
        assert (x, y) == (7, 9)


class TestPointMatchesTheDataclass:
    """``Point`` is a named tuple; everything the program relied on from
    the dataclass it replaced holds, so set and dict orders are unchanged."""

    @given(point=points)
    def test_repr_and_hash(self, point):
        old = DataclassPoint(point.x, point.y)
        assert repr(point) == repr(old).replace("DataclassPoint", "Point")
        assert str(point) == repr(point)
        assert hash(point) == hash(old) == hash((point.x, point.y))

    @given(a=points, b=points)
    def test_ordering_and_equality(self, a, b):
        old_a, old_b = DataclassPoint(*a), DataclassPoint(*b)
        assert (a < b, a <= b, a > b, a >= b, a == b, a != b) == (
            old_a < old_b, old_a <= old_b, old_a > old_b, old_a >= old_b,
            old_a == old_b, old_a != old_b,
        )

    @given(st.lists(points, max_size=30))
    def test_set_and_dict_orders(self, listed):
        old = [DataclassPoint(*p) for p in listed]
        assert [tuple(p) for p in set(listed)] == [(p.x, p.y) for p in set(old)]
        assert [tuple(p) for p in dict.fromkeys(listed)] == [
            (p.x, p.y) for p in dict.fromkeys(old)
        ]
        assert [tuple(p) for p in sorted(listed)] == [(p.x, p.y) for p in sorted(old)]

    @given(point=points)
    def test_pickle_round_trip(self, point):
        old = DataclassPoint(*point)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(point, protocol=protocol))
            assert type(copy) is Point and copy == point
            assert pickle.loads(pickle.dumps(old, protocol=protocol)) == old
        assert len(pickle.dumps(point, pickle.HIGHEST_PROTOCOL)) < len(
            pickle.dumps(old, pickle.HIGHEST_PROTOCOL)
        )

    def test_equals_its_coordinate_tuple(self):
        # New with the named tuple: the dataclass never equalled a tuple.
        assert Point(3, 4) == (3, 4)
        assert DataclassPoint(3, 4) != (3, 4)


class TestOrientation:
    def test_r90_rotates_ccw(self):
        assert Orientation.R90.apply(Point(1, 0)) == Point(0, 1)

    def test_mx_mirrors_about_x(self):
        assert Orientation.MX.apply(Point(2, 3)) == Point(2, -3)

    def test_compose_r90_r90(self):
        assert Orientation.R90.compose(Orientation.R90) is Orientation.R180

    @given(orientations, orientations, points)
    def test_compose_matches_sequential_application(self, first, second, point):
        composed = first.compose(second)
        assert composed.apply(point) == second.apply(first.apply(point))

    @given(orientations)
    def test_inverse_roundtrip(self, orientation):
        assert orientation.compose(orientation.inverse()) is Orientation.R0

    @given(orientations, points)
    def test_inverse_undoes(self, orientation, point):
        assert orientation.inverse().apply(orientation.apply(point)) == point

    def test_mirrored_flags(self):
        assert Orientation.MY.is_mirrored
        assert not Orientation.R180.is_mirrored


class TestTransform:
    def test_apply_rotation_then_offset(self):
        t = Transform(Point(10, 0), Orientation.R90)
        assert t.apply(Point(1, 0)) == Point(10, 1)

    @given(points, orientations, points, orientations, points)
    def test_compose(self, off1, o1, off2, o2, p):
        inner = Transform(off1, o1)
        outer = Transform(off2, o2)
        assert inner.compose(outer).apply(p) == outer.apply(inner.apply(p))

    @given(points, orientations, points)
    def test_inverse(self, offset, orientation, p):
        t = Transform(offset, orientation)
        assert t.inverse().apply(t.apply(p)) == p

    def test_apply_rect_normalizes_corners(self):
        t = Transform(Point(0, 0), Orientation.R180)
        assert t.apply_rect(Rect(0, 0, 2, 3)) == Rect(-2, -3, 0, 0)


class TestRect:
    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Rect(5, 0, 1, 2)

    def test_spanning_any_corner_order(self):
        assert Rect.spanning(Point(5, 1), Point(2, 7)) == Rect(2, 1, 5, 7)

    def test_bounding(self):
        r = Rect.bounding([Point(0, 5), Point(3, -1), Point(2, 2)])
        assert r == Rect(0, -1, 3, 5)

    def test_bounding_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.bounding([])

    def test_contains_boundary(self):
        assert Rect(0, 0, 4, 4).contains(Point(4, 0))

    def test_intersects_and_intersection(self):
        a, b = Rect(0, 0, 4, 4), Rect(2, 2, 8, 8)
        assert a.intersects(b)
        assert a.intersection(b) == Rect(2, 2, 4, 4)

    def test_disjoint_intersection_raises(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).intersection(Rect(5, 5, 6, 6))

    def test_union_area(self):
        assert Rect(0, 0, 1, 1).union(Rect(3, 3, 4, 4)) == Rect(0, 0, 4, 4)

    def test_inflate(self):
        assert Rect(1, 1, 2, 2).inflated(1) == Rect(0, 0, 3, 3)

    def test_scaled(self):
        assert Rect(0, 0, 16, 32).scaled(Fraction(5, 8)) == Rect(0, 0, 10, 20)


class TestSegment:
    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            Segment(Point(0, 0), Point(1, 1))

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            Segment(Point(1, 1), Point(1, 1))

    def test_contains_point_on_horizontal(self):
        seg = Segment(Point(0, 5), Point(10, 5))
        assert seg.contains_point(Point(7, 5))
        assert not seg.contains_point(Point(7, 6))

    def test_touches_crossing(self):
        h = Segment(Point(0, 5), Point(10, 5))
        v = Segment(Point(5, 5), Point(5, 9))
        assert h.touches(v)

    def test_not_touching(self):
        assert not Segment(Point(0, 0), Point(1, 0)).touches(
            Segment(Point(5, 5), Point(6, 5))
        )

    def test_canonical_direction_free(self):
        a = Segment(Point(4, 0), Point(0, 0)).canonical()
        b = Segment(Point(0, 0), Point(4, 0)).canonical()
        assert a == b

    def test_path_segments_drops_repeats(self):
        segs = path_segments([Point(0, 0), Point(0, 0), Point(4, 0), Point(4, 4)])
        assert len(segs) == 2


class TestGrid:
    vl = Grid("tenth", 160, 16)
    cd = Grid("sixteenth", 160, 10)

    def test_pitch_inches(self):
        assert self.vl.pitch_inches == Fraction(1, 10)
        assert self.cd.pitch_inches == Fraction(1, 16)

    def test_scale_factor(self):
        assert self.vl.scale_factor_to(self.cd) == Fraction(5, 8)

    def test_grid_index_roundtrip(self):
        p = self.vl.point_at(3, -2)
        assert self.vl.index_of(p) == (3, -2)

    def test_index_off_grid_raises(self):
        with pytest.raises(OffGridError):
            self.vl.index_of(Point(1, 0))

    def test_snap_rounds_to_nearest(self):
        assert self.cd.snap(Point(14, 16)) == Point(10, 20)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_on_grid_source_lands_on_target(self, ix, iy):
        """Paper's scaling invariant: grid index k -> grid index k."""
        source = self.vl.point_at(ix, iy)
        scaled = source.scaled(self.vl.scale_factor_to(self.cd))
        assert self.cd.is_on_grid(scaled)
        assert self.cd.index_of(scaled) == (ix, iy)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            Grid("bad", 0, 1)
