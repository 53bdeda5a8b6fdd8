"""Unit tests for n-dimensional rectangles."""

import math

import pytest

from repro.geometry import Rect


class TestConstruction:
    def test_basic(self):
        r = Rect((0, 1), (2, 3))
        assert r.lo == (0.0, 1.0)
        assert r.hi == (2.0, 3.0)
        assert r.dim == 2

    def test_from_point_is_degenerate(self):
        p = Rect.from_point((0.5, 0.5, 0.5))
        assert p.is_degenerate()
        assert p.area() == 0.0
        assert p.dim == 3

    def test_from_extents(self):
        r = Rect.from_extents((0, 1), (2, 3))
        assert r == Rect((0, 2), (1, 3))

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            Rect((1, 0), (0, 1))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Rect((0, 0), (1, 1, 1))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Rect((math.nan, 0), (1, 1))

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            Rect((), ())

    def test_bounding(self):
        b = Rect.bounding([Rect((0, 0), (1, 1)), Rect((2, -1), (3, 0.5))])
        assert b == Rect((0, -1), (3, 1))

    def test_bounding_empty_rejected(self):
        with pytest.raises(ValueError):
            Rect.bounding([])

    def test_immutability_and_hash(self):
        a = Rect((0, 0), (1, 1))
        b = Rect((0, 0), (1, 1))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestPredicates:
    def test_closed_overlap_includes_boundary_contact(self):
        a = Rect((0, 0), (1, 1))
        b = Rect((1, 0), (2, 1))
        assert a.intersects(b)
        assert not a.intersects_open(b)

    def test_disjoint(self):
        a = Rect((0, 0), (1, 1))
        b = Rect((1.1, 0), (2, 1))
        assert not a.intersects(b)
        assert a.intersection(b) is None

    def test_contains(self):
        outer = Rect((0, 0), (10, 10))
        inner = Rect((2, 2), (3, 3))
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert outer.contains(outer)

    def test_contains_point(self):
        r = Rect((0, 0), (1, 1))
        assert r.contains_point((0.5, 0.5))
        assert r.contains_point((1.0, 1.0))  # closed box
        assert not r.contains_point((1.0001, 0.5))

    def test_point_in_own_degenerate_box(self):
        p = Rect.from_point((0.3, 0.7))
        assert p.intersects(p)
        assert p.contains(p)


class TestOperations:
    def test_intersection(self):
        a = Rect((0, 0), (4, 4))
        b = Rect((2, 2), (6, 6))
        assert a.intersection(b) == Rect((2, 2), (4, 4))

    def test_union(self):
        a = Rect((0, 0), (1, 1))
        b = Rect((3, 3), (4, 4))
        assert a.union(b) == Rect((0, 0), (4, 4))

    def test_area_and_margin(self):
        r = Rect((0, 0, 0), (2, 3, 4))
        assert r.area() == 24.0
        assert r.margin() == 9.0

    def test_enlargement_zero_when_contained(self):
        outer = Rect((0, 0), (10, 10))
        inner = Rect((1, 1), (2, 2))
        assert outer.enlargement(inner) == 0.0

    def test_enlargement_positive_when_escaping(self):
        a = Rect((0, 0), (1, 1))
        b = Rect((2, 0), (3, 1))
        assert a.enlargement(b) == pytest.approx(3.0 - 1.0)

    def test_overlap_area(self):
        a = Rect((0, 0), (2, 2))
        b = Rect((1, 1), (3, 3))
        assert a.overlap_area(b) == pytest.approx(1.0)
        assert a.overlap_area(Rect((5, 5), (6, 6))) == 0.0

    def test_expanded(self):
        r = Rect((1, 1), (2, 2)).expanded(0.5)
        assert r == Rect((0.5, 0.5), (2.5, 2.5))

    def test_translated(self):
        r = Rect((0, 0), (1, 1)).translated((5, -1))
        assert r == Rect((5, -1), (6, 0))

    def test_center_and_side(self):
        r = Rect((0, 2), (4, 6))
        assert r.center == (2.0, 4.0)
        assert r.side(0) == 4.0
        assert r.side(1) == 4.0

    def test_iter_extents(self):
        r = Rect((0, 2), (1, 3))
        assert list(r) == [(0.0, 1.0), (2.0, 3.0)]


class TestDimensionMismatch:
    @pytest.mark.parametrize(
        "method",
        ["intersects", "intersects_open", "contains", "intersection", "union", "enlargement"],
    )
    def test_mismatched_dimensions_raise(self, method):
        flat = Rect((0.0, 0.0), (1.0, 1.0))
        cube = Rect((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="dimension mismatch: 2 != 3"):
            getattr(flat, method)(cube)
        with pytest.raises(ValueError, match="dimension mismatch: 3 != 2"):
            getattr(cube, method)(flat)
