"""Property-based tests for rectangle algebra."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect

coord = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw, dim=2):
    los = []
    his = []
    for _ in range(dim):
        a = draw(coord)
        b = draw(coord)
        los.append(min(a, b))
        his.append(max(a, b))
    return Rect(los, his)


@given(rects(), rects())
def test_intersects_symmetric(a, b):
    assert a.intersects(b) == b.intersects(a)
    assert a.intersects_open(b) == b.intersects_open(a)


@given(rects(), rects())
def test_union_commutative_and_contains_both(a, b):
    u = a.union(b)
    assert u == b.union(a)
    assert u.contains(a) and u.contains(b)


@given(rects(), rects(), rects())
def test_union_associative(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))


@given(rects(), rects())
def test_intersection_contained_in_both(a, b):
    inter = a.intersection(b)
    if inter is None:
        assert not a.intersects(b)
    else:
        assert a.contains(inter) and b.contains(inter)
        assert a.intersects(b)


@given(rects(), rects())
def test_enlargement_nonnegative(a, b):
    assert a.enlargement(b) >= 0.0


@given(rects(), rects())
def test_enlargement_zero_iff_area_preserved(a, b):
    if a.contains(b):
        assert a.enlargement(b) == 0.0


@given(rects())
def test_self_relations(a):
    assert a.intersects(a)
    assert a.contains(a)
    assert a.union(a) == a
    assert a.intersection(a) == a
    assert a.enlargement(a) == 0.0


@given(rects(), rects())
def test_overlap_area_bounded(a, b):
    overlap = a.overlap_area(b)
    assert 0.0 <= overlap <= min(a.area(), b.area()) + 1e-9


@given(rects(), rects())
def test_contains_implies_intersects(a, b):
    if a.contains(b):
        assert a.intersects(b)


@given(rects(), rects(), rects())
def test_contains_transitive(a, b, c):
    if a.contains(b) and b.contains(c):
        assert a.contains(c)


@given(rects())
@settings(max_examples=50)
def test_area_matches_sides(a):
    product = 1.0
    for axis in range(a.dim):
        product *= a.side(axis)
    assert abs(product - a.area()) <= 1e-6 * max(1.0, abs(product))


@given(rects(), st.floats(min_value=0, max_value=10, allow_nan=False))
def test_expand_contains_original(a, amount):
    assert a.expanded(amount).contains(a)


# -- trusted builds and the allocation-free enlargement -----------------------
#
# union, intersection and bounding build their results without __init__'s
# validation, and enlargement skips building the union.  Each must equal
# the validated construction it replaces.

dims = st.integers(min_value=1, max_value=4)


def same_as_validated(built, lo, hi):
    validated = Rect(lo, hi)
    assert built == validated
    assert hash(built) == hash(validated)
    assert built.lo == validated.lo and built.hi == validated.hi
    assert all(type(v) is float for v in built.lo + built.hi)


@given(dims.flatmap(lambda d: st.tuples(rects(d), rects(d))))
def test_union_equals_validated_build(pair):
    a, b = pair
    same_as_validated(
        a.union(b),
        [min(x, y) for x, y in zip(a.lo, b.lo)],
        [max(x, y) for x, y in zip(a.hi, b.hi)],
    )


@given(dims.flatmap(lambda d: st.tuples(rects(d), rects(d))))
def test_intersection_equals_validated_build(pair):
    a, b = pair
    lo = [max(x, y) for x, y in zip(a.lo, b.lo)]
    hi = [min(x, y) for x, y in zip(a.hi, b.hi)]
    if any(l > h for l, h in zip(lo, hi)):
        assert a.intersection(b) is None
    else:
        same_as_validated(a.intersection(b), lo, hi)


@given(st.lists(rects(), min_size=1, max_size=8))
def test_bounding_equals_validated_build(boxes):
    same_as_validated(
        Rect.bounding(boxes),
        [min(r.lo[i] for r in boxes) for i in range(2)],
        [max(r.hi[i] for r in boxes) for i in range(2)],
    )


@given(dims.flatmap(rects))
def test_trusted_equals_validated_build(a):
    same_as_validated(Rect._trusted(a.lo, a.hi), list(a.lo), list(a.hi))


@given(dims.flatmap(lambda d: st.tuples(rects(d), rects(d))))
@settings(max_examples=300)
def test_enlargement_bit_equal_to_union_area(pair):
    a, b = pair
    union = Rect(
        [min(x, y) for x, y in zip(a.lo, b.lo)], [max(x, y) for x, y in zip(a.hi, b.hi)]
    )
    bits = struct.Struct("<d").pack
    assert bits(a.enlargement(b)) == bits(union.area() - a.area())
