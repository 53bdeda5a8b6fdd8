"""The per-node and per-region overlap kernels against their one-call-per-
item references, and the interned granule lock names they feed."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.granules import GranuleSet
from repro.geometry import Rect, Region
from repro.lock.resource import Namespace, ResourceId
from repro.rtree.entry import ChildEntry
from repro.rtree.node import Node
from repro.rtree.tree import RTree, RTreeConfig

# Few distinct coordinates, so shared boundaries and degenerate extents
# (lo == hi) come up often; the odd non-grid value keeps strict
# inequalities honest.
coord = st.one_of(
    st.integers(min_value=0, max_value=6).map(float),
    st.floats(min_value=-1.0, max_value=7.0, allow_nan=False),
)


@st.composite
def boxes(draw, dim):
    lo, hi = [], []
    for _ in range(dim):
        a, b = draw(coord), draw(coord)
        lo.append(min(a, b))
        hi.append(max(a, b))
    return Rect(lo, hi)


def outcome(fn):
    """The value ``fn`` returns, or the ``ValueError`` message it raises."""
    try:
        return ("ok", fn())
    except ValueError as exc:
        return ("error", str(exc))


def node_of(rects):
    node = Node(page_id=1, level=1)
    node.entries = [ChildEntry(r, child_id=10 + i) for i, r in enumerate(rects)]
    return node


@st.composite
def node_and_query(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    rects = draw(st.lists(boxes(dim), max_size=12))
    return node_of(rects), draw(boxes(dim))


@given(node_and_query())
def test_node_overlapping_matches_per_entry_intersects(case):
    node, query = case
    got = node.overlapping(query)
    assert got == [e for e in node.entries if e.rect.intersects(query)]


@given(st.data())
def test_node_overlapping_on_shared_boundaries(data):
    # Entries that touch the query on an edge or a corner overlap it
    # (closed boxes); entries a hair away do not.
    dim = data.draw(st.integers(min_value=1, max_value=4))
    query = data.draw(boxes(dim))
    axis = data.draw(st.integers(min_value=0, max_value=dim - 1))
    lo, hi = list(query.lo), list(query.hi)
    touching = Rect(
        [hi[axis] if i == axis else lo[i] for i in range(dim)],
        [hi[axis] + 1.0 if i == axis else hi[i] for i in range(dim)],
    )
    apart = Rect(
        [hi[axis] + 0.5 if i == axis else lo[i] for i in range(dim)],
        [hi[axis] + 1.0 if i == axis else hi[i] for i in range(dim)],
    )
    node = node_of([touching, apart, query])
    assert node.overlapping(query) == [node.entries[0], node.entries[2]]


@given(st.data())
def test_node_overlapping_dimension_mismatch_raises_like_intersects(data):
    query_dim = data.draw(st.integers(min_value=1, max_value=4))
    dims = data.draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=8))
    rects = [data.draw(boxes(d)) for d in dims]
    node, query = node_of(rects), data.draw(boxes(query_dim))
    expected = outcome(lambda: [e for e in node.entries if e.rect.intersects(query)])
    assert outcome(lambda: node.overlapping(query)) == expected
    if any(d != query_dim for d in dims):
        assert expected[0] == "error"


@st.composite
def region_and_query(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    parts = draw(st.lists(boxes(dim), max_size=8))
    query_dim = draw(st.sampled_from([dim, dim, dim, 1 + dim % 4]))
    return Region(parts), draw(boxes(query_dim))


@given(region_and_query())
def test_region_intersects_open_matches_any_part(case):
    region, query = case
    expected = outcome(lambda: any(p.intersects_open(query) for p in region.parts))
    got = outcome(lambda: region.intersects_open(query))
    if region.is_empty():
        # No part to compare dimensions with: nothing overlaps.
        assert got == ("ok", False)
    else:
        assert got == expected


@st.composite
def region_near_query(draw):
    """A query plus parts placed against it: touching one of its faces from
    outside, flattened to a slab inside it, or (sometimes) overlapping it."""
    dim = draw(st.integers(min_value=1, max_value=4))
    query = draw(boxes(dim))
    lo, hi = list(query.lo), list(query.hi)
    parts = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        axis = draw(st.integers(min_value=0, max_value=dim - 1))
        kind = draw(st.sampled_from(["below", "above", "flat", "flat", "inside"]))
        p_lo, p_hi = list(lo), list(hi)
        if kind == "below":
            p_lo[axis], p_hi[axis] = lo[axis] - 1.0, lo[axis]
        elif kind == "above":
            p_lo[axis], p_hi[axis] = hi[axis], hi[axis] + 1.0
        elif kind == "flat":
            at = draw(st.sampled_from([lo[axis], hi[axis], (lo[axis] + hi[axis]) / 2]))
            p_lo[axis] = p_hi[axis] = at
        parts.append(Rect(p_lo, p_hi))
    return Region(parts), query


@given(region_near_query())
def test_region_intersects_open_on_touching_and_flat_parts(case):
    region, query = case
    assert region.intersects_open(query) == any(p.intersects_open(query) for p in region.parts)


def test_region_intersects_open_part_of_other_dimension_raises():
    # The bounding box of these parts is 2-D and meets the query, so only
    # the per-part test can notice the 3-D part.
    region = Region([Rect((0, 0), (1, 1)), Rect((2, 0, 0), (3, 1, 1))])
    query = Rect((2.2, 0.2), (2.8, 0.8))
    expected = outcome(lambda: any(p.intersects_open(query) for p in region.parts))
    assert expected[0] == "error"
    assert outcome(lambda: region.intersects_open(query)) == expected


def grown_tree(seed, count):
    """A small-fanout tree of ``count`` random boxes, plus the boxes."""
    import random

    rng = random.Random(seed)
    tree = RTree(RTreeConfig(max_entries=4, universe=Rect((0, 0), (10, 10))))
    live = {}
    for oid in range(count):
        x, y = rng.uniform(0, 9.5), rng.uniform(0, 9.5)
        live[oid] = Rect((x, y), (x + 0.5, y + 0.5))
        tree.insert(oid, live[oid])
    return tree, live, rng


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_granule_refs_are_interned(seed):
    tree, live, rng = grown_tree(seed, 60)
    for victim in rng.sample(sorted(live), 30):
        tree.delete(victim, live.pop(victim))
    granules = GranuleSet(tree)
    query = Rect((rng.uniform(0, 5),) * 2, (rng.uniform(5, 10),) * 2)
    first = granules.overlapping(query)
    second = granules.overlapping(query)
    assert [id(ref) for ref in first] == [id(ref) for ref in second]
    for ref in first:
        name = ResourceId.leaf if ref.is_leaf else ResourceId.ext
        assert ref.resource == name(ref.page_id)


def test_interned_refs_of_freed_pages_are_pruned():
    tree, live, rng = grown_tree(1, 800)
    granules = GranuleSet(tree)
    everything = tree.config.universe
    assert len(granules.overlapping(everything)) > 256
    # Condensing frees most pages; the new inserts split fresh ones, whose
    # refs are interned next and trigger the pruning rule.
    for victim in rng.sample(sorted(live), 780):
        tree.delete(victim, live.pop(victim))
    for oid in range(1000, 1040):
        tree.insert(oid, Rect((oid % 9, 1.0), (oid % 9 + 0.5, 1.5)))
    granules.overlapping(everything)
    pages = len(tree.pager)
    assert pages < 128
    assert all(tree.pager.exists(pid) for pid in granules._leaf_refs)
    for table in (granules._leaf_refs, granules._ext_refs):
        assert len(table) <= max(256, 2 * pages)


keys = st.one_of(
    st.integers(),
    st.text(max_size=6),
    st.tuples(st.text(max_size=3), st.integers()),
)


@given(st.sampled_from(list(Namespace)), keys)
def test_resource_order_is_the_canonical_key(namespace, key):
    assert ResourceId(namespace, key).order == (namespace.value, repr(key))
