"""The lockable granules (paper §3.1).

Two granule kinds partition the embedded space ``S``:

* **leaf granules** -- one per leaf node: the lowest-level bounding
  rectangle, locked by the leaf's page id;
* **external granules** -- one per non-leaf node ``T``: ``T_s`` minus the
  union of ``T``'s children's rectangles, locked by ``T``'s page id.
  ``T_s`` is the space covered by ``T`` -- its own bounding rectangle,
  except for the root where ``T_s`` is the whole embedded space ``S``.

Together they cover ``S`` (tested by :meth:`GranuleSet.coverage_leftover`),
they adapt to the data distribution as the tree changes, and any scan
predicate maps to a small set of purely physical lock names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.geometry_cache import GeometryCache, prune_freed
from repro.geometry import Rect, Region
from repro.lock.resource import ResourceId
from repro.rtree.node import Node
from repro.rtree.tree import RTree
from repro.storage.page import PageId

Predicate = Union[Rect, Region]


def _predicate_parts(predicate: Predicate) -> Sequence[Rect]:
    return (predicate,) if isinstance(predicate, Rect) else predicate.parts


@dataclass(frozen=True)
class GranuleRef:
    """One granule: its lock name plus enough geometry for cover tests."""

    resource: ResourceId
    is_leaf: bool
    page_id: PageId


class GranuleSet:
    """Geometric queries over the current granules of one R-tree.

    All traversals count I/O through the tree's pager, because lock
    acquisition traffic is exactly the overhead the paper measures.
    """

    def __init__(self, tree: RTree, use_cache: bool = True) -> None:
        self.tree = tree
        #: versioned geometry cache (``None`` when disabled, e.g. to
        #: measure the uncached baseline in ``scripts/bench_report.py``)
        self.cache: Optional[GeometryCache] = GeometryCache(tree) if use_cache else None
        #: interned granule refs by page id (see :meth:`_intern`)
        self._leaf_refs: Dict[PageId, GranuleRef] = {}
        self._ext_refs: Dict[PageId, GranuleRef] = {}

    def _active_cache(self) -> Optional[GeometryCache]:
        """The cache, rebuilt if ``self.tree`` was swapped out from under us
        (tests replace the tree wholesale via ``adopt_manual_tree``)."""
        cache = self.cache
        if cache is not None and cache.tree is not self.tree:
            cache = self.cache = GeometryCache(self.tree)
        return cache

    # ------------------------------------------------------------------
    # geometry of individual granules
    # ------------------------------------------------------------------

    def node_space(self, node: Node) -> Optional[Rect]:
        """``T_s``: the node's covered space (the universe for the root)."""
        cache = self._active_cache()
        if cache is not None:
            return cache.node_space(node)
        if node.page_id == self.tree.root_id:
            return self.tree.config.universe
        return node.mbr()

    def node_mbr(self, node: Node) -> Optional[Rect]:
        """The node's MBR, read through the cache when enabled."""
        cache = self._active_cache()
        if cache is not None:
            return cache.node_mbr(node)
        return node.mbr()

    def external_region(self, node: Node) -> Region:
        """The external granule of a non-leaf node: ``T_s − ⋃ children``."""
        assert not node.is_leaf
        cache = self._active_cache()
        if cache is not None:
            return cache.external_region(node)
        space = self.node_space(node)
        if space is None:
            return Region()
        return Region.difference(space, node.child_rects())

    # ------------------------------------------------------------------
    # predicate -> granules
    # ------------------------------------------------------------------

    def overlapping(self, predicate: Predicate) -> List[GranuleRef]:
        """Every granule whose space overlaps the predicate.

        Leaf granules by closed-box overlap against their MBR; external
        granules by positive-measure overlap against their region.  (A
        predicate that merely touches leftover space between granules is
        already protected by the closed leaf boxes on either side.)
        """
        refs: List[GranuleRef] = []
        parts = _predicate_parts(predicate)
        if not parts:
            return refs
        root = self.tree.root()
        if root.is_leaf:
            # Degenerate single-node tree: the lone leaf granule is the
            # whole embedded space for locking purposes (there is no
            # non-leaf node to own an external granule).
            refs.append(self._intern(True, root.page_id))
            return refs
        # A degenerate (measure-zero) part has no interior, so the
        # positive-measure test can never pass for it; point queries fall
        # back to closed-box contact with the external region.
        flat = [p.is_degenerate() for p in parts]
        query = parts[0] if len(parts) == 1 else None
        query_flat = flat[0]
        stack = [root]
        while stack:
            node = stack.pop()
            ext = self.external_region(node)
            if query is not None:
                ext_hit = ext.intersects_open(query) or (query_flat and ext.intersects(query))
                hits = node.overlapping(query)
            else:
                ext_hit = any(
                    ext.intersects_open(p) or (f and ext.intersects(p)) for p, f in zip(parts, flat)
                )
                hits = [e for e in node.entries if any(e.rect.intersects(p) for p in parts)]
            if ext_hit:
                refs.append(self._intern(False, node.page_id))
            if node.level == 1:
                for entry in hits:
                    refs.append(self._intern(True, entry.child_id))  # type: ignore[union-attr]
            else:
                for entry in hits:
                    stack.append(self.tree.node(entry.child_id))  # type: ignore[union-attr]
        return refs

    def _intern(self, is_leaf: bool, page_id: PageId) -> GranuleRef:
        """The one :class:`GranuleRef` (and lock name) for a granule.

        A ref is a pure function of ``(kind, page id)``, so enumeration
        hands out the same objects every time instead of rebuilding one
        per granule per scan.  Freed page ids are never reused; their
        refs are dropped by the geometry cache's pruning rule.
        """
        table = self._leaf_refs if is_leaf else self._ext_refs
        ref = table.get(page_id)
        if ref is None:
            resource = ResourceId.leaf(page_id) if is_leaf else ResourceId.ext(page_id)
            ref = table[page_id] = GranuleRef(resource, is_leaf, page_id)
            prune_freed(table, self.tree.pager)
        return ref

    def overlapping_resources(self, predicate: Predicate) -> List[ResourceId]:
        return [ref.resource for ref in self.overlapping(predicate)]

    def covering(self, predicate: Rect) -> Tuple[List[GranuleRef], List[GranuleRef]]:
        """Split the overlapping granules into a greedy *covering set* and
        the remainder.

        The covering set's union contains the predicate (used by
        UpdateScan: SIX on the cover, S on the rest).  Greedy choice:
        granules in decreasing overlap-area order until the predicate is
        exhausted.  This is the natural approximation of the paper's
        "minimal set of granules sufficient to fully cover the predicate"
        (exact minimality is set-cover, and nothing in the protocol's
        correctness depends on it).
        """
        refs = self.overlapping(predicate)
        pieces: List[Tuple[float, GranuleRef, Sequence[Rect]]] = []
        for ref in refs:
            node = self.tree.node(ref.page_id, count_io=False)
            if ref.is_leaf:
                mbr = self.node_mbr(node)
                geometry: Sequence[Rect] = (mbr,) if mbr is not None else ()
            else:
                geometry = self.external_region(node).parts
            clipped = [r for r in (g.intersection(predicate) for g in geometry) if r is not None]
            area = sum(c.area() for c in clipped)
            pieces.append((area, ref, geometry))

        remaining = Region.from_rect(predicate)
        cover: List[GranuleRef] = []
        rest: List[GranuleRef] = []
        for _area, ref, geometry in sorted(pieces, key=lambda p: -p[0]):
            if remaining.is_empty():
                rest.append(ref)
                continue
            before = remaining.area()
            remaining = remaining.subtract(geometry)
            if remaining.area() < before or remaining.is_empty():
                cover.append(ref)
            else:
                rest.append(ref)
        return cover, rest

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def coverage_leftover(self) -> Region:
        """Universe minus every granule; empty iff the granules cover ``S``.

        This is the paper's central geometric claim: the lowest-level BRs
        plus the external granules of all non-leaf nodes tile the embedded
        space.
        """
        region = Region.from_rect(self.tree.config.universe)
        root = self.tree.pager.peek(self.tree.root_id).payload
        if root.is_leaf:
            # Degenerate single-node tree: the lone leaf granule stands for
            # the whole embedded space (mirrors :meth:`overlapping`).
            return Region()
        for node in self.tree.iter_nodes():
            if node.is_leaf:
                mbr = self.node_mbr(node)
                if mbr is not None:
                    region = region.subtract([mbr])
            else:
                region = region.subtract(self.external_region(node).parts)
            if region.is_empty():
                break
        return region

    def granule_count(self) -> Tuple[int, int]:
        """(leaf granules, external granules) currently in the tree."""
        leaves = 0
        exts = 0
        for node in self.tree.iter_nodes():
            if node.is_leaf:
                leaves += 1
            else:
                exts += 1
        return leaves, exts
