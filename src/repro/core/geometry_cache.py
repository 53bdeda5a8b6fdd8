"""Versioned cache of per-node granule geometry.

The protocol's lock-acquisition hot path asks the same geometric
questions over and over: "what is this node's MBR?", "what space does it
cover?", "what is its external granule ``T_s − ⋃ children``?".  The last
one is the expensive one -- a full rectangle subtraction whose output can
run to hundreds of parts near the root -- and before this cache it was
recomputed on *every* overlap probe of *every* operation.

Pages already carry a monotonically increasing version (bumped by
:meth:`~repro.storage.page.Page.mark_dirty` on every write), and plans
already use those versions for re-validation (``InsertPlan.versions``).
The cache reuses the same mechanism: an entry is keyed by page id and
valid only while ``(page.version, node is root)`` matches what was
observed at fill time.  Invalidation is therefore implicit -- any
structure modification writes the pages it touches, bumping their
versions, and the next probe recomputes.

The "is root" bit matters because the root's covered space is the whole
embedded universe while an interior node's is its own MBR; a root change
(grow/shrink) does not necessarily rewrite the page that gains or loses
root status.

Thread safety: callers hold the protocol latch around all tree reads, so
the cache needs no locking of its own.
"""

from __future__ import annotations

from typing import Dict, Optional, TypeVar

from repro.geometry import Rect, Region
from repro.rtree.node import Node
from repro.storage.page import PageId

#: sentinel for "field not computed yet" (``None`` is a valid value)
_UNSET = object()

V = TypeVar("V")


def prune_freed(table: Dict[PageId, V], pager) -> None:
    """Drop the entries of freed pages once they dominate ``table``.

    Freed page ids are never recycled, so stale entries are merely dead
    weight; pruning keeps a per-page table proportional to the live page
    count.
    """
    if len(table) <= 256 or len(table) <= 2 * len(pager):
        return
    for pid in [pid for pid in table if not pager.exists(pid)]:
        del table[pid]


class _CacheEntry:
    """Cached derived geometry for one node at one page version."""

    __slots__ = ("version", "is_root", "mbr", "space", "external")

    def __init__(self, version: int, is_root: bool) -> None:
        self.version = version
        self.is_root = is_root
        self.mbr = _UNSET
        self.space = _UNSET
        self.external = _UNSET


class GeometryCache:
    """Read-through cache of node MBRs, covered spaces and external regions.

    One instance serves one tree (normally owned by a
    :class:`~repro.core.granules.GranuleSet`).  All values are immutable
    (:class:`Rect` / :class:`Region`), so handing out cached objects is
    safe.
    """

    def __init__(self, tree) -> None:
        self.tree = tree
        self._entries: Dict[PageId, _CacheEntry] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def node_mbr(self, node: Node) -> Optional[Rect]:
        """The node's minimum bounding rectangle (``None`` when empty)."""
        entry = self._entry(node)
        if entry is None:
            return node.mbr()
        if entry.mbr is _UNSET:
            entry.mbr = node.mbr()
        return entry.mbr  # type: ignore[return-value]

    def node_space(self, node: Node) -> Optional[Rect]:
        """``T_s``: the node's covered space (the universe for the root)."""
        entry = self._entry(node)
        if entry is None:
            if node.page_id == self.tree.root_id:
                return self.tree.config.universe
            return node.mbr()
        return self._space(entry, node)

    def external_region(self, node: Node) -> Region:
        """The external granule ``T_s − ⋃ children`` of a non-leaf node."""
        entry = self._entry(node)
        if entry is None:
            space = self.node_space(node)
            if space is None:
                return Region()
            return Region.difference(space, node.child_rects())
        if entry.external is _UNSET:
            space = self._space(entry, node)
            if space is None:
                entry.external = Region()
            else:
                entry.external = Region.difference(space, node.child_rects())
        return entry.external  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _space(self, entry: _CacheEntry, node: Node) -> Optional[Rect]:
        if entry.space is _UNSET:
            if entry.is_root:
                entry.space = self.tree.config.universe
            else:
                if entry.mbr is _UNSET:
                    entry.mbr = node.mbr()
                entry.space = entry.mbr
        return entry.space  # type: ignore[return-value]

    def _entry(self, node: Node) -> Optional[_CacheEntry]:
        pid = node.page_id
        pager = self.tree.pager
        if not pager.exists(pid):
            # Node from outside this tree's pager (hand-assembled test
            # fixtures, detached snapshots): no version to validate
            # against, so bypass the cache and let the caller compute.
            return None
        version = pager.peek(pid).version
        is_root = pid == self.tree.root_id
        entry = self._entries.get(pid)
        if entry is not None and entry.version == version and entry.is_root == is_root:
            self.hits += 1
            return entry
        self.misses += 1
        entry = _CacheEntry(version, is_root)
        self._entries[pid] = entry
        prune_freed(self._entries, pager)
        return entry

    def __repr__(self) -> str:
        return (
            f"GeometryCache(entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses}, hit_rate={self.hit_rate:.2f})"
        )
