"""The traced run: per-layer call counts and self time.

:class:`LayerTracer` patches wrappers onto the public functions at each
layer boundary of ``repro`` (index operation -> protocol -> granules /
rtree / lock / storage / txn / maintenance) and takes them off again on
exit.  A timed wrapper keeps a per-thread stack of open spans; a span's
self time is its duration minus the time of the spans it encloses, so the
self times of all layers sum to no more than the wall time of the pass.
Time a simulated worker spends parked (``Simulator.block`` and
``checkpoint``) is a span of the ``parked`` pseudo-layer: it leaves the
enclosing span's self time, and is not part of that sum, because another
worker's spans run during it.

Hot, fine-grained calls get count-only wrappers: ``Rect`` construction,
the cheap ``Region`` predicates, ``OpContext.holds_covering``, and
``RTree.root`` / ``RTree.node`` (descents and node reads).  The
``Region`` subtraction family is timed as the ``region`` layer.

End-to-end metrics never come from a traced pass.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.core.granules import GranuleSet
from repro.core.index import PhantomProtectedRTree
from repro.core.maintenance import DeferredDeleteQueue
from repro.core.protocol import GranuleLockProtocol, OpContext
from repro.geometry import Rect, Region
from repro.lock.manager import LockManager
from repro.rtree.tree import RTree
from repro.storage import BufferPool, PageManager
from repro.txn import TransactionManager

pc = time.perf_counter

#: layer -> [(class, method names)] of timed spans
TIMED: Dict[str, List[Tuple[type, Tuple[str, ...]]]] = {
    "index": [
        (
            PhantomProtectedRTree,
            ("insert", "delete", "read_single", "read_scan", "update_single", "update_scan"),
        )
    ],
    "txn": [
        (PhantomProtectedRTree, ("begin", "commit", "abort")),
        (TransactionManager, ("begin", "commit", "abort", "rollback_to")),
    ],
    "maintenance": [
        (DeferredDeleteQueue, ("run",)),
        (PhantomProtectedRTree, ("run_deferred_delete",)),
    ],
    "protocol": [
        (
            GranuleLockProtocol,
            (
                "lock_scan",
                "execute_scan",
                "lock_update_scan",
                "lock_read_single",
                "lock_update_single",
                "insert",
                "logical_delete",
                "physical_delete",
                "end_operation",
            ),
        )
    ],
    "granules": [(GranuleSet, ("overlapping", "overlapping_resources", "covering"))],
    "rtree": [
        (
            RTree,
            (
                "search",
                "find_entry",
                "overlapping_leaf_ids",
                "plan_insert",
                "plan_delete",
                "plan_is_current",
                "insert",
                "reinsert_entry",
                "delete",
                "set_tombstone",
            ),
        )
    ],
    "storage": [
        (PageManager, ("read", "write", "allocate", "free")),
        (BufferPool, ("fetch",)),
    ],
    "lock": [(LockManager, ("acquire", "release", "end_operation", "release_all"))],
    "region": [(Region, ("difference", "subtract", "clipped", "covers"))],
}

#: counter name -> (class, method) of count-only wrappers
COUNTED: Dict[str, Tuple[type, str]] = {
    "geometry.rects_built": (Rect, "__init__"),
    "geometry.region_intersects": (Region, "intersects"),
    "geometry.region_intersects_open": (Region, "intersects_open"),
    "geometry.region_from_rect": (Region, "from_rect"),
    "protocol.cover_probes": (OpContext, "holds_covering"),
    "rtree.descents": (RTree, "root"),
    "rtree.node_reads": (RTree, "node"),
    "granules.enumerations": (GranuleSet, "overlapping"),
    "lock.requests": (LockManager, "acquire"),
}

#: counter name -> (class, method) whose results' lengths are summed
SIZED: Dict[str, Tuple[type, str]] = {
    "granules.refs": (GranuleSet, "overlapping"),
}

#: pseudo-layer for time a simulated worker spends parked
PARKED = "parked"


class LayerTracer:
    """Context manager installing the wrappers; holds what they measured."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: inclusive seconds per (class name, method) span, e.g. commit time
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patched: List[Tuple[type, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer: str, name: str, fn: Callable) -> Callable:
        self_s, calls, inclusive_s = self.self_s, self.calls, self.inclusive_s
        stack_of = self._stack

        def span(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            start = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = pc() - start
                children = stack.pop()
                self_s[layer] += elapsed - children
                calls[layer] += 1
                inclusive_s[name] += elapsed
                if stack:
                    stack[-1] += elapsed

        return span

    def counted(self, counter: str, fn: Callable) -> Callable:
        counts = self.counts

        def count(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return count

    def sized(self, counter: str, fn: Callable) -> Callable:
        counts = self.counts

        def size(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[counter] += len(result)
            return result

        return size

    def _patch(self, owner: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap_parking(self, sim) -> None:
        """Time a simulator instance's hand-offs as parked spans."""
        sim.block = self.timed(PARKED, "Simulator.block", sim.block)
        sim.checkpoint = self.timed(PARKED, "Simulator.checkpoint", sim.checkpoint)

    def __enter__(self) -> "LayerTracer":
        # Count-only wrappers go on first so a timed wrapper of the same
        # method (GranuleSet.overlapping) encloses the counting.
        for counter, (owner, attr) in COUNTED.items():
            self._patch(owner, attr, lambda fn, c=counter: self.counted(c, fn))
        for counter, (owner, attr) in SIZED.items():
            self._patch(owner, attr, lambda fn, c=counter: self.sized(c, fn))
        for layer, targets in TIMED.items():
            for owner, attrs in targets:
                for attr in attrs:
                    name = f"{owner.__name__}.{attr}"
                    self._patch(owner, attr, lambda fn, lay=layer, n=name: self.timed(lay, n, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def running_self_s(self) -> float:
        """Self time summed over every layer a thread runs in."""
        return sum(v for layer, v in self.self_s.items() if layer != PARKED)
