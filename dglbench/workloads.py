"""The benchmark's three workloads.

Each workload replays a fixed operation list generated from its seed:
no time budget, so every count and every simulated-time figure repeats
exactly for a given seed.  A workload is used in three steps:

* :meth:`setup` -- dataset generation, tree build and geometry-cache
  warm-up, each step timed as one window of a :class:`HostMeter`;
* :meth:`run` -- the measured phase; samples each operation's raw wall
  time into a meter and returns a :class:`Pass` of deterministic counts;
* :meth:`check` -- verifies the program's outputs independently of it.

Operation latency on ``scan_heavy`` and ``insert_growth`` is one
single-operation transaction (begin, operation, commit).  On
``mixed_sim`` it is one index operation, running time only: time parked
in the simulator while another worker runs is subtracted.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from meter import HostMeter, percentile
from repro.concurrency.checker import (
    SerializabilityViolation,
    check_conflict_serializable,
    find_phantoms,
)
from repro.concurrency.history import History
from repro.concurrency.simulator import CostModel, Simulator
from repro.concurrency.waits import SimulatedWait
from repro.core import PhantomProtectedRTree
from repro.geometry import Rect
from repro.lock.manager import LockManager, SingleThreadedWait
from repro.rtree import RTreeInvariantError, validate_tree
from repro.rtree.bulk import bulk_load
from repro.rtree.tree import RTreeConfig
from repro.storage import BufferPool, PageManager
from repro.txn import TransactionAborted
from repro.workloads import MixSpec, generate_scripts, paper_spatial_dataset, uniform_rects

UNIVERSE = Rect((0.0, 0.0), (1.0, 1.0))
#: the simulated-time cost model every ``sim_*`` metric is priced in
COSTS = CostModel()
#: each sized workload must yield enough samples that p99 has 10 beyond it
MIN_P99_SAMPLES = 1000

pc = time.perf_counter


@dataclass
class Pass:
    """What one measured pass produced."""

    #: deterministic counts: identical for a given seed on every run
    counts: Dict[str, float]
    #: committed operations (the ``ops_per_s`` numerator)
    committed_ops: int
    #: per-transaction simulated latency, time units
    txn_sim_tu: List[float]
    #: simulated time the whole pass took
    sim_total_tu: float
    #: transaction attempts (commits + deadlock aborts)
    attempts: int
    #: transactions committed
    committed_txns: int
    #: transactions given up after the retry limit
    given_up: int
    #: wall seconds with no simulated worker running (``mixed_sim`` only)
    handoff_s: float = 0.0
    #: what :meth:`Workload.check` needs
    evidence: Any = None


def solo_pass(counts: Dict[str, float], costs: List[float], evidence: Any = None) -> Pass:
    """The pass of a single client whose every transaction commits."""
    n = len(costs)
    return Pass(
        counts=counts,
        committed_ops=n,
        txn_sim_tu=costs,
        sim_total_tu=sum(costs),
        attempts=n,
        committed_txns=n,
        given_up=0,
        evidence=evidence,
    )


@dataclass
class Checked:
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)


def op_cost(result, think: float = 0.0) -> float:
    """Simulated cost of one operation under :data:`COSTS`."""
    return (
        result.physical_reads * COSTS.io
        + COSTS.cpu
        + len(result.locks_taken) * COSTS.lock_op
        + think
    )


def program_counters(index: PhantomProtectedRTree) -> Dict[str, int]:
    """The program's own deterministic counters, read without side effects."""
    stats = index.stats
    pool = index.tree.pager.buffer_pool
    lm = index.lock_manager
    cache = index.protocol.geometry_cache
    return {
        "storage.logical_reads": stats.logical_reads,
        "storage.physical_reads": stats.physical_reads,
        "storage.buffer_hits": pool.hits,
        "storage.buffer_misses": pool.misses,
        "lock.grants": lm.total_acquisitions(),
        "lock.waits": lm.wait_count,
        "lock.deadlocks": lm.deadlock_count,
        "geometry_cache.hits": cache.hits,
        "geometry_cache.misses": cache.misses,
        "txn.committed": index.txn_manager.committed,
        "txn.aborted": index.txn_manager.aborted,
        "maintenance.processed": index.deferred.processed,
        "maintenance.requeued": index.deferred.requeued,
    }


def counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {k: after[k] - before[k] for k in before}


def bulk_index(
    objects: List[Tuple[int, Rect]], fanout: int, frames: int, lock_manager: LockManager, **kw
) -> PhantomProtectedRTree:
    """A DGL index over an STR bulk-loaded tree with a ``frames``-page LRU pool."""
    config = RTreeConfig(max_entries=fanout, universe=UNIVERSE)
    tree = bulk_load(objects, config, pager=PageManager(buffer_pool=BufferPool(capacity=frames)))
    index = PhantomProtectedRTree(config, lock_manager=lock_manager, **kw)
    # The index has no bulk-load entry point; adopt the packed tree the way
    # scripts/bench_report.py and the integration tests do.
    index.tree = tree
    index.protocol.tree = tree
    index.protocol.granules.tree = tree
    return index


def warm(index: PhantomProtectedRTree) -> None:
    """Enumerate the granules of the whole universe once, so every interior
    node's granule geometry is in the geometry cache and every interior
    page has passed the buffer pool.  (A whole-universe scan would also
    lock every granule, which costs seconds and warms nothing more.)"""
    index.granules.overlapping(UNIVERSE)


def square_predicates(rng_seed: int, count: int, side: float) -> List[Rect]:
    rng = random.Random(rng_seed)
    out = []
    for _ in range(count):
        x = rng.uniform(0.0, 1.0 - side)
        y = rng.uniform(0.0, 1.0 - side)
        out.append(Rect((x, y), (x + side, y + side)))
    return out


def digest(items) -> int:
    """Stable fingerprint of a generated input list."""
    return zlib.crc32(repr(items).encode())


class Workload:
    """Base class: sizing from ``--seconds`` and the ``setup`` protocol."""

    name = ""
    #: operations per nominal-host second, for sizing the fixed work
    rate = 1.0
    #: operations per meter window (about 40 ms of work)
    ops_per_window = 10
    #: set-up repeats; ``setup_s`` is their median (3 s or more in all)
    setup_repeats = 5

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.size = max(1, round(seconds * self.rate))

    def setup(self, meter: HostMeter) -> Tuple[Any, List[int]]:
        """Build a fresh system; return it and the meter windows it used."""
        system: Dict[str, Any] = {}
        windows = []
        for step in self.setup_steps():
            windows.append(meter.piece(lambda step=step: step(system)))
        return system, windows

    def setup_steps(self):
        raise NotImplementedError

    def run(self, system, meter: HostMeter) -> Pass:
        raise NotImplementedError

    def check(self, system, outcome: Pass) -> Checked:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# scan_heavy
# ---------------------------------------------------------------------------


class PaperTree(Workload):
    """Set-up shared by the single-client workloads: the paper's
    32,000-object spatial dataset, STR bulk-loaded at fanout 16 under a
    512-frame LRU pool that holds the ~300 interior pages but not the
    ~2,900 leaves, so the tree is bigger than the cache (§3.4)."""

    n_objects = 32_000
    fanout = 16
    frames = 512

    def setup_steps(self):
        def dataset(s):
            s["objects"] = paper_spatial_dataset(self.n_objects, seed=self.seed)

        def build(s):
            s["index"] = bulk_index(
                s["objects"], self.fanout, self.frames, LockManager(wait_strategy=SingleThreadedWait())
            )

        def warm_up(s):
            warm(s["index"])

        return [dataset, build, warm_up, self.inputs]

    def inputs(self, system) -> None:
        """Generate the operation list into ``system``."""
        raise NotImplementedError


class ScanHeavy(PaperTree):
    """One client; one-scan ReadScan transactions with 5% square predicates."""

    name = "scan_heavy"
    rate = 210.0
    ops_per_window = 10
    side = 0.05

    def inputs(self, system) -> None:
        system["preds"] = square_predicates(self.seed * 7 + 1, self.size, self.side)

    def run(self, system, meter: HostMeter) -> Pass:
        index: PhantomProtectedRTree = system["index"]
        before = program_counters(index)
        found: List[Tuple[int, int]] = []
        costs: List[float] = []
        restarts = waits = 0
        meter.open()
        for pred in system["preds"]:
            start = pc()
            txn = index.begin()
            result = index.read_scan(txn, pred)
            index.commit(txn)
            meter.sample(pc() - start)
            oids = result.oids
            found.append((len(oids), sum(oids)))
            costs.append(op_cost(result))
            restarts += result.restarts
            waits += result.lock_waits
        meter.finish()
        counts = counter_delta(before, program_counters(index))
        counts.update(
            {
                "ops": len(found),
                "objects_found": sum(n for n, _ in found),
                "protocol.restarts": restarts,
                "protocol.op_waits": waits,
                "input_digest": digest(system["preds"]),
            }
        )
        return solo_pass(counts, costs, found)

    def check(self, system, outcome: Pass) -> Checked:
        """Each scan's (count, oid sum) against a brute-force filter of the
        dataset, bucketed by lower-left corner on a grid so it stays fast."""
        cell = 0.05
        n = int(round(1.0 / cell))
        grid: Dict[Tuple[int, int], List[Tuple[float, float, float, float, int]]] = defaultdict(list)
        max_side = 0.0
        for oid, rect in system["objects"]:
            (x0, y0), (x1, y1) = rect.lo, rect.hi
            max_side = max(max_side, x1 - x0, y1 - y0)
            grid[min(n - 1, int(x0 / cell)), min(n - 1, int(y0 / cell))].append((x0, y0, x1, y1, oid))
        problems = []
        for k, (pred, got) in enumerate(zip(system["preds"], outcome.evidence)):
            (px0, py0), (px1, py1) = pred.lo, pred.hi
            count = total = 0
            for i in range(max(0, int((px0 - max_side) / cell)), min(n - 1, int(px1 / cell)) + 1):
                for j in range(max(0, int((py0 - max_side) / cell)), min(n - 1, int(py1 / cell)) + 1):
                    for x0, y0, x1, y1, oid in grid.get((i, j), ()):
                        if x0 <= px1 and px0 <= x1 and y0 <= py1 and py0 <= y1:
                            count += 1
                            total += oid
            if (count, total) != got:
                problems.append(f"scan {k}: got (count, oid sum) {got}, expected {(count, total)}")
        return Checked(len(outcome.evidence), len(problems), problems)


# ---------------------------------------------------------------------------
# insert_growth
# ---------------------------------------------------------------------------


class InsertGrowth(PaperTree):
    """One client inserts a fixed stream of fresh objects with the paper's
    5% average extent, one per transaction, into the bulk-loaded base under
    the default ON_GROWTH policy."""

    name = "insert_growth"
    rate = 255.0
    ops_per_window = 16

    def inputs(self, system) -> None:
        system["stream"] = uniform_rects(self.size, seed=self.seed + 1_000_003, start_oid=1_000_000)

    def run(self, system, meter: HostMeter) -> Pass:
        index: PhantomProtectedRTree = system["index"]
        before = program_counters(index)
        costs: List[float] = []
        changed = restarts = waits = splits = 0
        meter.open()
        for oid, rect in system["stream"]:
            start = pc()
            txn = index.begin()
            result = index.insert(txn, oid, rect)
            index.commit(txn)
            meter.sample(pc() - start)
            changed += result.changed_boundaries
            splits += len(result.report.splits)
            restarts += result.restarts
            waits += result.lock_waits
            costs.append(op_cost(result))
        meter.finish()
        n = len(system["stream"])
        counts = counter_delta(before, program_counters(index))
        counts.update(
            {
                "ops": n,
                "core.inserts": n,
                "core.boundary_changes": changed,
                "rtree.splits": splits,
                "protocol.restarts": restarts,
                "protocol.op_waits": waits,
                "tree.height": index.tree.height,
                "input_digest": digest(system["stream"]),
            }
        )
        return solo_pass(counts, costs)

    def check(self, system, outcome: Pass) -> Checked:
        """The tree is valid, its granules tile the universe, and it holds
        exactly the base plus every inserted object."""
        index: PhantomProtectedRTree = system["index"]
        problems = []
        try:
            validate_tree(index.tree)
        except RTreeInvariantError as exc:
            problems.append(f"validate_tree: {exc}")
        leftover = index.granules.coverage_leftover()
        if not leftover.is_empty():
            problems.append(f"granules leave {leftover!r} of the universe uncovered")
        present = {e.oid: e.rect for e in index.tree.search(UNIVERSE)}
        lost_base = sum(1 for oid, rect in system["objects"] if present.get(oid) != rect)
        if lost_base:
            problems.append(f"{lost_base} base objects lost")
        extra = len(present) - len(system["objects"]) - len(system["stream"])
        if extra:
            problems.append(f"{extra} unexpected objects in the tree")
        lost = [oid for oid, rect in system["stream"] if present.get(oid) != rect]
        failed = len(lost) + len(problems)
        problems += [f"inserted object {oid} not found" for oid in lost[:10]]
        return Checked(len(system["stream"]), failed, problems)


# ---------------------------------------------------------------------------
# mixed_sim
# ---------------------------------------------------------------------------


class ParkClock:
    """Wraps one simulator's hand-off calls to time each thread's parking.

    ``checkpoint`` and ``block`` give the baton back; the time until the
    calling thread resumes is parked time, during which another worker (or
    the scheduler) runs.  The lock manager's simulated wait strategy calls
    ``sim.block`` through the instance, so wrapping the instance sees it.
    """

    def __init__(self, sim: Simulator) -> None:
        self.parked: Dict[int, float] = defaultdict(float)
        self.handoffs = 0
        sim.block = self._wrap(sim.block)
        sim.checkpoint = self._wrap(sim.checkpoint)

    def _wrap(self, fn):
        parked = self.parked

        def parking(*args, **kwargs):
            self.handoffs += 1
            start = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                parked[threading.get_ident()] += pc() - start

        return parking

    def mine(self) -> float:
        return self.parked[threading.get_ident()]


def _mix() -> MixSpec:
    # Scans, inserts, deletes and updates over a small hot tree: waits,
    # deadlocks and deferred deletes all occur at a steady rate.
    return MixSpec(
        read_scan=0.35,
        insert=0.30,
        delete=0.10,
        update_single=0.15,
        update_scan=0.05,
        scan_extent=0.15,
        object_extent=0.03,
        think_time=1.0,
    )


class MixedSim(Workload):
    """Two simulated workers (two OS threads, one running at a time) replay
    ``generate_scripts`` transactions against a preloaded tree that fits the
    buffer pool; deadlock victims retry; the run ends with vacuum."""

    name = "mixed_sim"
    setup_repeats = 25
    rate = 170.0  # transactions per nominal second
    ops_per_window = 48
    workers = 2
    ops_per_txn = 4
    n_preload = 2_000
    fanout = 16
    frames = 4_096
    max_retries = 10
    #: the run is cut into this many episodes, each ending when both
    #: workers are idle; each episode's history is checked on its own,
    #: which keeps the quadratic history checks to a few seconds
    episodes = 32

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.txns_per_worker = max(self.episodes, self.size // self.workers)

    def setup_steps(self):
        def dataset(s):
            s["objects"] = uniform_rects(self.n_preload, seed=self.seed, extent_fraction=0.02)

        def build(s):
            sim = Simulator(seed=self.seed)
            lm = LockManager(wait_strategy=SimulatedWait(sim))
            s["sim"] = sim
            s["index"] = bulk_index(s["objects"], self.fanout, self.frames, lm, clock=lambda: sim.clock)

        def warm_up(s):
            warm(s["index"])

        def scripts(s):
            s["scripts"] = generate_scripts(
                s["objects"], self.workers, self.txns_per_worker, self.ops_per_txn, _mix(), seed=self.seed
            )

        return [dataset, build, warm_up, scripts]

    def run(self, system, meter: HostMeter) -> Pass:
        index: PhantomProtectedRTree = system["index"]
        sim: Simulator = system["sim"]
        park = ParkClock(sim)
        before = program_counters(index)
        latencies: List[float] = []
        episodes: List[Tuple[History, List[Tuple[str, int, Rect]]]] = []
        tally = defaultdict(int)
        active: List[float] = []

        def apply(txn, op):
            kind = op.kind
            if kind == "read_scan":
                return index.read_scan(txn, op.rect)
            if kind == "insert":
                return index.insert(txn, op.oid, op.rect)
            if kind == "delete":
                return index.delete(txn, op.oid, op.rect)
            if kind == "read_single":
                return index.read_single(txn, op.oid, op.rect)
            if kind == "update_single":
                return index.update_single(txn, op.oid, op.rect, payload="updated")
            return index.update_scan(txn, op.rect, lambda oid, rect, old: "bulk-updated")

        def worker(scripts):
            def body():
                born = pc()
                parked_before = park.mine()
                for script in scripts:
                    first_begin = sim.clock
                    for attempt in range(self.max_retries + 1):
                        tally["attempts"] += 1
                        txn = index.begin(f"{script.name}~{attempt}")
                        mine: List[Tuple[str, int, Rect]] = []
                        try:
                            for op in script.ops:
                                parked = park.mine()
                                start = pc()
                                result = apply(txn, op)
                                meter.sample(pc() - start - (park.mine() - parked))
                                tally["restarts"] += result.restarts
                                tally["op_waits"] += result.lock_waits
                                if op.kind == "insert":
                                    tally["inserts"] += 1
                                    tally["boundary_changes"] += result.changed_boundaries
                                if op.kind == "insert" or (op.kind == "delete" and result.found):
                                    mine.append((op.kind, op.oid, op.rect))
                                sim.checkpoint(op_cost(result, op.think))
                            index.commit(txn)
                        except TransactionAborted:
                            # Back off, staggered per script so two victims
                            # do not collide again (crc32, not hash(): string
                            # hashing is salted per process).
                            stagger = 1.0 + 6.0 * zlib.crc32(script.name.encode()) / 2**32
                            sim.checkpoint(5.0 * (attempt + 1) * stagger)
                            continue
                        tally["committed_ops"] += len(script.ops)
                        latencies.append(sim.clock - first_begin)
                        episodes[-1][1].extend(mine)
                        break
                    else:
                        tally["given_up"] += 1
                # Thread idents are reused across episodes, so take the
                # difference of the parked total, never the total itself.
                active.append(pc() - born - (park.mine() - parked_before))

            return body

        per_episode = self.txns_per_worker // self.episodes
        meter.open()
        start = pc()
        for e in range(self.episodes):
            index.history = History()
            episodes.append((index.history, []))
            stop = (e + 1) * per_episode if e < self.episodes - 1 else None
            for w, scripts in enumerate(system["scripts"]):
                sim.spawn(f"worker-{w}", worker(scripts[e * per_episode : stop]), delay=w * 0.01)
            sim.run()
            sim.raise_process_errors()
        sim_wall = pc() - start
        sim_total = sim.clock
        vacuumed = index.vacuum()
        meter.finish()
        counts = counter_delta(before, program_counters(index))
        counts.update(
            {
                "ops": len(meter.samples),
                "protocol.restarts": tally["restarts"],
                "protocol.op_waits": tally["op_waits"],
                "concurrency.handoffs": park.handoffs,
                "core.inserts": tally["inserts"],
                "core.boundary_changes": tally["boundary_changes"],
                "maintenance.vacuumed": vacuumed,
                "sim.clock": sim_total,
                "input_digest": digest([s.ops for w in system["scripts"] for s in w]),
            }
        )
        system["episodes"] = episodes
        return Pass(
            counts=counts,
            committed_ops=tally["committed_ops"],
            txn_sim_tu=latencies,
            sim_total_tu=sim_total,
            attempts=tally["attempts"],
            committed_txns=len(latencies),
            given_up=tally["given_up"],
            handoff_s=max(0.0, sim_wall - sum(active)),
        )

    def check(self, system, outcome: Pass) -> Checked:
        """Each episode's history is phantom-free and conflict-serializable
        from the committed state the episode started in, and the final tree
        holds exactly the preload plus the committed writes.  Episodes do
        not overlap in time, so checking them one by one is equivalent to
        checking the whole history."""
        index: PhantomProtectedRTree = system["index"]
        problems = []
        expected = dict(system["objects"])
        for e, (history, writes) in enumerate(system["episodes"]):
            history.preload(expected)
            problems += [
                f"episode {e} phantom: {r.kind} reader {r.reader!r}: {r.detail}"
                for r in find_phantoms(history)
            ]
            try:
                check_conflict_serializable(history)
            except SerializabilityViolation as exc:
                problems.append(f"episode {e} not serializable: {exc}")
            for kind, oid, rect in writes:
                if kind == "insert":
                    expected[oid] = rect
                else:
                    expected.pop(oid, None)
        entries = index.tree.search(UNIVERSE, include_tombstones=True)
        actual = {e.oid: e.rect for e in entries if not e.tombstone}
        tombstones = sum(1 for e in entries if e.tombstone)
        if tombstones:
            problems.append(f"{tombstones} tombstones survived vacuum")
        try:
            validate_tree(index.tree)
        except RTreeInvariantError as exc:
            problems.append(f"validate_tree: {exc}")
        wrong = sorted(oid for oid in set(expected) | set(actual) if expected.get(oid) != actual.get(oid))
        failed = outcome.given_up + len(wrong) + len(problems)
        problems += [
            f"object {oid}: expected {expected.get(oid)}, tree has {actual.get(oid)}" for oid in wrong[:10]
        ]
        attempted = self.workers * self.txns_per_worker
        return Checked(attempted, failed, problems)


WORKLOADS = {cls.name: cls for cls in (ScanHeavy, InsertGrowth, MixedSim)}


def sim_metrics(outcome: Pass) -> Dict[str, float]:
    """The simulated-time metrics: deterministic for a given seed."""
    lat = outcome.txn_sim_tu
    return {
        "sim_txn_per_ktu": 1000.0 * outcome.committed_txns / outcome.sim_total_tu,
        "sim_txn_p50_tu": statistics.median(lat),
        "sim_txn_p99_tu": percentile(lat, 0.99),
        "commit_rate": outcome.committed_txns / outcome.attempts,
    }
