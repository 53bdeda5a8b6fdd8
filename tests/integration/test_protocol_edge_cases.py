"""Deeper protocol scenarios: §3.5 non-leaf splits, §3.6 absent-object
deletes, §3.7 concurrent vacuum, and structural protocol facts."""

import random

import pytest

from repro.concurrency import find_phantoms
from repro.core import InsertionPolicy
from repro.geometry import Rect
from repro.lock.modes import LockMode, covers
from repro.lock.resource import ResourceId
from repro.rtree import validate_tree
from repro.txn import TransactionAborted

from tests.conftest import build_manual_tree
from tests.integration.util import adopt_manual_tree, make_sim_index


class TestAbsentObjectDelete:
    """§3.6: 'If the transaction requests deletion of an object that does
    not exist, other transactions wishing to insert the same object should
    be prevented as long as the deleter is active.'"""

    def test_concurrent_insert_of_missing_object_waits_for_deleter(self):
        sim, index, history = make_sim_index(max_entries=4)
        ghost = Rect((3.0, 3.0), (3.5, 3.5))
        with index.transaction("seed") as txn:
            index.insert(txn, "anchor", Rect((1, 1), (2, 2)))
        events = []

        def deleter():
            txn = index.begin("deleter")
            res = index.delete(txn, "ghost", ghost)
            events.append(("delete-not-found", sim.clock, res.found))
            sim.checkpoint(50)
            index.commit(txn)
            events.append(("deleter-commit", sim.clock))

        def inserter():
            sim.checkpoint(5)
            txn = index.begin("inserter")
            try:
                index.insert(txn, "ghost", ghost)
                index.commit(txn)
                events.append(("insert-commit", sim.clock))
            except TransactionAborted:
                events.append(("insert-victim", sim.clock))

        sim.spawn("deleter", deleter)
        sim.spawn("inserter", inserter)
        sim.run()
        sim.raise_process_errors()

        assert events[0] == ("delete-not-found", 0.0, False)
        deleter_commit = next(t for e, t, *r in events if e == "deleter-commit")
        landed = [t for e, t, *r in events if e == "insert-commit"]
        if landed:
            assert landed[0] >= deleter_commit
        assert find_phantoms(history) == []

    def test_delete_rechecks_after_waiting(self):
        """If the object appears while the deleter waits for its S locks,
        the deleter must find (and delete) it rather than return a stale
        not-found."""
        sim, index, history = make_sim_index(max_entries=4)
        target = Rect((3.0, 3.0), (3.5, 3.5))
        with index.transaction("seed") as txn:
            index.insert(txn, "anchor", Rect((1, 1), (2, 2)))
        results = {}

        def inserter():
            txn = index.begin("inserter")
            index.insert(txn, "obj", target)
            sim.checkpoint(30)
            index.commit(txn)

        def deleter():
            sim.checkpoint(5)
            txn = index.begin("deleter")
            try:
                res = index.delete(txn, "obj", target)
                results["found"] = res.found
                index.commit(txn)
            except TransactionAborted:
                results["found"] = "aborted"

        sim.spawn("inserter", inserter)
        sim.spawn("deleter", deleter)
        sim.run()
        sim.raise_process_errors()
        assert results["found"] is True
        assert find_phantoms(history) == []


class TestNonLeafSplitInheritance:
    """§3.5: when a non-leaf node N splits, a transaction holding S on
    ext(N) must re-cover via S on ext(N1), ext(N2) and ext(parent)."""

    def test_scanner_inserter_keeps_ext_coverage_across_internal_split(self):
        sim, index, _history = make_sim_index(max_entries=4, seed=3)
        rng = random.Random(5)
        # grow a height-3 tree
        with index.transaction("seed") as txn:
            for i in range(40):
                x, y = rng.random() * 9, rng.random() * 9
                index.insert(txn, i, Rect((x, y), (x + 0.2, y + 0.2)))
        assert index.tree.height >= 3

        txn = index.begin("t")
        # scan a broad region: S on many granules, including ext granules
        index.read_scan(txn, Rect((0, 0), (10, 10)))
        lm = index.lock_manager
        ext_held = [
            r for r in lm.locks_of(txn.txn_id)
            if r.namespace.value == "ext"
        ]
        assert ext_held, "broad scan should hold external-granule locks"

        # hammer inserts from the same transaction until an internal node
        # splits; the protocol must keep the transaction S-covered
        splits_seen = 0
        for i in range(200):
            x, y = rng.random() * 9, rng.random() * 9
            res = index.insert(txn, 1000 + i, Rect((x, y), (x + 0.2, y + 0.2)))
            for split in (res.report.splits if res.report else []):
                if split.level > 0:
                    splits_seen += 1
                    # both halves' external granules S-covered
                    for page in (split.left_id, split.right_id):
                        held = lm.held_commit_mode(txn.txn_id, ResourceId.ext(page))
                        assert held is not None and covers(held, LockMode.S)
            if splits_seen:
                break
        assert splits_seen, "workload never split an internal node"
        index.commit(txn)
        validate_tree(index.tree)


class TestConcurrentVacuum:
    """§3.7 under concurrency: deferred deletes run while scanners and
    inserters are active, with no anomaly."""

    @pytest.mark.parametrize("seed", range(3))
    def test_vacuum_interleaved_with_workload(self, seed):
        sim, index, history = make_sim_index(max_entries=4, seed=seed)
        rng = random.Random(seed)
        objects = {}
        with index.transaction("seed") as txn:
            for i in range(60):
                x, y = rng.random() * 9, rng.random() * 9
                objects[i] = Rect((x, y), (x + 0.3, y + 0.3))
                index.insert(txn, i, objects[i])
        # queue a batch of committed deletions up front
        with index.transaction("deleter") as txn:
            for i in range(0, 30):
                index.delete(txn, i, objects[i])

        def vacuum_worker():
            while len(index.deferred):
                index.vacuum(limit=1)
                sim.checkpoint(3)

        def scanner(wid):
            def body():
                r = random.Random(seed * 7 + wid)
                for k in range(5):
                    txn = index.begin(f"scan{wid}-{k}")
                    try:
                        x, y = r.random() * 7, r.random() * 7
                        index.read_scan(txn, Rect((x, y), (x + 2, y + 2)))
                        sim.checkpoint(r.random() * 10)
                        index.commit(txn)
                    except TransactionAborted:
                        pass

            return body

        def inserter():
            r = random.Random(seed * 11)
            for k in range(8):
                txn = index.begin(f"ins-{k}")
                try:
                    x, y = r.random() * 9, r.random() * 9
                    index.insert(txn, 500 + k, Rect((x, y), (x + 0.2, y + 0.2)))
                    sim.checkpoint(r.random() * 6)
                    index.commit(txn)
                except TransactionAborted:
                    pass

        sim.spawn("vacuum", vacuum_worker)
        sim.spawn("scan-0", scanner(0), delay=0.5)
        sim.spawn("scan-1", scanner(1), delay=1.0)
        sim.spawn("inserter", inserter, delay=1.5)
        sim.run()
        sim.raise_process_errors()
        index.vacuum()

        assert find_phantoms(history) == []
        validate_tree(index.tree)
        # nothing lost: survivors = seeds 30..59 plus committed new inserts
        with index.transaction("check") as txn:
            result = index.read_scan(txn, Rect((0, 0), (10, 10)))
        survivors = {oid for oid in result.oids if isinstance(oid, int) and oid < 100}
        assert survivors == set(range(30, 60))


class TestDeadlockVictimDuringOrphanReinsertion:
    """§3.7: a maintenance transaction whose orphan re-insertion deadlocks
    must not split a granule other transactions hold locks on.

    The schedule is driven explicitly: the victim selector always names
    the highest transaction id, which is the maintenance transaction, so
    the outcome does not depend on the order the lock table wakes
    waiters in.
    """

    D = Rect((1.0, 1.0), (1.5, 1.5))      # physically deleted: empties leaf0
    ORPHAN = Rect((1.0, 3.0), (1.5, 3.5))  # leaf0's survivor, re-inserted
    X = Rect((2.0, 3.0), (2.5, 3.5))       # logically deleted in full leaf1

    def _index(self):
        sim, index, history = make_sim_index(max_entries=4, victim_selector=max)
        tree, names = build_manual_tree(
            index.tree.config,
            [
                [("D", self.D), ("orphan", self.ORPHAN)],
                [
                    ("X", self.X),
                    ("e2", Rect((3.0, 2.0), (3.5, 2.5))),
                    ("e3", Rect((3.5, 3.5), (4.0, 4.0))),
                    ("e4", Rect((2.0, 2.0), (2.4, 2.4))),
                ],
                [("f1", Rect((8.0, 8.0), (8.5, 8.5))), ("f2", Rect((9.0, 9.0), (9.5, 9.5)))],
            ],
        )
        adopt_manual_tree(index, tree, names)
        history.preload({e.oid: e.rect for e in tree.all_entries()})
        with index.transaction("deleter") as txn:
            index.delete(txn, "D", self.D)  # queued for the deferred pass
        return sim, index, history

    def test_reinsertion_split_waits_for_the_deleter_of_a_moved_entry(self):
        sim, index, history = self._index()
        events = []

        def writer():
            # IX on leaf1 + X on X; leaf1 is where the orphan will go,
            # and it is full, so the re-insertion needs SIX there.
            txn = index.begin("writer")
            try:
                index.delete(txn, "X", self.X)
                sim.checkpoint(5)
                # The orphan's region is now in the root's external
                # granule, which the maintenance transaction fences with
                # SIX: this S request closes the waits-for cycle.
                index.read_scan(txn, Rect((0.5, 2.5), (1.8, 4.0)))
                sim.checkpoint(20)
                index.commit(txn)
                events.append("writer-commit")
            except TransactionAborted:
                events.append("writer-abort")

        def reader():
            txn = index.begin("reader")
            index.read_scan(txn, self.X)
            index.commit(txn)

        sim.spawn("writer", writer)
        sim.spawn("vacuum", index.vacuum, delay=1)
        sim.spawn("reader", reader, delay=15)
        sim.run()
        sim.raise_process_errors()
        index.vacuum()

        # Without the shield the maintenance transaction is the victim and
        # puts its orphan back without locks, splitting leaf1 and moving
        # the tombstoned X out of the writer's IX: the reader misses it.
        assert find_phantoms(history) == []
        validate_tree(index.tree)
        # The maintenance transaction is not the victim while its orphan
        # is out of the tree; the writer is.
        assert events == ["writer-abort"]
        with index.transaction("check") as txn:
            result = index.read_scan(txn, Rect((0, 0), (10, 10)))
        assert set(result.oids) == {"orphan", "X", "e2", "e3", "e4", "f1", "f2"}


class TestProtocolFacts:
    def test_is_mode_never_used(self):
        """§3.3: SIX 'conflicts with all lock modes except the IS mode
        which is never used by the protocol' -- verify IS really never
        appears in the lock traffic of a busy run."""
        sim, index, _history = make_sim_index(max_entries=4, seed=9)
        rng = random.Random(9)
        objects = {}
        with index.transaction() as txn:
            for i in range(80):
                x, y = rng.random() * 9, rng.random() * 9
                objects[i] = Rect((x, y), (x + 0.2, y + 0.2))
                index.insert(txn, i, objects[i])
        with index.transaction() as txn:
            index.read_scan(txn, Rect((0, 0), (10, 10)))
            for i in range(20):
                index.delete(txn, i, objects[i])
            index.update_scan(txn, Rect((0, 0), (5, 5)), lambda o, r, old: "x")
        index.vacuum()
        assert "IS" not in index.lock_manager.acquisition_counts

    def test_scan_lock_count_matches_overlapping_granules(self):
        sim, index, _history = make_sim_index(max_entries=4, seed=2)
        rng = random.Random(2)
        with index.transaction() as txn:
            for i in range(100):
                x, y = rng.random() * 9, rng.random() * 9
                index.insert(txn, i, Rect((x, y), (x + 0.3, y + 0.3)))
        predicate = Rect((2, 2), (6, 6))
        expected = len(index.granules.overlapping(predicate))
        with index.transaction() as txn:
            result = index.read_scan(txn, predicate)
        assert len(result.locks_taken) == expected
