"""Unit tests for deadlock detection and victim selection (threaded mode)."""

import threading
import time

import pytest

from repro.lock import DeadlockError, LockManager, LockMode, LockTimeout, ResourceId
from repro.lock.manager import WaitStrategy

S, X = LockMode.S, LockMode.X
R1, R2, R3 = ResourceId.leaf(1), ResourceId.leaf(2), ResourceId.leaf(3)


@pytest.fixture(params=[1, 8], ids=["stripes1", "stripes8"])
def stripes(request):
    """Inert: the lock table is no longer sharded, so both params build the
    same manager.  Kept so these test ids match the earlier 1- and 8-stripe
    runs they continue."""
    return request.param


def run_all(workers, timeout=10.0):
    threads = [threading.Thread(target=w) for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
        assert not t.is_alive(), "worker hung"


class TestTwoPartyDeadlock:
    def test_cycle_broken_one_survives(self, stripes):
        lm = LockManager()
        lm.acquire("a", R1, X)
        lm.acquire("b", R2, X)
        outcome = {}
        barrier = threading.Barrier(2)

        # stagger: a waits first, then b closes the cycle
        def a_body():
            barrier.wait()
            try:
                lm.acquire("a", R2, X)
                outcome["a"] = "ok"
            except DeadlockError:
                outcome["a"] = "victim"
            finally:
                lm.release_all("a")

        def b_body():
            barrier.wait()
            time.sleep(0.15)
            try:
                lm.acquire("b", R1, X)
                outcome["b"] = "ok"
            except DeadlockError:
                outcome["b"] = "victim"
            finally:
                lm.release_all("b")

        run_all([a_body, b_body])
        assert sorted(outcome.values()) == ["ok", "victim"]
        assert lm.deadlock_count >= 1

    def test_victim_is_youngest_by_default(self, stripes):
        lm = LockManager()
        lm.acquire("old", R1, X)  # first seen -> older
        lm.acquire("young", R2, X)
        outcome = {}

        def old_body():
            try:
                lm.acquire("old", R2, X)
                outcome["old"] = "ok"
            except DeadlockError:
                outcome["old"] = "victim"
            finally:
                lm.release_all("old")

        def young_body():
            time.sleep(0.15)
            try:
                lm.acquire("young", R1, X)
                outcome["young"] = "ok"
            except DeadlockError:
                outcome["young"] = "victim"
            finally:
                lm.release_all("young")

        run_all([old_body, young_body])
        assert outcome == {"old": "ok", "young": "victim"}

    def test_custom_victim_selector(self, stripes):
        chosen = []

        def pick_first_alphabetical(cycle):
            victim = sorted(map(str, cycle))[0]
            chosen.append(victim)
            return victim

        lm = LockManager(victim_selector=pick_first_alphabetical)
        lm.acquire("a", R1, X)
        lm.acquire("b", R2, X)
        outcome = {}

        def a_body():
            try:
                lm.acquire("a", R2, X)
                outcome["a"] = "ok"
            except DeadlockError:
                outcome["a"] = "victim"
            finally:
                lm.release_all("a")

        def b_body():
            time.sleep(0.15)
            try:
                lm.acquire("b", R1, X)
                outcome["b"] = "ok"
            except DeadlockError:
                outcome["b"] = "victim"
            finally:
                lm.release_all("b")

        run_all([a_body, b_body])
        assert outcome["a"] == "victim"
        assert chosen == ["a"]


class TestThreePartyDeadlock:
    def test_three_cycle_resolved(self, stripes):
        lm = LockManager()
        lm.acquire("a", R1, X)
        lm.acquire("b", R2, X)
        lm.acquire("c", R3, X)
        outcome = {}

        def party(me, want, delay):
            def body():
                time.sleep(delay)
                try:
                    lm.acquire(me, want, X)
                    outcome[me] = "ok"
                except DeadlockError:
                    outcome[me] = "victim"
                finally:
                    lm.release_all(me)

            return body

        run_all([party("a", R2, 0.0), party("b", R3, 0.1), party("c", R1, 0.2)])
        assert sorted(outcome.values()).count("victim") >= 1
        assert sorted(outcome.values()).count("ok") >= 1


class TestWaitsForGraph:
    def test_graph_reflects_blockers(self, stripes):
        lm = LockManager()
        lm.acquire("holder", R1, X)
        done = threading.Event()

        def waiter():
            try:
                lm.acquire("waiter", R1, S)
            except Exception:
                pass
            finally:
                lm.release_all("waiter")
                done.set()

        t = threading.Thread(target=waiter)
        t.start()
        for _ in range(1000):
            if lm.waiting_requests():
                break
            time.sleep(0.001)
        graph = lm.build_waits_for()
        assert graph == {"waiter": {"holder"}}
        lm.release_all("holder")
        assert done.wait(timeout=5)
        t.join(timeout=5)

    def test_timeout_raises_and_cleans_queue(self, stripes):
        lm = LockManager()
        lm.acquire("holder", R1, X)
        with pytest.raises(LockTimeout):
            lm.acquire("waiter", R1, S, timeout=0.1)
        assert lm.waiting_requests() == []
        lm.release_all("holder")


def wait_until_queued(lm, count, timeout=5.0):
    deadline = time.monotonic() + timeout
    while len(lm.waiting_requests()) < count:
        assert time.monotonic() < deadline, "waiter never queued"
        time.sleep(0.001)


class TestMultiResourceCycle:
    def test_cycle_across_namespaces_real_threads(self):
        """Two real threads deadlock over a leaf and an external granule:
        one is the victim, the other is granted, and nothing is left held
        or queued afterwards."""
        leaf, ext = ResourceId.leaf(0), ResourceId.ext(1)
        lm = LockManager()
        lm.acquire("a", leaf, X)
        lm.acquire("b", ext, X)
        outcome = {}

        def a_body():
            try:
                lm.acquire("a", ext, X)
                outcome["a"] = "ok"
            except DeadlockError:
                outcome["a"] = "victim"
            finally:
                lm.release_all("a")

        def b_body():
            wait_until_queued(lm, 1)
            try:
                lm.acquire("b", leaf, X)
                outcome["b"] = "ok"
            except DeadlockError:
                outcome["b"] = "victim"
            finally:
                lm.release_all("b")

        run_all([a_body, b_body])
        assert outcome == {"a": "ok", "b": "victim"}
        assert lm.deadlock_count == 1
        assert lm.outstanding() == (0, 0)


class TestShield:
    def test_shielded_youngest_is_not_the_victim(self):
        """The default victim (the youngest waiter) is passed over while
        shielded; the other member of the cycle is aborted instead."""
        lm = LockManager()
        lm.acquire("old", R1, X)
        lm.acquire("young", R2, X)
        outcome = {}

        def old_body():
            try:
                lm.acquire("old", R2, X)
                outcome["old"] = "ok"
            except DeadlockError:
                outcome["old"] = "victim"
            finally:
                lm.release_all("old")

        def young_body():
            wait_until_queued(lm, 1)
            with lm.shield("young"):
                try:
                    lm.acquire("young", R1, X)
                    outcome["young"] = "ok"
                except DeadlockError:
                    outcome["young"] = "victim"
                finally:
                    lm.release_all("young")

        run_all([old_body, young_body])
        assert outcome == {"old": "victim", "young": "ok"}

    def test_all_shielded_cycle_still_resolves(self):
        chosen = []

        def selector(cycle):
            chosen.append(tuple(sorted(cycle)))
            return "b"

        lm = LockManager(victim_selector=selector)
        lm.acquire("a", R1, X)
        lm.acquire("b", R2, X)
        outcome = {}

        def body(me, want, queued_before):
            def run():
                wait_until_queued(lm, queued_before)
                with lm.shield(me):
                    try:
                        lm.acquire(me, want, X)
                        outcome[me] = "ok"
                    except DeadlockError:
                        outcome[me] = "victim"
                    finally:
                        lm.release_all(me)

            return run

        run_all([body("a", R2, 0), body("b", R1, 1)])
        assert outcome == {"a": "ok", "b": "victim"}
        assert chosen == [("a", "b")]


class _Abandon(WaitStrategy):
    """Returns from every wait undecided, so the request stays queued: the
    state a waiter cancelled from outside (simulator cancellation) leaves
    behind.  ``acquire`` then raises ``LockTimeout``."""

    def wait(self, manager, request, timeout):
        pass

    def notify(self, manager, request):
        pass


def abandoned_wait(lm, txn, resource, mode):
    with pytest.raises(LockTimeout):
        lm.acquire(txn, resource, mode)


class TestOnlyWaitingHeads:
    """Deadlock handling looks only at heads with waiters; it must see the
    same queues a walk over the whole lock table would."""

    def test_graph_includes_conversion_waiters(self):
        lm = LockManager(wait_strategy=_Abandon())
        lm.acquire("a", R1, S)
        lm.acquire("b", R1, S)
        lm.acquire("c", R2, X)
        abandoned_wait(lm, "a", R1, X)  # a conversion, queued first
        abandoned_wait(lm, "b", R2, S)
        assert lm.build_waits_for() == {"a": {"b"}, "b": {"c"}}

    def test_waiters_listed_in_head_creation_order(self):
        lm = LockManager(wait_strategy=_Abandon())
        lm.acquire("a", R1, X)
        lm.acquire("a", R2, X)
        abandoned_wait(lm, "b", R2, S)
        abandoned_wait(lm, "c", R1, S)
        assert [r.txn_id for r in lm.waiting_requests()] == ["c", "b"]

    def test_victim_abort_reexamines_every_queue(self):
        """A new request never overtakes a queue, but queue processing lets
        a plain request pass a blocked conversion.  On ``H`` that leaves
        ``t10``'s IX grantable yet queued; breaking a deadlock elsewhere
        must grant it, as it did when the abort walked every head."""
        H = ResourceId.leaf(18)
        IX = LockMode.IX
        lm = LockManager(wait_strategy=_Abandon())
        lm.acquire("t5", H, IX)
        lm.acquire("t15", H, IX)
        lm.acquire("t10", R2, X)
        abandoned_wait(lm, "t15", H, S)  # conversion, blocked by t5's IX
        abandoned_wait(lm, "t10", H, IX)  # queued behind it, grantable
        assert "t10" not in lm.holders(H)
        # t5 -> t10 (R2) -> t15 (H) -> t5 (H): t5 waited last, so it is
        # the youngest and the victim; its only request is on R2.
        with pytest.raises(DeadlockError):
            lm.acquire("t5", R2, X)
        assert lm.holders(H) == {"t5": IX, "t15": IX, "t10": IX}
        assert [(r.txn_id, r.resource) for r in lm.waiting_requests()] == [("t15", H)]
        for txn in ("t5", "t10", "t15"):
            lm.release_all(txn)
        assert lm.outstanding() == (0, 0)
        assert not lm._waiting
