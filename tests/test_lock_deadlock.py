"""Unit tests for deadlock detection and victim selection (threaded mode)."""

import threading
import time

import pytest

from repro.lock import DeadlockError, LockManager, LockMode, ResourceId

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
        from repro.lock import LockTimeout

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
