"""Unit tests for the lock manager (single-threaded paths)."""

import time

import pytest

from repro.lock import (
    LockDuration,
    LockManager,
    LockMode,
    ResourceId,
    WouldBlock,
)
from repro.lock.manager import LockError, SingleThreadedWait

S, X, IX, IS, SIX = LockMode.S, LockMode.X, LockMode.IX, LockMode.IS, LockMode.SIX
SHORT, COMMIT = LockDuration.SHORT, LockDuration.COMMIT

R1 = ResourceId.leaf(1)
R2 = ResourceId.leaf(2)
OBJ = ResourceId.obj("o")


@pytest.fixture(params=[1, 8], ids=["stripes1", "stripes8"])
def stripes(request):
    """Inert: the lock table is no longer sharded, so both params build the
    same manager.  Kept so these test ids match the earlier 1- and 8-stripe
    runs they continue."""
    return request.param


@pytest.fixture
def lm(stripes):
    return LockManager(wait_strategy=SingleThreadedWait())


def wait_until_queued(lm, count, timeout=5.0):
    deadline = time.monotonic() + timeout
    while len(lm.waiting_requests()) < count:
        assert time.monotonic() < deadline, "waiters never queued"
        time.sleep(0.001)


class TestGrantDeny:
    def test_uncontended_grant(self, lm):
        assert lm.acquire("t1", R1, S)
        assert lm.held_mode("t1", R1) == S

    def test_compatible_modes_coexist(self, lm):
        assert lm.acquire("t1", R1, S)
        assert lm.acquire("t2", R1, S)
        assert lm.acquire("t3", R1, IS)

    def test_conflicting_conditional_denied(self, lm):
        lm.acquire("t1", R1, S)
        assert not lm.acquire("t2", R1, X, conditional=True)
        assert lm.held_mode("t2", R1) is None

    def test_conflicting_unconditional_raises_single_threaded(self, lm):
        lm.acquire("t1", R1, X)
        with pytest.raises(WouldBlock):
            lm.acquire("t2", R1, S)
        # the failed request must not linger in the queue
        assert lm.waiting_requests() == []

    def test_namespaces_are_disjoint(self, lm):
        lm.acquire("t1", ResourceId.leaf(5), X)
        assert lm.acquire("t2", ResourceId.ext(5), X)
        assert lm.acquire("t3", ResourceId.obj(5), X)


class TestConversionAndStacking:
    def test_self_conversion_s_plus_ix_is_six(self, lm):
        lm.acquire("t1", R1, S)
        lm.acquire("t1", R1, IX)
        assert lm.held_mode("t1", R1) == SIX

    def test_conversion_bypasses_other_holders_check(self, lm):
        lm.acquire("t1", R1, S)
        lm.acquire("t2", R1, S)
        # t1 upgrading to SIX conflicts with t2's S
        assert not lm.acquire("t1", R1, SIX, conditional=True)
        lm.release_all("t2")
        assert lm.acquire("t1", R1, SIX, conditional=True)

    def test_short_upgrade_falls_away_at_operation_end(self, lm):
        """The §3.3 pattern: commit S + short SIX on an external granule."""
        lm.acquire("t1", R1, S, COMMIT)
        lm.acquire("t1", R1, SIX, SHORT)
        assert lm.held_mode("t1", R1) == SIX
        assert lm.held_commit_mode("t1", R1) == S
        lm.end_operation("t1")
        assert lm.held_mode("t1", R1) == S

    def test_duplicate_acquisitions_stack(self, lm):
        lm.acquire("t1", R1, IX, COMMIT)
        lm.acquire("t1", R1, IX, COMMIT)
        lm.release("t1", R1, IX, COMMIT)
        assert lm.held_mode("t1", R1) == IX
        lm.release("t1", R1, IX, COMMIT)
        assert lm.held_mode("t1", R1) is None


class TestRelease:
    def test_release_unheld_raises(self, lm):
        with pytest.raises(LockError):
            lm.release("t1", R1, S, COMMIT)

    def test_release_wrong_mode_raises(self, lm):
        lm.acquire("t1", R1, S, COMMIT)
        with pytest.raises(LockError):
            lm.release("t1", R1, X, COMMIT)

    def test_release_all_clears_everything(self, lm):
        lm.acquire("t1", R1, S)
        lm.acquire("t1", R2, X, SHORT)
        lm.acquire("t1", OBJ, X)
        lm.release_all("t1")
        assert lm.locks_of("t1") == {}
        # resources are free again
        assert lm.acquire("t2", R1, X, conditional=True)
        assert lm.acquire("t2", R2, X, conditional=True)

    def test_end_operation_only_drops_short(self, lm):
        lm.acquire("t1", R1, IX, COMMIT)
        lm.acquire("t1", R2, IX, SHORT)
        lm.acquire("t1", OBJ, X, COMMIT)
        lm.end_operation("t1")
        held = lm.locks_of("t1")
        assert R2 not in held
        assert R1 in held and OBJ in held

    def test_release_unblocks_waiter_conditionally_visible(self, lm):
        lm.acquire("t1", R1, X)
        assert not lm.acquire("t2", R1, S, conditional=True)
        lm.release_all("t1")
        assert lm.acquire("t2", R1, S, conditional=True)


class TestIntrospection:
    def test_holders(self, lm):
        lm.acquire("t1", R1, S)
        lm.acquire("t2", R1, IS)
        assert lm.holders(R1) == {"t1": S, "t2": IS}
        assert lm.holders(R2) == {}

    def test_has_conflicting_holder(self, lm):
        lm.acquire("reader", R1, S)
        assert lm.has_conflicting_holder(R1, IX)
        assert not lm.has_conflicting_holder(R1, IS)
        assert not lm.has_conflicting_holder(R1, IX, ignore=("reader",))
        assert not lm.has_conflicting_holder(R2, X)

    def test_trace_records_grants_and_denials(self, stripes):
        lm = LockManager(wait_strategy=SingleThreadedWait(), trace=True)
        lm.acquire("t1", R1, X)
        lm.acquire("t2", R1, S, conditional=True)
        assert len(lm.trace) == 2
        assert lm.trace[0].granted and not lm.trace[1].granted
        lm.clear_trace()
        assert lm.trace == []

    def test_acquisition_counters(self, lm):
        lm.acquire("t1", R1, S)
        lm.acquire("t1", R2, IX)
        lm.acquire("t2", OBJ, X)
        assert lm.total_acquisitions() == 3
        assert lm.acquisition_counts == {"S": 1, "IX": 1, "X": 1}

    def test_fifo_fairness_new_request_waits_behind_queue(self, stripes):
        """A grantable new request must not overtake earlier waiters."""
        import threading

        lm = LockManager()
        lm.acquire("t1", R1, S)
        order = []

        def want_x():
            lm.acquire("t2", R1, X)  # queued behind t1's S
            order.append("t2")
            lm.release_all("t2")

        thread = threading.Thread(target=want_x)
        thread.start()
        # wait until t2 is queued
        for _ in range(1000):
            if lm.waiting_requests():
                break
        # t3's S would be compatible with t1's S but must not jump t2
        assert not lm.acquire("t3", R1, S, conditional=True)
        lm.release_all("t1")
        thread.join(timeout=5)
        assert order == ["t2"]


class TestReleaseAllFastPath:
    """``release_all`` drops grants on heads nobody waits on directly and
    sends only heads with waiters through queue processing."""

    def test_uncontended_heads_keep_no_grant(self, lm):
        resources = [ResourceId.leaf(k) for k in (10, 2, 33, 4)] + [OBJ]
        for resource in resources:
            lm.acquire("t1", resource, S)
            lm.acquire("t1", resource, IX, SHORT)
        shared = resources[0]
        lm.acquire("t2", shared, IS)
        lm.release_all("t1")
        assert lm.locks_of("t1") == {}
        for resource in resources:
            assert "t1" not in lm._heads[resource].granted
        assert lm.holders(shared) == {"t2": IS}
        assert all(lm.holders(resource) == {} for resource in resources[1:])
        assert lm.acquire("t3", resources[1], X, conditional=True)

    def test_waiters_wake_in_canonical_order(self, stripes):
        import threading

        from repro.lock.manager import _resource_order

        granted = []

        def observe(event, request):
            if event == "grant":
                granted.append(request.resource)

        lm = LockManager(wait_observer=observe)
        contended = [
            ResourceId.leaf(10),
            ResourceId.ext(2),
            ResourceId.obj(33),
            ResourceId.leaf(4),
            ResourceId.ext(21),
            ResourceId.obj("a"),
        ]
        quiet = [ResourceId.leaf(7), ResourceId.ext(100)]
        for resource in contended + quiet:
            lm.acquire("holder", resource, X)

        def wait_on(resource, txn):
            lm.acquire(txn, resource, S)
            lm.release_all(txn)

        threads = [
            threading.Thread(target=wait_on, args=(resource, f"w{i}"))
            for i, resource in enumerate(contended)
        ]
        for thread in threads:
            thread.start()
        wait_until_queued(lm, len(contended))

        lm.release_all("holder")
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        # one release wakes every resource in canonical order, across
        # namespaces: (namespace, repr(key))
        assert granted == sorted(contended, key=_resource_order)
        assert [repr(r) for r in granted] == [
            "ext:2", "ext:21", "leaf:10", "leaf:4", "obj:a", "obj:33"
        ]
        assert lm.locks_of("holder") == {}
        assert lm.waiting_requests() == []


class TestThreadedWaitSharedCondition:
    """``ThreadedWait`` blocks every waiter on the manager's one condition
    variable, whatever resource it waits for."""

    def test_one_release_all_wakes_waiters_on_many_resources(self):
        import threading

        lm = LockManager()  # ThreadedWait is the default strategy
        resources = [ResourceId.leaf(k) for k in range(8)]
        for resource in resources:
            lm.acquire("holder", resource, X)
        granted = []

        def wait_on(resource, txn):
            # the long timeout only bounds a failing run: a lost wake-up
            # leaves the thread parked well past the join below
            lm.acquire(txn, resource, S, timeout=60.0)
            granted.append(txn)

        threads = [
            threading.Thread(target=wait_on, args=(resource, f"w{i}"), daemon=True)
            for i, resource in enumerate(resources)
        ]
        for thread in threads:
            thread.start()
        wait_until_queued(lm, len(resources))
        lm.release_all("holder")
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive(), "lost wake-up"
        assert sorted(granted) == sorted(f"w{i}" for i in range(len(resources)))
        assert lm.waiting_requests() == []

    def test_timeout_on_one_resource_leaves_other_waiters_queued(self):
        import threading

        from repro.lock import LockTimeout

        lm = LockManager()
        lm.acquire("holder", R1, X)
        lm.acquire("holder", R2, X)
        outcome = {}

        def patient():
            lm.acquire("patient", R2, S, timeout=10.0)
            outcome["patient"] = "granted"

        thread = threading.Thread(target=patient)
        thread.start()
        wait_until_queued(lm, 1)
        with pytest.raises(LockTimeout):
            lm.acquire("hasty", R1, S, timeout=0.05)
        # the timeout dequeued only its own request
        assert [(r.txn_id, r.resource) for r in lm.waiting_requests()] == [("patient", R2)]
        assert "patient" not in outcome
        lm.release_all("holder")
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert outcome == {"patient": "granted"}

    def test_exclusive_locks_serialise_many_threads(self):
        """More threads than cores, a short switch interval: X locks keep a
        non-atomic read-modify-write per resource exact, and no grant or
        wait is lost from the shared counters."""
        import sys
        import threading

        lm = LockManager()
        resources = [ResourceId.leaf(k) for k in range(4)]
        totals = {resource: 0 for resource in resources}
        n_threads, rounds = 8, 300
        errors = []

        def worker(tid):
            try:
                for k in range(rounds):
                    resource = resources[(tid + k) % len(resources)]
                    lm.acquire(f"t{tid}", resource, X, timeout=10.0)
                    seen = totals[resource]
                    if k % 7 == 0:
                        time.sleep(0)  # invite a switch inside the critical section
                    totals[resource] = seen + 1
                    lm.release_all(f"t{tid}")
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        assert sum(totals.values()) == n_threads * rounds
        assert lm.total_acquisitions() == n_threads * rounds
        assert lm.outstanding() == (0, 0)
