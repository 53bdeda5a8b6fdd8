"""Unit tests for the lock manager (single-threaded paths)."""

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
    """Every test runs against both the single-stripe (legacy-equivalent)
    and the default striped lock table."""
    return request.param


@pytest.fixture
def lm(stripes):
    return LockManager(wait_strategy=SingleThreadedWait(), stripes=stripes)


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

    def test_stripe_count(self, lm, stripes):
        assert lm.stripe_count == stripes

    def test_trace_records_grants_and_denials(self, stripes):
        lm = LockManager(wait_strategy=SingleThreadedWait(), trace=True, stripes=stripes)
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

        lm = LockManager(stripes=stripes)
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
            assert "t1" not in lm._stripe_of(resource).heads[resource].granted
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

        lm = LockManager(stripes=stripes, wait_observer=observe)
        contended = [ResourceId.leaf(k) for k in (10, 2, 33, 4, 21)]
        quiet = [ResourceId.leaf(k) for k in (7, 100)]
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
        for _ in range(10_000):
            if len(lm.waiting_requests()) == len(contended):
                break
            threading.Event().wait(0.001)
        assert len(lm.waiting_requests()) == len(contended)

        lm.release_all("holder")
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        # stripes in index order; within a stripe, canonical resource order
        assert granted == sorted(
            contended, key=lambda r: (lm._stripe_of(r).index, _resource_order(r))
        )
        if stripes == 1:
            assert [r.key for r in granted] == [10, 2, 21, 33, 4]
        assert lm.locks_of("holder") == {}
        assert lm.waiting_requests() == []
