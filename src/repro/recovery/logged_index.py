"""A phantom-protected index that writes a logical WAL.

Thin wrapper: every successful operation appends its record *before*
returning to the caller (write-ahead), and commit appends-then-flushes
(commit is durable exactly when its record is).  Aborts are logged too,
so analysis can distinguish an explicit rollback from a crash loser --
both recover identically (their effects are not replayed).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.index import DeleteResult, InsertResult, ScanResult, SingleResult
from repro.core.index import PhantomProtectedRTree
from repro.geometry import Rect
from repro.recovery.log import LogRecordType, WriteAheadLog
from repro.rtree.entry import ObjectId
from repro.txn import Transaction


class LoggedIndex(PhantomProtectedRTree):
    """PhantomProtectedRTree + write-ahead logging."""

    def __init__(self, *args: Any, log: Optional[WriteAheadLog] = None, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.log = log if log is not None else WriteAheadLog()

    # -- transaction boundaries ---------------------------------------------

    def begin(self, name: Optional[str] = None) -> Transaction:
        txn = super().begin(name)
        self.log.append(LogRecordType.BEGIN, txn.txn_id)
        return txn

    def commit(self, txn: Transaction) -> None:
        # Durable before the locks go: once ``super().commit`` releases
        # them, another transaction may read this one's writes and commit;
        # a crash between the two must not keep that reader and lose this
        # writer.
        self.txn_manager._check_active(txn)
        self.log.append(LogRecordType.COMMIT, txn.txn_id)
        self.log.flush()  # commit is durable when its record is
        super().commit(txn)

    def abort(self, txn: Transaction, reason: str = "explicit abort") -> None:
        super().abort(txn, reason)
        self.log.append(LogRecordType.ABORT, txn.txn_id)

    # -- logged operations ------------------------------------------------------

    def insert(
        self, txn: Transaction, oid: ObjectId, rect: Rect, payload: Any = None
    ) -> InsertResult:
        result = super().insert(txn, oid, rect, payload)
        self.log.append(LogRecordType.INSERT, txn.txn_id, oid=oid, rect=rect, payload=payload)
        return result

    def delete(self, txn: Transaction, oid: ObjectId, rect: Rect) -> DeleteResult:
        result = super().delete(txn, oid, rect)
        if result.found:
            self.log.append(LogRecordType.DELETE, txn.txn_id, oid=oid, rect=rect)
        return result

    def update_single(
        self, txn: Transaction, oid: ObjectId, rect: Rect, payload: Any
    ) -> SingleResult:
        old = self.payloads.get(oid)
        result = super().update_single(txn, oid, rect, payload)
        if result.found:
            self.log.append(
                LogRecordType.UPDATE, txn.txn_id, oid=oid, rect=rect,
                payload=payload, old_payload=old,
            )
        return result

    def update_scan(
        self,
        txn: Transaction,
        predicate: Rect,
        update: Callable[[ObjectId, Rect, Any], Any],
    ) -> ScanResult:
        old_values: Dict[ObjectId, Any] = {}

        def capture_old(oid: ObjectId, rect: Rect, old: Any) -> Any:
            old_values[oid] = old
            return update(oid, rect, old)

        result = super().update_scan(txn, predicate, capture_old)
        for oid, rect, new in result.matches:
            self.log.append(
                LogRecordType.UPDATE, txn.txn_id, oid=oid, rect=rect,
                payload=new, old_payload=old_values[oid],
            )
        return result

    # -- savepoints ----------------------------------------------------------

    def _compensate_rollback(self, txn: Transaction, undone) -> None:
        """Partial rollback must be visible in the log too: append
        compensation records for the undone suffix so recovery replays the
        transaction to its post-rollback state, not its high-water mark."""
        from repro.concurrency.history import OpKind

        for kind, oid, rect, old in reversed(undone):
            if kind is OpKind.INSERT:
                self.log.append(LogRecordType.DELETE, txn.txn_id, oid=oid, rect=rect)
            elif kind is OpKind.DELETE:
                # the tombstone was cleared; the object (and its payload,
                # still present -- deletes are logical) is back
                self.log.append(
                    LogRecordType.INSERT, txn.txn_id, oid=oid, rect=rect,
                    payload=self.payloads.get(oid),
                )
            elif kind is OpKind.UPDATE_SINGLE:
                self.log.append(
                    LogRecordType.UPDATE, txn.txn_id, oid=oid, rect=rect, payload=old
                )
