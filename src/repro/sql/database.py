"""The live SQL database object (Section 4.4).

This is the server-side DB: it executes statements against the current-state
:class:`~repro.sql.engine.Engine`, enforces the paper's two restrictions —

* **strict serializability**: the object admits one transaction at a time; a
  request that issues any DB operation while another request holds the
  object blocks until release (the simulated executor parks it);
* **no nesting**: a multi-statement transaction cannot enclose other object
  operations (enforced by the interpreter, checked here as well);

— and performs OROCHI's logging discipline: every auto-commit statement or
whole transaction receives a **global sequence number** at admission (the
MySQL-patch analog), and each connection appends ``(seq, record)`` pairs to
a per-connection **sub-log**; :meth:`stitch_log` is the "stitching daemon"
that merges sub-logs into the database's operation log ``OL_db`` (§4.7).

Transactions roll back via lazy table snapshots.  The executor may inject a
commit-time abort (``abort_hook``) to model the DB's discretion over
transaction aborts (§4.6); the program then observes a failed commit, and
the log records ``succeeded=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

from repro.common.errors import SqlError
from repro.objects.base import OpRecord, OpType, StateObject
from repro.sql.ast import Begin, Commit, CreateTable, Rollback, is_write
from repro.sql.engine import Engine, StmtResult, Table
from repro.sql.parser import parse_script, parse_sql

AbortHook = Callable[[str, tuple[str, ...]], bool]


@dataclass
class _OpenTransaction:
    rid: str
    opnum: int
    seq: int
    queries: list[str] = field(default_factory=list)
    saved_tables: dict[str, Table] = field(default_factory=dict)


class Database(StateObject):
    """Live lockable, logging SQL database."""

    def __init__(self, name: str, engine: Engine | None = None):
        super().__init__(name)
        self.engine = engine or Engine()
        self._seq = 0
        #: The request whose open transaction holds the object, if any.
        self.owner: str | None = None
        self._open_tx: _OpenTransaction | None = None
        self.sub_logs: dict[str, list[tuple[int, OpRecord]]] = {}
        self.abort_hook: AbortHook | None = None

    # -- setup (pre-epoch, not logged) -------------------------------------

    def setup(self, script: str) -> None:
        """Run schema/seed statements before the audited epoch begins.

        These form the initial state that the verifier keeps a copy of
        (Section 4.1, "Persistent objects"); they are not logged.
        """
        for stmt in parse_script(script):
            self.engine.execute(stmt)

    def initial_snapshot(self) -> Engine:
        """Deep copy of the current state; call at epoch start."""
        return self.engine.deep_copy()

    # -- admission / blocking ----------------------------------------------

    def would_block(self, rid: str) -> bool:
        """True if an operation from ``rid`` cannot be admitted now."""
        return self.owner is not None and self.owner != rid

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _record(self, rid: str, seq: int, record: OpRecord) -> None:
        self.sub_logs.setdefault(rid, []).append((seq, record))

    # -- operations ----------------------------------------------------------

    def execute(self, rid: str, opnum: int, sql: str) -> StmtResult:
        """Run one statement; auto-commits unless ``rid`` has an open tx.

        ``opnum`` is the per-request operation number assigned by the
        recording library; for statements inside an open transaction it must
        equal the transaction's opnum (one transaction = one operation).
        """
        if self.would_block(rid):
            raise SqlError(
                f"request {rid} would block on {self.name}; the executor "
                "must park it instead of calling execute"
            )
        stmt = parse_sql(sql)
        if isinstance(stmt, (Begin, Commit, Rollback)):
            raise SqlError(
                "use begin()/commit()/rollback() for transaction control"
            )
        if isinstance(stmt, CreateTable):
            raise SqlError("DDL is not allowed during the audited epoch")
        if self._open_tx is not None:
            tx = self._open_tx
            if tx.rid != rid:  # pragma: no cover - guarded by would_block
                raise SqlError("transaction lock violated")
            if opnum != tx.opnum:
                raise SqlError(
                    "a transaction is a single operation; opnum must not "
                    "advance inside it"
                )
            if is_write(stmt) and stmt.table not in tx.saved_tables:
                table = self.engine.tables.get(stmt.table)
                if table is not None:
                    tx.saved_tables[stmt.table] = table.clone()
            tx.queries.append(sql)
            return self.engine.execute(stmt)
        # Auto-commit path: the statement is a complete operation.
        seq = self._next_seq()
        result = self.engine.execute(stmt)
        record = OpRecord(rid, opnum, OpType.DB_OP, ((sql,), True))
        self._record(rid, seq, record)
        return result

    def begin(self, rid: str, opnum: int) -> None:
        """Open a transaction; acquires the object."""
        if self.would_block(rid):
            raise SqlError(
                f"request {rid} would block on {self.name}; the executor "
                "must park it instead of calling begin"
            )
        if self._open_tx is not None:
            raise SqlError(f"request {rid} already holds a transaction")
        self.owner = rid
        self._open_tx = _OpenTransaction(rid, opnum, self._next_seq())

    def commit(self, rid: str) -> bool:
        """Close the open transaction.  Returns False if it aborted.

        The executor's ``abort_hook`` may force an abort (DB discretion,
        §4.6); the program sees the returned flag.
        """
        tx = self._require_tx(rid)
        queries = tuple(tx.queries) + ("COMMIT",)
        aborted = bool(self.abort_hook and self.abort_hook(rid, queries))
        if aborted:
            self._rollback_engine(tx)
        record = OpRecord(rid, tx.opnum, OpType.DB_OP, (queries, not aborted))
        self._record(rid, tx.seq, record)
        self._release()
        return not aborted

    def rollback(self, rid: str) -> None:
        """Program-initiated abort."""
        tx = self._require_tx(rid)
        self._rollback_engine(tx)
        queries = tuple(tx.queries) + ("ROLLBACK",)
        record = OpRecord(rid, tx.opnum, OpType.DB_OP, (queries, False))
        self._record(rid, tx.seq, record)
        self._release()

    def in_transaction(self, rid: str) -> bool:
        return self._open_tx is not None and self._open_tx.rid == rid

    def _require_tx(self, rid: str) -> _OpenTransaction:
        if self._open_tx is None or self._open_tx.rid != rid:
            raise SqlError(f"request {rid} has no open transaction")
        return self._open_tx

    def _rollback_engine(self, tx: _OpenTransaction) -> None:
        # The snapshots are this transaction's own clones and the
        # transaction is dropped with them: install them as they are.
        self.engine.tables.update(tx.saved_tables)

    def _release(self) -> None:
        self.owner = None
        self._open_tx = None

    # -- log stitching (§4.7) ------------------------------------------------

    def stitch_log(self) -> list[OpRecord]:
        """Merge per-connection sub-logs into ``OL_db``, ordered by the
        global sequence number (the "stitching daemon")."""
        merged: list[tuple[int, OpRecord]] = []
        for entries in self.sub_logs.values():
            merged.extend(entries)
        merged.sort(key=lambda pair: pair[0])
        return [record for _, record in merged]

    # -- StateObject interface -------------------------------------------

    def snapshot(self) -> object:
        return self.engine.snapshot()

    def restore(self, snap: object) -> None:
        self.engine.restore(snap)  # type: ignore[arg-type]
