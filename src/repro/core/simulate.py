"""Simulate-and-check (Sections 3.3, 4.5; Figure 12 lines 10-28, §A.7).

:class:`SimContext` holds everything re-execution consults: the untrusted
logs and OpMap, the audit-time versioned stores, and the trusted initial
state.  :class:`OpHandler` applies CheckOp/SimOp for one request's
operation stream — it is shared verbatim by the grouped (SIMD) driver,
which holds one handler per request in the group, and the out-of-order
driver, which holds one.

Semantics implemented here:

* **CheckOp** (Figure 12 lines 10-15): the operation's (rid, opnum) must be
  in the OpMap, target the same object, and carry the same optype and
  program-generated opcontents as the log entry.
* **SimOp for registers**: the latest RegisterWrite before the op's
  position (a list of each log's running latest write, made once); if
  none exists, fall back to the trusted initial state (strict mode
  rejects instead, which is the paper's literal SimOp — SSCO does not
  model pre-trace state).
* **SimOp for KV / DB**: versioned stores built at audit start (§4.5),
  with read-query dedup for SELECTs when a group cache is installed.
* **DB transactions** (§A.7): a transaction is one operation; its queries
  are checked one at a time against the log entry's query list, with
  version timestamps ``ts = s*MAXQ + q``; the commit/rollback marker and
  the executor's abort discretion (the ``succeeded`` flag, §4.6) are
  resolved at transaction close.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

from repro.common.errors import AuditReject, RejectReason
from repro.core.dedup import QueryDedup
from repro.core.opmap import OpMap
from repro.objects.base import OpRecord, OpType
from repro.objects.versioned_kv import VersionedKV
from repro.server.app import Application, InitialState
from repro.server.reports import NondetRecord, Reports
from repro.sql.ast import Select
from repro.sql.engine import StmtResult
from repro.sql.parser import parse_sql
from repro.sql.versioned import MAXQ, VersionedDB

_INTENT_OPTYPE = {
    "register_read": OpType.REGISTER_READ,
    "register_write": OpType.REGISTER_WRITE,
    "kv_get": OpType.KV_GET,
    "kv_set": OpType.KV_SET,
}


#: What :func:`_latest_writes` holds before a log's first write.
_UNWRITTEN = object()


def _latest_writes(log: list[OpRecord]) -> list:
    """The value of the latest ``RegisterWrite`` at or before each
    position of ``log`` (:data:`_UNWRITTEN` before the first)."""
    latest, value = [], _UNWRITTEN
    for record in log:
        if record.optype is OpType.REGISTER_WRITE:
            value = record.opcontents[0]
        latest.append(value)
    return latest


class SimContext:
    """Audit-wide simulation state (logs, OpMap, versioned stores)."""

    def __init__(
        self,
        app: Application,
        reports: Reports,
        opmap: OpMap,
        initial_state: InitialState,
        strict_registers: bool = False,
    ):
        self.app = app
        self.reports = reports
        self.op_logs = reports.op_logs
        self.opmap = opmap
        self.op_counts = reports.op_counts
        self.initial = initial_state
        self.strict_registers = strict_registers
        self.vkv: dict[str, VersionedKV] = {}
        self.vdb: dict[str, VersionedDB] = {}
        #: Installed by the group driver for the duration of one group.
        self.dedup: QueryDedup | None = None
        #: The rids grouped under an ``error:`` tag; the group driver
        #: fills it in the first time a group diverges.
        self.error_rids: frozenset | None = None
        #: rid -> outbound externals regenerated during re-execution
        #: (the §5.5 extension; compared against the trace's EXTERNAL
        #: events by the verifier).
        self.produced_externals: dict[str, list] = {}
        # Instrumentation (Figure 9's "DB query" bar; §5.2 dedup stats).
        self.db_query_seconds = 0.0
        self.db_queries_issued = 0
        self.dedup_hits = 0
        self.dedup_misses = 0
        #: Register -> the value of its latest write at each position of
        #: its log (:func:`_latest_writes`), made on its first read.
        self._latest: dict[str, list] = {}

    # -- construction of versioned stores (the "DB redo" phase) -----------

    def build_versioned_stores(self) -> None:
        """kv.Build / db.Build (Figure 12, lines 5-6)."""
        app = self.app
        kv_log = self.op_logs.get(app.kv_name, [])
        vkv = VersionedKV()
        self._seed_kv_initial(vkv)
        vkv.build(kv_log)
        self.vkv[app.kv_name] = vkv

        db_log = self.op_logs.get(app.db_name, [])
        vdb = VersionedDB()
        vdb.load_initial(self.initial.db_engine)
        vdb.build(db_log)
        self.vdb[app.db_name] = vdb

    def _seed_kv_initial(self, vkv: VersionedKV) -> None:
        """Initial KV contents behave as writes at sequence 0."""
        for key, value in self.initial.kv.items():
            vkv._seqs.setdefault(key, []).insert(0, 0)
            vkv._values.setdefault(key, []).insert(0, value)

    # -- CheckOp -------------------------------------------------------------

    def lookup_op(self, rid: str, opnum: int) -> tuple[str, int, OpRecord]:
        entry = self.opmap.get(rid, opnum)
        if entry is None:
            raise AuditReject(
                RejectReason.OP_NOT_IN_OPMAP,
                f"operation ({rid}, {opnum}) not in OpMap",
            )
        obj, seq = entry
        record = self.op_logs[obj][seq - 1]
        return obj, seq, record

    def check_op(
        self,
        rid: str,
        opnum: int,
        obj: str,
        optype: OpType,
        opcontents: tuple,
    ) -> int:
        """Figure 12, lines 10-15.  Returns the log sequence number."""
        obj_hat, seq, record = self.lookup_op(rid, opnum)
        if (
            obj != obj_hat
            or optype is not record.optype
            or opcontents != record.opcontents
        ):
            raise AuditReject(
                RejectReason.OP_MISMATCH,
                f"operation ({rid}, {opnum}): program generated "
                f"({obj}, {optype.value}, {opcontents!r}) but log has "
                f"({obj_hat}, {record.optype.value}, "
                f"{record.opcontents!r})",
            )
        return seq

    # -- SimOp ---------------------------------------------------------------

    def sim_register_read(self, obj: str, seq: int) -> object:
        """The latest write in OL_obj before ``seq`` (Figure 12, lines
        19-23), looked up in the log's running latest write, which the
        first read of ``obj`` makes."""
        latest = self._latest.get(obj)
        if latest is None:
            latest = self._latest[obj] = _latest_writes(
                self.op_logs.get(obj, []))
        if seq >= 2 and latest[seq - 2] is not _UNWRITTEN:
            return latest[seq - 2]
        # No logged write: the register's value is its epoch-start value.
        if self.strict_registers:
            if obj in self.initial.registers:
                return self.initial.registers[obj]
            raise AuditReject(
                RejectReason.NO_PRIOR_WRITE,
                f"read of register {obj} with no prior write",
            )
        return self.initial.registers.get(obj)

    def sim_kv_get(self, obj: str, key: str, seq: int) -> object:
        vkv = self.vkv.get(obj)
        if vkv is None:
            raise AuditReject(
                RejectReason.OP_MISMATCH, f"no KV store named {obj}"
            )
        return vkv.get(key, seq)

    def db_select(self, obj: str, sql: str, ts: int) -> StmtResult:
        """SELECT against the versioned DB, with optional group dedup."""
        started = _time.perf_counter()
        try:
            self.db_queries_issued += 1
            if self.dedup is not None:
                before_hits = self.dedup.hits
                result = self.dedup.select(sql, ts)
                if self.dedup.hits > before_hits:
                    self.dedup_hits += 1
                else:
                    self.dedup_misses += 1
                return result
            self.dedup_misses += 1
            return self.vdb[obj].do_query(sql, ts)
        finally:
            self.db_query_seconds += _time.perf_counter() - started

    def db_write_result(self, obj: str, ts: int) -> StmtResult:
        started = _time.perf_counter()
        try:
            return self.vdb[obj].result_at(ts)
        finally:
            self.db_query_seconds += _time.perf_counter() - started


@dataclass
class _OpenTx:
    seq: int
    queries: tuple[str, ...]
    succeeded: bool
    q: int = 0  # next query index


class OpHandler:
    """CheckOp/SimOp for one request's operation stream (Figure 12/13)."""

    def __init__(self, ctx: SimContext, rid: str):
        self.ctx = ctx
        self.rid = rid
        self.opnum = 0
        self.tx: _OpenTx | None = None

    # -- entry point ----------------------------------------------------------

    def handle(self, kind: str, obj: str, args: tuple) -> object:
        if kind == "db_statement":
            return self._db_statement(obj, args[0])
        if kind == "db_begin":
            return self._db_begin(obj)
        if kind == "db_commit":
            return self._db_close(obj, "COMMIT")
        if kind == "db_rollback":
            return self._db_close(obj, "ROLLBACK")
        optype = _INTENT_OPTYPE.get(kind)
        if optype is None:
            raise AuditReject(
                RejectReason.OP_MISMATCH, f"unknown operation kind {kind}"
            )
        self.opnum += 1
        if kind == "register_read":
            seq = self.ctx.check_op(
                self.rid, self.opnum, obj, OpType.REGISTER_READ, ()
            )
            return self.ctx.sim_register_read(obj, seq)
        if kind == "register_write":
            self.ctx.check_op(
                self.rid, self.opnum, obj, OpType.REGISTER_WRITE, args
            )
            return None
        if kind == "kv_get":
            seq = self.ctx.check_op(
                self.rid, self.opnum, obj, OpType.KV_GET, args
            )
            return self.ctx.sim_kv_get(obj, args[0], seq)
        # kv_set
        self.ctx.check_op(self.rid, self.opnum, obj, OpType.KV_SET, args)
        return None

    # -- DB operations ---------------------------------------------------------

    def _db_begin(self, obj: str) -> None:
        if self.tx is not None:
            raise AuditReject(
                RejectReason.OP_MISMATCH,
                f"request {self.rid}: nested transaction",
            )
        self.opnum += 1
        obj_hat, seq, record = self.ctx.lookup_op(self.rid, self.opnum)
        if obj_hat != obj or record.optype is not OpType.DB_OP:
            raise AuditReject(
                RejectReason.OP_MISMATCH,
                f"operation ({self.rid}, {self.opnum}): program begins a "
                f"transaction on {obj}, log has "
                f"({obj_hat}, {record.optype.value})",
            )
        queries, succeeded = record.opcontents
        if not queries or queries[-1] not in ("COMMIT", "ROLLBACK"):
            raise AuditReject(
                RejectReason.OP_MISMATCH,
                f"operation ({self.rid}, {self.opnum}): log entry is not a "
                "transaction",
            )
        self.tx = _OpenTx(seq, queries, bool(succeeded))
        return None

    def _db_statement(self, obj: str, sql: str) -> StmtResult:
        ctx = self.ctx
        if self.tx is not None:
            tx = self.tx
            if tx.q >= len(tx.queries) - 1:
                raise AuditReject(
                    RejectReason.OP_MISMATCH,
                    f"request {self.rid}: transaction issues more queries "
                    "than logged",
                )
            if sql != tx.queries[tx.q]:
                raise AuditReject(
                    RejectReason.OP_MISMATCH,
                    f"request {self.rid}: transaction query {tx.q} is "
                    f"{sql!r} but log has {tx.queries[tx.q]!r}",
                )
            ts = tx.seq * MAXQ + tx.q + 1  # 1-based query index (§A.7)
            tx.q += 1
            return self._db_result(obj, sql, ts)
        # Auto-commit single statement: one whole operation.
        self.opnum += 1
        seq = ctx.check_op(
            self.rid, self.opnum, obj, OpType.DB_OP, ((sql,), True)
        )
        return self._db_result(obj, sql, seq * MAXQ + 1)

    def _db_result(self, obj: str, sql: str, ts: int) -> StmtResult:
        stmt = parse_sql(sql)
        if isinstance(stmt, Select):
            return self.ctx.db_select(obj, sql, ts)
        return self.ctx.db_write_result(obj, ts)

    def _db_close(self, obj: str, marker: str) -> bool:
        tx = self.tx
        if tx is None:
            raise AuditReject(
                RejectReason.OP_MISMATCH,
                f"request {self.rid}: {marker} without a transaction",
            )
        if tx.q != len(tx.queries) - 1 or tx.queries[-1] != marker:
            raise AuditReject(
                RejectReason.OP_MISMATCH,
                f"request {self.rid}: transaction closed with {marker} "
                f"after {tx.q} queries, log has {len(tx.queries) - 1} "
                f"queries ending with {tx.queries[-1]!r}",
            )
        if marker == "ROLLBACK" and tx.succeeded:
            raise AuditReject(
                RejectReason.OP_MISMATCH,
                f"request {self.rid}: log marks a rolled-back transaction "
                "as succeeded",
            )
        self.tx = None
        # For COMMIT, the executor has discretion over aborts (§4.6): the
        # program observes the logged outcome.
        return tx.succeeded

    # -- completion -----------------------------------------------------------

    def finish(self) -> None:
        """Figure 12, line 51: the request must have issued all claimed
        operations (opnum > M is impossible — CheckOp would have failed)."""
        if self.tx is not None:
            raise AuditReject(
                RejectReason.OP_MISMATCH,
                f"request {self.rid}: ended with an open transaction",
            )
        claimed = self.ctx.op_counts.get(self.rid, 0)
        if self.opnum < claimed:
            raise AuditReject(
                RejectReason.OP_COUNT_TOO_LOW,
                f"request {self.rid}: issued {self.opnum} operations, "
                f"M claims {claimed}",
            )

    def finish_error(self) -> None:
        """The re-executed program raised (the deterministic 500 path).

        Online, the executor rolled back any open transaction; the log must
        therefore show this transaction closed by ROLLBACK right after the
        queries the program issued.
        """
        tx = self.tx
        if tx is not None:
            if (
                tx.q != len(tx.queries) - 1
                or tx.queries[-1] != "ROLLBACK"
                or tx.succeeded
            ):
                raise AuditReject(
                    RejectReason.OP_MISMATCH,
                    f"request {self.rid}: errored mid-transaction but the "
                    "log does not show the matching rollback",
                )
            self.tx = None
        claimed = self.ctx.op_counts.get(self.rid, 0)
        if self.opnum < claimed:
            raise AuditReject(
                RejectReason.OP_COUNT_TOO_LOW,
                f"request {self.rid}: errored after {self.opnum} "
                f"operations, M claims {claimed}",
            )


class NondetCursor:
    """Feeds recorded non-determinism to a re-executed request (§4.6)."""

    def __init__(self, rid: str, records: list[NondetRecord]):
        self.rid = rid
        self.records = records
        self.position = 0

    def next(self, func: str, args: tuple) -> object:
        if self.position >= len(self.records):
            raise AuditReject(
                RejectReason.NONDET_MISSING,
                f"request {self.rid}: {func}() call #{self.position + 1} "
                "has no recorded value",
            )
        record = self.records[self.position]
        self.position += 1
        if record.func != func or record.args != args:
            raise AuditReject(
                RejectReason.NONDET_IMPLAUSIBLE,
                f"request {self.rid}: program called {func}{args!r}, "
                f"report recorded {record.func}{record.args!r}",
            )
        return record.value
