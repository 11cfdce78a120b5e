"""Audit-time versioned database (Sections 4.5, A.7).

Requirement (§A.7): with ``s = ts // MAXQ`` and ``q = ts % MAXQ``, the
result of ``db.do_query(sql, ts)`` must equal: replay transactions
``OL[1..s-1]``, then queries ``1..q-1`` of transaction ``s``, then issue
``sql``.  We meet it with Warp-style row versioning: every logical row
carries a chain of versions with ``[start_ts, end_ts)`` validity intervals;
a query at ``ts`` sees versions with ``start_ts <= ts < end_ts``.

:meth:`build` is the **versioned redo pass**: it replays every logged
transaction in log order, stamping writes with ``ts = s*MAXQ + q`` and
recording each write statement's :class:`StmtResult` so that re-execution
can return the same insert-ids/affected-counts the server returned online.
Aborted transactions (program ROLLBACK, or executor-injected abort — the
``succeeded`` flag, §4.6) are applied tentatively and undone at the
transaction's closing timestamp, so the transaction's *own* reads still see
its tentative writes while later readers do not.

The per-table sorted list of write timestamps (:meth:`writes_between`) is
the index read-query deduplication uses (§4.5).

In the paper the redo pass runs against an in-memory buffer ``M`` (SQLite)
and migrates to the audit store ``V``; here the versioned store is itself
in memory, and :meth:`latest_engine` / :meth:`migration_statements`
implement the migration/compaction step — after the audit the verifier
keeps only the latest state (§5.1).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from repro.common.errors import AuditReject, RejectReason, SqlError
from repro.objects.base import OpRecord, OpType
from repro.sql.ast import (
    CreateTable,
    Delete,
    Expr,
    Insert,
    Select,
    Statement,
    Update,
    is_write,
)
from repro.sql.engine import (
    Engine,
    Row,
    StmtResult,
    _coerce,
    apply_order_limit,
    compile_expr,
    compile_where,
    insert_rows,
    project_rows,
)
from repro.sql.eqindex import EqualityIndex
from repro.sql.parser import parse_sql

#: Maximum queries allowed in one transaction (paper: 10000, §A.7).
MAXQ = 10000

#: "End of time" timestamp for live versions.
TS_INF = 1 << 62


@dataclass
class _Version:
    start_ts: int
    end_ts: int
    values: Row


@dataclass(eq=False)
class _LogicalRow:
    row_id: int
    versions: list[_Version] = field(default_factory=list)
    starts: list[int] = field(default_factory=list)  # parallel to versions

    def __lt__(self, other: _LogicalRow) -> bool:  # the index's order
        return self.row_id < other.row_id

    def live_at(self, ts: int) -> _Version | None:
        pos = bisect.bisect_right(self.starts, ts) - 1
        if pos < 0:
            return None
        version = self.versions[pos]
        if version.start_ts <= ts < version.end_ts:
            return version
        return None

    def add(self, version: _Version) -> None:
        if self.starts and version.start_ts < self.starts[-1]:
            raise SqlError("version starts must be non-decreasing")
        self.versions.append(version)
        self.starts.append(version.start_ts)


@dataclass
class _VTable:
    name: str
    columns: list[str]
    types: dict[str, str]
    auto_column: str | None
    auto_counter: int
    rows: dict[int, _LogicalRow] = field(default_factory=dict)
    next_row_id: int = 0
    write_ts: list[int] = field(default_factory=list)  # sorted (append-only)
    #: Every logical row under each value its versions held.
    eq_index: EqualityIndex = field(default_factory=EqualityIndex)

    def new_row(self) -> _LogicalRow:
        self.next_row_id += 1
        row = _LogicalRow(self.next_row_id)
        self.rows[self.next_row_id] = row
        return row

    def add_version(self, logical: _LogicalRow, version: _Version) -> None:
        """Append ``version`` to ``logical`` — the one way versions
        enter a table, so the one place its indexes are kept."""
        logical.add(version)
        self.eq_index.note(logical, version.values)

    def candidates(self, where: Expr | None) -> Iterable[_LogicalRow]:
        """The logical rows a scan for ``where`` must look at, in
        ``row_id`` order: all of them, or the equality index's bucket."""
        bucket = self.eq_index.probe(where, lambda: (
            (logical, version.values) for logical in self.rows.values()
            for version in logical.versions))
        return self.rows.values() if bucket is None else bucket

    def note_write(self, ts: int) -> None:
        if not self.write_ts or self.write_ts[-1] != ts:
            self.write_ts.append(ts)


@dataclass
class _TxUndo:
    """Undo information for one (possibly aborting) transaction."""

    created: list[_Version] = field(default_factory=list)
    terminated: list[tuple[_VTable, _LogicalRow, _Version, int]] = field(
        default_factory=list
    )  # (table, row, version, previous end_ts)
    saved_counters: dict[str, int] = field(default_factory=dict)


class VersionedDB:
    """Versioned store built from the initial state plus ``OL_db``."""

    def __init__(self) -> None:
        self.tables: dict[str, _VTable] = {}
        #: ts -> StmtResult for write statements, recorded during redo.
        self.results: dict[int, StmtResult] = {}
        self.redo_statements = 0
        self.skipped_reads = 0

    # -- construction --------------------------------------------------------

    def load_initial(self, engine: Engine) -> None:
        """Import the epoch-start state as versions live from ts=0."""
        for name, table in engine.tables.items():
            vtable = _VTable(
                name,
                list(table.columns),
                dict(table.types),
                table.auto_column,
                table.auto_counter,
            )
            for values in table.rows:
                vtable.add_version(
                    vtable.new_row(), _Version(0, TS_INF, dict(values))
                )
            self.tables[name] = vtable

    def build(self, log: Sequence[OpRecord]) -> None:
        """The versioned redo pass (``db.Build(OL_db)``, Figure 12 line 6)."""
        for index, record in enumerate(log):
            seq = index + 1
            if record.optype is not OpType.DB_OP:
                raise AuditReject(
                    RejectReason.VERSIONED_BUILD_FAILED,
                    f"non-DB op in DB log at position {seq}",
                )
            try:
                self._redo_transaction(seq, record)
            except SqlError as exc:
                raise AuditReject(
                    RejectReason.VERSIONED_BUILD_FAILED,
                    f"log position {seq}: {exc}",
                ) from exc

    def _redo_transaction(self, seq: int, record: OpRecord) -> None:
        contents = record.opcontents
        if len(contents) != 2 or type(contents[0]) is not tuple or set(
                map(type, contents[0])) != {str}:
            raise SqlError("malformed DBOp opcontents")
        queries, succeeded = contents
        if len(queries) > MAXQ - 1:
            raise SqlError("transaction exceeds MAXQ statements")
        marker = queries[-1] if queries[-1] in ("COMMIT", "ROLLBACK") else None
        data_queries = queries[:-1] if marker else queries
        # The succeeded flag only grants executor discretion over a
        # program-issued COMMIT; a ROLLBACK marker always aborts.
        aborted = (marker == "ROLLBACK") or not succeeded
        undo = _TxUndo()
        # Query indices are 1-based (§A.7: a query at index q sees the
        # prefix plus queries 1..q-1; index 0 denotes "before the
        # transaction").
        for q, sql in enumerate(data_queries):
            ts = seq * MAXQ + q + 1
            stmt = parse_sql(sql)
            if isinstance(stmt, Select):
                self.skipped_reads += 1
                continue
            if not is_write(stmt) or isinstance(stmt, CreateTable):
                raise SqlError(f"illegal statement in log: {sql!r}")
            self.results[ts] = self._apply_write(stmt, ts, undo)
            self.redo_statements += 1
        if aborted:
            ts_abort = seq * MAXQ + len(data_queries) + 1
            self._undo(undo, ts_abort)

    # -- write application --------------------------------------------------

    def _vtable(self, name: str) -> _VTable:
        table = self.tables.get(name)
        if table is None:
            raise SqlError(f"no such table {name!r}")
        return table

    def _apply_write(
        self, stmt: Statement, ts: int, undo: _TxUndo
    ) -> StmtResult:
        if isinstance(stmt, Insert):
            return self._apply_insert(stmt, ts, undo)
        if isinstance(stmt, Update):
            return self._apply_update(stmt, ts, undo)
        if isinstance(stmt, Delete):
            return self._apply_delete(stmt, ts, undo)
        raise SqlError(f"cannot redo {type(stmt).__name__}")

    def _apply_insert(
        self, stmt: Insert, ts: int, undo: _TxUndo
    ) -> StmtResult:
        table = self._vtable(stmt.table)
        if table.name not in undo.saved_counters:
            undo.saved_counters[table.name] = table.auto_counter
        last_id: int | None = None
        for row_values, last_id in insert_rows(table, stmt):
            version = _Version(ts, TS_INF, row_values)
            table.add_version(table.new_row(), version)
            undo.created.append(version)
        table.note_write(ts)
        return StmtResult(affected=len(stmt.values), last_insert_id=last_id)

    def _apply_update(
        self, stmt: Update, ts: int, undo: _TxUndo
    ) -> StmtResult:
        table = self._vtable(stmt.table)
        affected = 0
        assignments = [
            (col, compile_expr(expr)) for col, expr in stmt.assignments
        ]
        for logical, version in self._scan(table, stmt.where, ts):
            new_values = dict(version.values)
            for col, value in assignments:
                if col not in table.types:
                    raise SqlError(
                        f"unknown column {col!r} in table {table.name!r}"
                    )
                new_values[col] = _coerce(
                    value(version.values), table.types[col], col
                )
            undo.terminated.append(
                (table, logical, version, version.end_ts))
            version.end_ts = ts
            replacement = _Version(ts, TS_INF, new_values)
            table.add_version(logical, replacement)
            undo.created.append(replacement)
            affected += 1
        table.note_write(ts)
        return StmtResult(affected=affected)

    def _apply_delete(
        self, stmt: Delete, ts: int, undo: _TxUndo
    ) -> StmtResult:
        table = self._vtable(stmt.table)
        affected = 0
        for logical, version in self._scan(table, stmt.where, ts):
            undo.terminated.append(
                (table, logical, version, version.end_ts))
            version.end_ts = ts
            affected += 1
        table.note_write(ts)
        return StmtResult(affected=affected)

    def _undo(self, undo: _TxUndo, ts_abort: int) -> None:
        """Roll a tentative transaction back at ``ts_abort``.

        Versions the transaction created stop being visible at ``ts_abort``;
        versions it terminated are re-instated by a clone valid from
        ``ts_abort`` (version intervals must stay contiguous per row).
        """
        created_ids = {id(version) for version in undo.created}
        for version in undo.created:
            version.end_ts = min(version.end_ts, ts_abort)
        for table, logical, version, old_end in undo.terminated:
            if id(version) in created_ids:
                # Created and then overwritten/deleted by the same tx:
                # already capped above; nothing to re-instate.
                continue
            table.add_version(
                logical, _Version(ts_abort, old_end, dict(version.values))
            )
        for name, counter in undo.saved_counters.items():
            self.tables[name].auto_counter = counter

    # -- queries --------------------------------------------------------------

    def do_query(self, sql: str, ts: int) -> StmtResult:
        """Simulate a SELECT as of timestamp ``ts`` (Figure 12, line 27)."""
        stmt = parse_sql(sql)
        if not isinstance(stmt, Select):
            raise SqlError(f"do_query expects SELECT, got {sql!r}")
        return self.do_select(stmt, ts)

    def do_select(self, stmt: Select, ts: int) -> StmtResult:
        matched = [
            version.values for _, version in
            self._scan(self._vtable(stmt.table), stmt.where, ts)
        ]
        matched = apply_order_limit(
            matched, stmt.order_by, stmt.limit, stmt.offset
        )
        return StmtResult(rows=project_rows(stmt.items, matched))

    @staticmethod
    def _scan(table: _VTable, where: Expr | None, ts: int
              ) -> list[tuple[_LogicalRow, _Version]]:
        """Every row of ``table`` with a version live at ``ts`` that
        ``where`` accepts — the one row loop under reads and redo.  The
        table's equality index may narrow which rows are looked at; the
        liveness test and the whole predicate still decide."""
        accepts = compile_where(where)
        return [
            (logical, version)
            for logical in table.candidates(where)
            if (version := logical.live_at(ts)) is not None
            and (accepts is None or accepts(version.values))
        ]

    def select_versions(
        self, stmt: Select | str, ts: int
    ) -> list[tuple[Row, int]]:
        """Like :meth:`do_select`, but returns the matched versions'
        **full row values paired with their start timestamps**, in the
        statement's order/limit order and before projection.

        ``start_ts // MAXQ`` is the log sequence of the transaction
        that wrote the version (0 for epoch-initial rows), which is
        what the forensic lineage pass uses to attribute every row a
        SELECT observed to the request that produced it.
        """
        if isinstance(stmt, str):
            parsed = parse_sql(stmt)
            if not isinstance(parsed, Select):
                raise SqlError(
                    f"select_versions expects SELECT, got {stmt!r}"
                )
            stmt = parsed
        versions = self._scan(self._vtable(stmt.table), stmt.where, ts)
        # Version value dicts are distinct objects, so identity survives
        # apply_order_limit's reordering.
        starts = {id(version.values): version.start_ts
                  for _, version in versions}
        matched = apply_order_limit(
            [version.values for _, version in versions],
            stmt.order_by, stmt.limit, stmt.offset,
        )
        return [(dict(row), starts[id(row)]) for row in matched]

    def result_at(self, ts: int) -> StmtResult:
        """Redo-recorded result of the write statement stamped ``ts``."""
        result = self.results.get(ts)
        if result is None:
            raise AuditReject(
                RejectReason.OP_MISMATCH,
                f"no redo result recorded at ts={ts}; program issued a "
                "write the log does not contain",
            )
        return result

    # -- dedup support (§4.5) -------------------------------------------------

    def writes_between(self, table: str, ts_low: int, ts_high: int) -> bool:
        """True if ``table`` was modified at any ts in (ts_low, ts_high]."""
        vtable = self.tables.get(table)
        if vtable is None:
            return False
        left = bisect.bisect_right(vtable.write_ts, ts_low)
        right = bisect.bisect_right(vtable.write_ts, ts_high)
        return right > left

    # -- migration (post-audit compaction, §4.5/§5.1) --------------------------

    def latest_engine(self) -> Engine:
        """The compacted latest state; the verifier keeps this between
        audits and it becomes the next epoch's initial state."""
        engine = Engine()
        for name, vtable in self.tables.items():
            table_rows: list[Row] = []
            for logical in vtable.rows.values():
                version = logical.live_at(TS_INF - 1)
                if version is not None:
                    table_rows.append(dict(version.values))
            from repro.sql.engine import Table  # local to avoid cycle at top

            engine.tables[name] = Table(
                name,
                list(vtable.columns),
                dict(vtable.types),
                None,
                vtable.auto_column,
                vtable.auto_counter,
                table_rows,
            )
        return engine

    def migration_statements(self) -> list[str]:
        """One bulk INSERT per table that reproduces the latest state when
        issued against an empty schema (the §4.5 migration dump)."""
        statements: list[str] = []
        engine = self.latest_engine()
        for name, table in engine.tables.items():
            if not table.rows:
                continue
            column_list = ", ".join(table.columns)
            tuples = []
            for row in table.rows:
                rendered = ", ".join(
                    _render_sql_value(row.get(col)) for col in table.columns
                )
                tuples.append(f"({rendered})")
            statements.append(
                f"INSERT INTO {name} ({column_list}) VALUES "
                + ", ".join(tuples)
            )
        return statements

    def version_count(self) -> int:
        return sum(
            len(logical.versions)
            for table in self.tables.values()
            for logical in table.rows.values()
        )

    def size_bytes(self) -> int:
        """Rough on-disk size of the versioned store (Figure 8, "temp" DB
        overhead): every version's payload plus two timestamps."""
        total = 0
        for table in self.tables.values():
            for logical in table.rows.values():
                for version in logical.versions:
                    total += 16  # start_ts, end_ts
                    for value in version.values.values():
                        if isinstance(value, str):
                            total += len(value)
                        else:
                            total += 8
        return total


def _render_sql_value(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, float)):
        return str(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"
