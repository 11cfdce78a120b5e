"""Simulate-and-check unit tests: CheckOp, SimOp, transactions (§3.3, §A.7)."""

from __future__ import annotations

import pytest

from repro.common.errors import AuditReject, RejectReason
from repro.core.process_reports import check_logs
from repro.core.simulate import NondetCursor, OpHandler, SimContext
from repro.objects.base import OpRecord, OpType
from repro.server.app import Application, InitialState
from repro.server.reports import NondetRecord, Reports
from repro.sql.engine import Engine
from repro.trace.events import Event, Request, Response
from repro.trace.trace import Trace


def _app():
    return Application.from_sources("t", {"s.php": "echo 1;"})


def _ctx(op_logs, op_counts, registers=None, db_setup=None,
         strict_registers=False, nondet=None):
    trace = Trace()
    rids = sorted(op_counts)
    time = 0.0
    for rid in rids:
        time += 1
        trace.append(Event.request(Request(rid, "s.php"), time))
    for rid in rids:
        time += 1
        trace.append(Event.response(Response(rid, ""), time))
    reports = Reports(groups={}, op_logs=op_logs, op_counts=op_counts,
                      nondet=nondet or {})
    opmap = check_logs(trace, reports)
    engine = Engine()
    if db_setup:
        from repro.sql.parser import parse_script

        for stmt in parse_script(db_setup):
            engine.execute(stmt)
    ctx = SimContext(_app(), reports, opmap,
                     InitialState(engine, {}, registers or {}),
                     strict_registers=strict_registers)
    ctx.build_versioned_stores()
    return ctx


# -- registers ---------------------------------------------------------------


def test_register_read_sees_latest_write():
    log = [
        OpRecord("r1", 1, OpType.REGISTER_WRITE, (10,)),
        OpRecord("r2", 1, OpType.REGISTER_WRITE, (20,)),
        OpRecord("r3", 1, OpType.REGISTER_READ, ()),
    ]
    ctx = _ctx({"reg:g:A": log}, {"r1": 1, "r2": 1, "r3": 1})
    handler = OpHandler(ctx, "r3")
    assert handler.handle("register_read", "reg:g:A", ()) == 20


def test_register_read_walks_past_reads():
    log = [
        OpRecord("r1", 1, OpType.REGISTER_WRITE, (10,)),
        OpRecord("r2", 1, OpType.REGISTER_READ, ()),
        OpRecord("r3", 1, OpType.REGISTER_READ, ()),
    ]
    ctx = _ctx({"reg:g:A": log}, {"r1": 1, "r2": 1, "r3": 1})
    handler = OpHandler(ctx, "r3")
    assert handler.handle("register_read", "reg:g:A", ()) == 10


def test_register_read_without_write_uses_initial_state():
    log = [OpRecord("r1", 1, OpType.REGISTER_READ, ())]
    ctx = _ctx({"reg:g:A": log}, {"r1": 1}, registers={"reg:g:A": 7})
    handler = OpHandler(ctx, "r1")
    assert handler.handle("register_read", "reg:g:A", ()) == 7


def test_register_read_fresh_register_returns_none():
    log = [OpRecord("r1", 1, OpType.REGISTER_READ, ())]
    ctx = _ctx({"reg:g:A": log}, {"r1": 1})
    handler = OpHandler(ctx, "r1")
    assert handler.handle("register_read", "reg:g:A", ()) is None


def test_strict_registers_reject_unseeded_read():
    """The paper's literal SimOp (Figure 12 line 22)."""
    log = [OpRecord("r1", 1, OpType.REGISTER_READ, ())]
    ctx = _ctx({"reg:g:A": log}, {"r1": 1}, strict_registers=True)
    handler = OpHandler(ctx, "r1")
    with pytest.raises(AuditReject) as exc:
        handler.handle("register_read", "reg:g:A", ())
    assert exc.value.reason is RejectReason.NO_PRIOR_WRITE


@pytest.mark.parametrize("strict", [False, True])
def test_register_read_long_after_its_write(strict):
    """A read hundreds of records after the write it sees, and reads in
    every stretch of a log, each as the backward walk finds it; in
    strict mode the reads before the first write still reject."""
    kinds = ["r"] * 3 + ["w"] + ["r"] * 400 + ["w", "w"] + ["r"] * 50
    log = [OpRecord(f"r{i}", 1, OpType.REGISTER_WRITE if kind == "w"
                    else OpType.REGISTER_READ, (i,) if kind == "w" else ())
           for i, kind in enumerate(kinds)]
    ctx = _ctx({"reg:g:A": log}, {f"r{i}": 1 for i in range(len(log))},
               registers={"reg:g:B": 1}, strict_registers=strict)
    for position in (0, 2, 4, 5, 403, 406, len(log) - 1):
        handler = OpHandler(ctx, f"r{position}")
        walked = next((record.opcontents[0]
                       for record in reversed(log[:position])
                       if record.optype is OpType.REGISTER_WRITE), None)
        if strict and walked is None:
            with pytest.raises(AuditReject) as exc:
                handler.handle("register_read", "reg:g:A", ())
            assert exc.value.reason is RejectReason.NO_PRIOR_WRITE
        else:
            assert handler.handle("register_read", "reg:g:A", ()) == walked
    assert walked == 405  # the last read, 50 records after its write


def test_checkop_rejects_wrong_object():
    log = [OpRecord("r1", 1, OpType.REGISTER_WRITE, (1,))]
    ctx = _ctx({"reg:g:A": log}, {"r1": 1})
    handler = OpHandler(ctx, "r1")
    with pytest.raises(AuditReject) as exc:
        handler.handle("register_write", "reg:g:B", (1,))
    assert exc.value.reason is RejectReason.OP_MISMATCH


def test_checkop_rejects_wrong_optype():
    log = [OpRecord("r1", 1, OpType.REGISTER_WRITE, (1,))]
    ctx = _ctx({"reg:g:A": log}, {"r1": 1})
    handler = OpHandler(ctx, "r1")
    with pytest.raises(AuditReject):
        handler.handle("register_read", "reg:g:A", ())


def test_checkop_rejects_wrong_value():
    log = [OpRecord("r1", 1, OpType.REGISTER_WRITE, (1,))]
    ctx = _ctx({"reg:g:A": log}, {"r1": 1})
    handler = OpHandler(ctx, "r1")
    with pytest.raises(AuditReject):
        handler.handle("register_write", "reg:g:A", (2,))


def test_checkop_rejects_op_beyond_claimed_count():
    log = [OpRecord("r1", 1, OpType.REGISTER_WRITE, (1,))]
    ctx = _ctx({"reg:g:A": log}, {"r1": 1})
    handler = OpHandler(ctx, "r1")
    handler.handle("register_write", "reg:g:A", (1,))
    with pytest.raises(AuditReject) as exc:
        handler.handle("register_write", "reg:g:A", (1,))
    assert exc.value.reason is RejectReason.OP_NOT_IN_OPMAP


def test_finish_rejects_fewer_ops_than_claimed():
    log = [
        OpRecord("r1", 1, OpType.REGISTER_WRITE, (1,)),
        OpRecord("r1", 2, OpType.REGISTER_READ, ()),
    ]
    ctx = _ctx({"reg:g:A": log}, {"r1": 2})
    handler = OpHandler(ctx, "r1")
    handler.handle("register_write", "reg:g:A", (1,))
    with pytest.raises(AuditReject) as exc:
        handler.finish()
    assert exc.value.reason is RejectReason.OP_COUNT_TOO_LOW


# -- KV ----------------------------------------------------------------------


def test_kv_get_sees_preceding_set_only():
    log = [
        OpRecord("r1", 1, OpType.KV_SET, ("k", 1)),
        OpRecord("r2", 1, OpType.KV_GET, ("k",)),
        OpRecord("r3", 1, OpType.KV_SET, ("k", 2)),
    ]
    ctx = _ctx({"kv:apc": log}, {"r1": 1, "r2": 1, "r3": 1})
    handler = OpHandler(ctx, "r2")
    assert handler.handle("kv_get", "kv:apc", ("k",)) == 1


def test_kv_get_absent_key_is_none():
    log = [OpRecord("r1", 1, OpType.KV_GET, ("missing",))]
    ctx = _ctx({"kv:apc": log}, {"r1": 1})
    handler = OpHandler(ctx, "r1")
    assert handler.handle("kv_get", "kv:apc", ("missing",)) is None


# -- DB transactions (§A.7) --------------------------------------------------

_DB_SETUP = (
    "CREATE TABLE t (id INT PRIMARY KEY AUTOINCREMENT, v INT);"
    "INSERT INTO t (v) VALUES (10)"
)


def test_transaction_happy_path():
    queries = (
        "SELECT v FROM t WHERE id = 1",
        "UPDATE t SET v = 11 WHERE id = 1",
        "COMMIT",
    )
    log = [OpRecord("r1", 1, OpType.DB_OP, (queries, True))]
    ctx = _ctx({"db:main": log}, {"r1": 1}, db_setup=_DB_SETUP)
    handler = OpHandler(ctx, "r1")
    handler.handle("db_begin", "db:main", ())
    result = handler.handle(
        "db_statement", "db:main", ("SELECT v FROM t WHERE id = 1",)
    )
    assert result.rows == [{"v": 10}]
    update = handler.handle(
        "db_statement", "db:main", ("UPDATE t SET v = 11 WHERE id = 1",)
    )
    assert update.affected == 1
    assert handler.handle("db_commit", "db:main", ()) is True
    handler.finish()


def test_transaction_wrong_query_text_rejected():
    queries = ("UPDATE t SET v = 11 WHERE id = 1", "COMMIT")
    log = [OpRecord("r1", 1, OpType.DB_OP, (queries, True))]
    ctx = _ctx({"db:main": log}, {"r1": 1}, db_setup=_DB_SETUP)
    handler = OpHandler(ctx, "r1")
    handler.handle("db_begin", "db:main", ())
    with pytest.raises(AuditReject) as exc:
        handler.handle(
            "db_statement", "db:main",
            ("UPDATE t SET v = 999 WHERE id = 1",),
        )
    assert exc.value.reason is RejectReason.OP_MISMATCH


def test_transaction_extra_query_rejected():
    queries = ("UPDATE t SET v = 11 WHERE id = 1", "COMMIT")
    log = [OpRecord("r1", 1, OpType.DB_OP, (queries, True))]
    ctx = _ctx({"db:main": log}, {"r1": 1}, db_setup=_DB_SETUP)
    handler = OpHandler(ctx, "r1")
    handler.handle("db_begin", "db:main", ())
    handler.handle("db_statement", "db:main", (queries[0],))
    with pytest.raises(AuditReject):
        handler.handle("db_statement", "db:main", (queries[0],))


def test_transaction_early_commit_rejected():
    queries = ("UPDATE t SET v = 11 WHERE id = 1", "COMMIT")
    log = [OpRecord("r1", 1, OpType.DB_OP, (queries, True))]
    ctx = _ctx({"db:main": log}, {"r1": 1}, db_setup=_DB_SETUP)
    handler = OpHandler(ctx, "r1")
    handler.handle("db_begin", "db:main", ())
    with pytest.raises(AuditReject):
        handler.handle("db_commit", "db:main", ())


def test_commit_rollback_marker_mismatch_rejected():
    queries = ("UPDATE t SET v = 11 WHERE id = 1", "ROLLBACK")
    log = [OpRecord("r1", 1, OpType.DB_OP, (queries, False))]
    ctx = _ctx({"db:main": log}, {"r1": 1}, db_setup=_DB_SETUP)
    handler = OpHandler(ctx, "r1")
    handler.handle("db_begin", "db:main", ())
    handler.handle("db_statement", "db:main", (queries[0],))
    with pytest.raises(AuditReject):
        handler.handle("db_commit", "db:main", ())


def test_rolled_back_marked_succeeded_rejected():
    """Inconsistent report: ROLLBACK marker with succeeded=True."""
    queries = ("UPDATE t SET v = 11 WHERE id = 1", "ROLLBACK")
    log = [OpRecord("r1", 1, OpType.DB_OP, (queries, True))]
    ctx = _ctx({"db:main": log}, {"r1": 1}, db_setup=_DB_SETUP)
    handler = OpHandler(ctx, "r1")
    handler.handle("db_begin", "db:main", ())
    handler.handle("db_statement", "db:main", (queries[0],))
    with pytest.raises(AuditReject):
        handler.handle("db_rollback", "db:main", ())


def test_executor_injected_abort_visible_to_program():
    """COMMIT marker + succeeded=False: the §4.6 discretion; the program
    sees a failed commit and the redo pass must not apply the writes."""
    queries = ("UPDATE t SET v = 99 WHERE id = 1", "COMMIT")
    log = [
        OpRecord("r1", 1, OpType.DB_OP, (queries, False)),
        OpRecord("r2", 1, OpType.DB_OP,
                 (("SELECT v FROM t WHERE id = 1",), True)),
    ]
    ctx = _ctx({"db:main": log}, {"r1": 1, "r2": 1}, db_setup=_DB_SETUP)
    handler = OpHandler(ctx, "r1")
    handler.handle("db_begin", "db:main", ())
    handler.handle("db_statement", "db:main", (queries[0],))
    assert handler.handle("db_commit", "db:main", ()) is False
    # r2 reads after the aborted transaction: must see the original value.
    handler2 = OpHandler(ctx, "r2")
    result = handler2.handle(
        "db_statement", "db:main", ("SELECT v FROM t WHERE id = 1",)
    )
    assert result.rows == [{"v": 10}]


def test_auto_commit_statement_roundtrip():
    sql = "SELECT v FROM t WHERE id = 1"
    log = [OpRecord("r1", 1, OpType.DB_OP, ((sql,), True))]
    ctx = _ctx({"db:main": log}, {"r1": 1}, db_setup=_DB_SETUP)
    handler = OpHandler(ctx, "r1")
    assert handler.handle("db_statement", "db:main", (sql,)).rows == [
        {"v": 10}
    ]
    handler.finish()


def test_begin_against_auto_commit_entry_rejected():
    sql = "SELECT v FROM t WHERE id = 1"
    log = [OpRecord("r1", 1, OpType.DB_OP, ((sql,), True))]
    ctx = _ctx({"db:main": log}, {"r1": 1}, db_setup=_DB_SETUP)
    handler = OpHandler(ctx, "r1")
    with pytest.raises(AuditReject):
        handler.handle("db_begin", "db:main", ())


def test_finish_error_requires_logged_rollback():
    queries = ("UPDATE t SET v = 11 WHERE id = 1", "ROLLBACK")
    log = [OpRecord("r1", 1, OpType.DB_OP, (queries, False))]
    ctx = _ctx({"db:main": log}, {"r1": 1}, db_setup=_DB_SETUP)
    handler = OpHandler(ctx, "r1")
    handler.handle("db_begin", "db:main", ())
    handler.handle("db_statement", "db:main", (queries[0],))
    handler.finish_error()  # ok: log shows the rollback


def test_finish_error_rejects_committed_log():
    queries = ("UPDATE t SET v = 11 WHERE id = 1", "COMMIT")
    log = [OpRecord("r1", 1, OpType.DB_OP, (queries, True))]
    ctx = _ctx({"db:main": log}, {"r1": 1}, db_setup=_DB_SETUP)
    handler = OpHandler(ctx, "r1")
    handler.handle("db_begin", "db:main", ())
    handler.handle("db_statement", "db:main", (queries[0],))
    with pytest.raises(AuditReject):
        handler.finish_error()


# -- nondet cursor -------------------------------------------------------------


def test_nondet_cursor_replays_in_order():
    cursor = NondetCursor("r1", [
        NondetRecord("time", (), 100),
        NondetRecord("rand", (1, 6), 4),
    ])
    assert cursor.next("time", ()) == 100
    assert cursor.next("rand", (1, 6)) == 4


def test_nondet_cursor_missing_record():
    cursor = NondetCursor("r1", [])
    with pytest.raises(AuditReject) as exc:
        cursor.next("time", ())
    assert exc.value.reason is RejectReason.NONDET_MISSING


def test_nondet_cursor_func_mismatch():
    cursor = NondetCursor("r1", [NondetRecord("time", (), 100)])
    with pytest.raises(AuditReject) as exc:
        cursor.next("rand", (1, 6))
    assert exc.value.reason is RejectReason.NONDET_IMPLAUSIBLE
