"""The live Database object: locking, logging, transactions, stitching."""

from __future__ import annotations

import pytest

from repro.common.errors import SqlError
from repro.objects.base import OpType
from repro.sql.database import Database

SETUP = (
    "CREATE TABLE t (id INT PRIMARY KEY AUTOINCREMENT, v INT);"
    "INSERT INTO t (v) VALUES (1)"
)


@pytest.fixture
def db():
    database = Database("db:main")
    database.setup(SETUP)
    return database


def test_setup_not_logged(db):
    assert db.stitch_log() == []


def test_auto_commit_logged_with_seq(db):
    db.execute("r1", 1, "SELECT v FROM t")
    db.execute("r2", 1, "UPDATE t SET v = 2 WHERE id = 1")
    log = db.stitch_log()
    assert len(log) == 2
    assert log[0].rid == "r1" and log[0].optype is OpType.DB_OP
    assert log[0].opcontents == (("SELECT v FROM t",), True)
    assert log[1].opcontents == (
        ("UPDATE t SET v = 2 WHERE id = 1",), True
    )


def test_transaction_is_one_log_entry(db):
    db.begin("r1", 1)
    db.execute("r1", 1, "INSERT INTO t (v) VALUES (5)")
    db.execute("r1", 1, "SELECT COUNT(*) AS n FROM t")
    assert db.commit("r1")
    log = db.stitch_log()
    assert len(log) == 1
    queries, succeeded = log[0].opcontents
    assert queries[-1] == "COMMIT" and succeeded
    assert len(queries) == 3


def test_transaction_sees_own_writes(db):
    db.begin("r1", 1)
    db.execute("r1", 1, "INSERT INTO t (v) VALUES (5)")
    result = db.execute("r1", 1, "SELECT COUNT(*) AS n FROM t")
    assert result.rows == [{"n": 2}]
    db.commit("r1")


def test_rollback_restores_state(db):
    db.begin("r1", 1)
    db.execute("r1", 1, "UPDATE t SET v = 99 WHERE id = 1")
    db.execute("r1", 1, "INSERT INTO t (v) VALUES (5)")
    db.rollback("r1")
    assert db.execute("r2", 1, "SELECT v FROM t").rows == [{"v": 1}]
    log = db.stitch_log()
    assert log[0].opcontents[0][-1] == "ROLLBACK"
    assert log[0].opcontents[1] is False


def test_rollback_restores_auto_increment(db):
    db.begin("r1", 1)
    db.execute("r1", 1, "INSERT INTO t (v) VALUES (5)")
    db.rollback("r1")
    result = db.execute("r2", 1, "INSERT INTO t (v) VALUES (6)")
    assert result.last_insert_id == 2  # not 3


def test_rolled_back_transactions_leave_only_committed_rows(db):
    """Rollback installs the snapshot the transaction saved, not a copy
    of it: the next transaction must snapshot afresh (rows, counter and
    all), not find the table it is about to change already saved."""
    db.abort_hook = lambda rid, queries: rid == "r2"
    db.begin("r1", 1)
    db.execute("r1", 1, "UPDATE t SET v = 50 WHERE id = 1")
    db.execute("r1", 1, "INSERT INTO t (v) VALUES (51)")
    db.rollback("r1")
    db.begin("r2", 1)
    db.execute("r2", 1, "DELETE FROM t WHERE id = 1")
    db.execute("r2", 1, "INSERT INTO t (v) VALUES (52)")
    assert db.commit("r2") is False  # aborted at the DB's discretion
    db.begin("r3", 1)
    db.execute("r3", 1, "UPDATE t SET v = v + 1 WHERE id = 1")
    inserted = db.execute("r3", 1, "INSERT INTO t (v) VALUES (53)")
    assert db.commit("r3") is True
    assert inserted.last_insert_id == 2
    assert db.execute("r4", 1, "SELECT id, v FROM t").rows == [
        {"id": 1, "v": 2}, {"id": 2, "v": 53}]
    assert [rec.opcontents[1] for rec in db.stitch_log()] == [
        False, False, True, True]


def test_lock_blocks_other_requests(db):
    db.begin("r1", 1)
    assert db.would_block("r2")
    assert not db.would_block("r1")
    with pytest.raises(SqlError):
        db.execute("r2", 1, "SELECT v FROM t")
    db.commit("r1")
    assert not db.would_block("r2")


def test_abort_hook_forces_failed_commit(db):
    db.abort_hook = lambda rid, queries: True
    db.begin("r1", 1)
    db.execute("r1", 1, "UPDATE t SET v = 42 WHERE id = 1")
    assert db.commit("r1") is False
    assert db.execute("r2", 1, "SELECT v FROM t").rows == [{"v": 1}]
    log = db.stitch_log()
    queries, succeeded = log[0].opcontents
    assert queries[-1] == "COMMIT" and succeeded is False


def test_stitching_merges_by_global_seq(db):
    """Interleaved connections: stitched order is serialization order."""
    db.execute("r1", 1, "UPDATE t SET v = 2 WHERE id = 1")
    db.execute("r2", 1, "UPDATE t SET v = 3 WHERE id = 1")
    db.execute("r1", 2, "UPDATE t SET v = 4 WHERE id = 1")
    log = db.stitch_log()
    assert [(rec.rid, rec.opnum) for rec in log] == [
        ("r1", 1), ("r2", 1), ("r1", 2),
    ]


def test_transaction_control_via_execute_rejected(db):
    with pytest.raises(SqlError):
        db.execute("r1", 1, "BEGIN")
    with pytest.raises(SqlError):
        db.execute("r1", 1, "COMMIT")


def test_ddl_rejected_at_runtime(db):
    with pytest.raises(SqlError):
        db.execute("r1", 1, "CREATE TABLE u (id INT)")


def test_opnum_must_not_advance_inside_tx(db):
    db.begin("r1", 5)
    with pytest.raises(SqlError):
        db.execute("r1", 6, "SELECT v FROM t")
    db.rollback("r1")


def test_commit_without_tx_rejected(db):
    with pytest.raises(SqlError):
        db.commit("r1")


def test_nested_begin_rejected(db):
    db.begin("r1", 1)
    with pytest.raises(SqlError):
        db.begin("r1", 2)
    db.rollback("r1")


def test_initial_snapshot_is_independent(db):
    snap = db.initial_snapshot()
    db.execute("r1", 1, "DELETE FROM t")
    assert snap.tables["t"].rows == [{"id": 1, "v": 1}]
