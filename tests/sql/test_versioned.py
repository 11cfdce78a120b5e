"""The versioned DB (§4.5, §A.7): redo, versioned reads, undo, migration.

Includes the §A.7 equivalence property: ``do_query(sql, ts)`` must equal
replaying the log prefix into a fresh engine and then querying — checked
with hypothesis over random logs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AuditReject
from repro.objects.base import OpRecord, OpType
from repro.sql.database import Database
from repro.sql.engine import Engine
from repro.sql.parser import parse_script, parse_sql
from repro.sql.versioned import MAXQ, TS_INF, VersionedDB

SETUP = (
    "CREATE TABLE t (id INT PRIMARY KEY AUTOINCREMENT, v INT, name TEXT);"
    "INSERT INTO t (v, name) VALUES (1, 'a'), (2, 'b')"
)


def _initial() -> Engine:
    engine = Engine()
    for stmt in parse_script(SETUP):
        engine.execute(stmt)
    return engine


def _dbop(rid, opnum, *queries, succeeded=True):
    return OpRecord(rid, opnum, OpType.DB_OP, (tuple(queries), succeeded))


def _build(log):
    vdb = VersionedDB()
    vdb.load_initial(_initial())
    vdb.build(log)
    return vdb


def test_initial_state_visible_at_ts_zero():
    vdb = _build([])
    rows = vdb.do_query("SELECT v FROM t", 0).rows
    assert rows == [{"v": 1}, {"v": 2}]


def test_update_visible_from_its_ts():
    vdb = _build([_dbop("r1", 1, "UPDATE t SET v = 9 WHERE id = 1")])
    assert vdb.do_query("SELECT v FROM t WHERE id = 1",
                        MAXQ).rows == [{"v": 1}]
    assert vdb.do_query("SELECT v FROM t WHERE id = 1",
                        MAXQ + 1).rows == [{"v": 9}]


def test_insert_and_delete_versioning():
    vdb = _build([
        _dbop("r1", 1, "INSERT INTO t (v, name) VALUES (3, 'c')"),
        _dbop("r2", 1, "DELETE FROM t WHERE name = 'a'"),
    ])
    def names(ts):
        return [r["name"]
                for r in vdb.do_query("SELECT name FROM t", ts).rows]
    assert names(0) == ["a", "b"]
    assert names(MAXQ + 1) == ["a", "b", "c"]
    assert names(2 * MAXQ + 1) == ["b", "c"]


def test_row_order_stable_under_update():
    """Versioned reads preserve the engine's insertion order even after
    updates (outputs are compared byte-for-byte)."""
    vdb = _build([_dbop("r1", 1, "UPDATE t SET v = 9 WHERE id = 1")])
    rows = vdb.do_query("SELECT name FROM t", 5 * MAXQ).rows
    assert [r["name"] for r in rows] == ["a", "b"]


def test_redo_records_write_results():
    vdb = _build([
        _dbop("r1", 1, "INSERT INTO t (v, name) VALUES (3, 'c')"),
        _dbop("r2", 1, "UPDATE t SET v = 0 WHERE v > 0"),
    ])
    assert vdb.result_at(MAXQ + 1).last_insert_id == 3
    assert vdb.result_at(2 * MAXQ + 1).affected == 3


def test_missing_result_raises():
    vdb = _build([])
    with pytest.raises(AuditReject):
        vdb.result_at(MAXQ)


def test_transaction_internal_visibility():
    """A SELECT inside a transaction (at query index q) sees the
    transaction's own earlier writes (indices < q) but not later ones."""
    log = [_dbop("r1", 1,
                 "INSERT INTO t (v, name) VALUES (3, 'c')",  # q=1
                 "SELECT v FROM t",                           # q=2
                 "UPDATE t SET v = v + 10",                   # q=3
                 "COMMIT")]
    vdb = _build(log)
    # The SELECT's timestamp is seq*MAXQ + 2: insert visible, update not.
    rows = vdb.do_query("SELECT v FROM t", MAXQ + 2).rows
    assert [r["v"] for r in rows] == [1, 2, 3]
    # After the transaction: both applied.
    rows = vdb.do_query("SELECT v FROM t", 2 * MAXQ).rows
    assert [r["v"] for r in rows] == [11, 12, 13]


def test_aborted_transaction_tentative_visibility():
    """An aborted transaction's own reads see its tentative writes; later
    readers do not (§A.7 adaptation for aborts)."""
    log = [
        _dbop("r1", 1,
              "UPDATE t SET v = 99 WHERE id = 1",   # q=1
              "SELECT v FROM t WHERE id = 1",        # q=2
              "ROLLBACK", succeeded=False),
        _dbop("r2", 1, "INSERT INTO t (v, name) VALUES (5, 'e')"),
    ]
    vdb = _build(log)
    # The tx's own SELECT (ts = seq*MAXQ + 2): tentative value visible.
    assert vdb.do_query("SELECT v FROM t WHERE id = 1",
                        MAXQ + 2).rows == [{"v": 99}]
    # After the abort: restored.
    assert vdb.do_query("SELECT v FROM t WHERE id = 1",
                        2 * MAXQ).rows == [{"v": 1}]


def test_aborted_insert_invisible_later():
    log = [
        _dbop("r1", 1, "INSERT INTO t (v, name) VALUES (7, 'x')",
              "ROLLBACK", succeeded=False),
    ]
    vdb = _build(log)
    assert vdb.do_query("SELECT COUNT(*) AS n FROM t",
                        2 * MAXQ).rows == [{"n": 2}]


def test_abort_restores_auto_increment():
    log = [
        _dbop("r1", 1, "INSERT INTO t (v, name) VALUES (7, 'x')",
              "ROLLBACK", succeeded=False),
        _dbop("r2", 1, "INSERT INTO t (v, name) VALUES (8, 'y')"),
    ]
    vdb = _build(log)
    assert vdb.result_at(2 * MAXQ + 1).last_insert_id == 3


def test_executor_injected_abort():
    """COMMIT marker but succeeded=False: treated as aborted (§4.6)."""
    log = [
        _dbop("r1", 1, "UPDATE t SET v = 50 WHERE id = 2", "COMMIT",
              succeeded=False),
    ]
    vdb = _build(log)
    assert vdb.do_query("SELECT v FROM t WHERE id = 2",
                        2 * MAXQ).rows == [{"v": 2}]


def test_writes_between():
    vdb = _build([
        _dbop("r1", 1, "UPDATE t SET v = 9 WHERE id = 1"),
        _dbop("r2", 1, "UPDATE t SET v = 8 WHERE id = 2"),
    ])
    assert vdb.writes_between("t", 0, MAXQ + 1)
    assert vdb.writes_between("t", MAXQ + 1, 2 * MAXQ + 1)
    assert not vdb.writes_between("t", 2 * MAXQ + 1, 99 * MAXQ)
    assert not vdb.writes_between("t", 0, MAXQ)
    assert not vdb.writes_between("missing", 0, TS_INF)


def test_latest_engine_and_migration_sql():
    vdb = _build([
        _dbop("r1", 1, "INSERT INTO t (v, name) VALUES (3, 'c')"),
        _dbop("r2", 1, "DELETE FROM t WHERE id = 1"),
        _dbop("r3", 1, "UPDATE t SET v = 20 WHERE id = 2"),
    ])
    latest = vdb.latest_engine()
    rows = latest.execute(parse_sql("SELECT id, v FROM t")).rows
    assert rows == [{"id": 2, "v": 20}, {"id": 3, "v": 3}]
    # The migration dump reproduces the same state on an empty schema.
    fresh = Engine()
    fresh.execute(parse_sql(
        "CREATE TABLE t (id INT PRIMARY KEY AUTOINCREMENT, v INT,"
        " name TEXT)"
    ))
    for statement in vdb.migration_statements():
        fresh.execute(parse_sql(statement))
    assert fresh.execute(parse_sql("SELECT id, v FROM t")).rows == rows


def test_malformed_log_rejected():
    vdb = VersionedDB()
    vdb.load_initial(_initial())
    with pytest.raises(AuditReject):
        vdb.build([OpRecord("r1", 1, OpType.KV_GET, ("k",))])
    vdb2 = VersionedDB()
    vdb2.load_initial(_initial())
    with pytest.raises(AuditReject):
        vdb2.build([_dbop("r1", 1, "DROP TABLE t")])
    # Contents the executor made up: a verdict, not a TypeError out of
    # the SQL parser or an unpacking ValueError.
    for contents in [((5,), True), ((None, "COMMIT"), True), ((), True),
                     (("SELECT 1",), True, "x"), ("SELECT 1", True)]:
        vdb3 = VersionedDB()
        vdb3.load_initial(_initial())
        with pytest.raises(AuditReject, match="malformed DBOp opcontents"):
            vdb3.build([OpRecord("r1", 1, OpType.DB_OP, contents)])


# -- §A.7 equivalence property -------------------------------------------------

_WRITE_POOL = [
    "INSERT INTO t (v, name) VALUES ({n}, 'w{n}')",
    "UPDATE t SET v = v + {n} WHERE id = {id}",
    "UPDATE t SET v = {n} WHERE v < {n}",
    "DELETE FROM t WHERE id = {id}",
]


def _random_log(seed: int, length: int):
    rng = random.Random(seed)
    log = []
    for index in range(length):
        template = rng.choice(_WRITE_POOL)
        sql = template.format(n=rng.randint(0, 20), id=rng.randint(1, 6))
        if rng.random() < 0.3:
            second = rng.choice(_WRITE_POOL).format(
                n=rng.randint(0, 20), id=rng.randint(1, 6)
            )
            marker = "COMMIT" if rng.random() < 0.7 else "ROLLBACK"
            log.append(_dbop(f"r{index}", 1, sql, second, marker,
                             succeeded=(marker == "COMMIT")))
        else:
            log.append(_dbop(f"r{index}", 1, sql))
    return log


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    length=st.integers(min_value=0, max_value=12),
    prefix=st.integers(min_value=0, max_value=12),
)
def test_versioned_read_equals_prefix_replay(seed, length, prefix):
    """§A.7: do_query(sql, s*MAXQ) == replay OL[1..s-1] then query."""
    log = _random_log(seed, length)
    vdb = _build(log)
    s = min(prefix, length) + 1
    # Reference: replay the first s-1 transactions on a fresh engine.
    reference = Database("ref")
    reference.setup(SETUP)
    for record in log[: s - 1]:
        queries, succeeded = record.opcontents
        marker = queries[-1] if queries[-1] in ("COMMIT", "ROLLBACK") \
            else None
        data = queries[:-1] if marker else queries
        if marker:
            reference.begin(record.rid, record.opnum)
            for sql in data:
                reference.execute(record.rid, record.opnum, sql)
            if marker == "ROLLBACK" or not succeeded:
                reference.rollback(record.rid)
            else:
                reference.commit(record.rid)
        else:
            reference.execute(record.rid, record.opnum, data[0])
    for probe in ("SELECT id, v, name FROM t",
                  "SELECT COUNT(*) AS n FROM t",
                  "SELECT v FROM t ORDER BY v DESC"):
        expected = reference.engine.execute(parse_sql(probe)).rows
        actual = vdb.do_query(probe, s * MAXQ).rows
        assert actual == expected, (probe, s)
