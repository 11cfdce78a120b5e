"""Compiled SQL expressions against the evaluator they replaced.

``reference_eval`` below is ``eval_expr`` as it stood before expressions
were compiled — an ``isinstance`` ladder walked per node per row — kept
here, verbatim, as the semantic reference.  ``compile_expr(e)(row)`` and
today's one-shot ``eval_expr(e, row)`` must return what it returns —
same value, same type — or raise the same ``SqlError``, for every node
type, NULLs, mixed types and ``row=None`` (INSERT values).  The row
loops of ``Engine`` and ``VersionedDB`` run the compiled form; a
reference built on ``reference_eval`` alone must see the same rows.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.common.errors import SqlError
from repro.objects.base import OpRecord, OpType
from repro.sql import engine as engine_mod
from repro.sql.ast import (
    Aggregate,
    BinaryOp,
    BoolOp,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    IsNull,
    Literal,
    NotOp,
)
from repro.sql.engine import (
    Engine,
    apply_order_limit,
    compile_expr,
    eval_expr,
)
from repro.sql.parser import parse_script, parse_sql
from repro.sql.versioned import MAXQ, VersionedDB



def _like_to_regex(pattern: str) -> re.Pattern[str]:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE | re.DOTALL)


def reference_eval(expr, row):
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        if row is None or expr.name not in row:
            raise SqlError(f"unknown column {expr.name!r}")
        return row[expr.name]
    if isinstance(expr, BinaryOp):
        left = reference_eval(expr.left, row)
        right = reference_eval(expr.right, row)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            if right == 0:
                return None
            if isinstance(left, int) and isinstance(right, int):
                return left // right
            return left / right
        if expr.op == "%":
            if right == 0:
                return None
            return left % right
        raise SqlError(f"unknown operator {expr.op!r}")
    if isinstance(expr, Comparison):
        left = reference_eval(expr.left, row)
        right = reference_eval(expr.right, row)
        if expr.op == "LIKE":
            if left is None or right is None:
                return False
            return _like_to_regex(str(right)).match(str(left)) is not None
        if left is None or right is None:
            return False
        if expr.op == "=":
            return left == right
        if expr.op == "!=":
            return left != right
        try:
            if expr.op == "<":
                return left < right
            if expr.op == "<=":
                return left <= right
            if expr.op == ">":
                return left > right
            if expr.op == ">=":
                return left >= right
        except TypeError as exc:
            raise SqlError(
                f"cannot compare {type(left).__name__} with "
                f"{type(right).__name__}"
            ) from exc
        raise SqlError(f"unknown comparison {expr.op!r}")
    if isinstance(expr, BoolOp):
        if expr.op == "AND":
            return all(bool(reference_eval(op, row)) for op in expr.operands)
        return any(bool(reference_eval(op, row)) for op in expr.operands)
    if isinstance(expr, NotOp):
        return not bool(reference_eval(expr.operand, row))
    if isinstance(expr, IsNull):
        value = reference_eval(expr.operand, row)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, InList):
        value = reference_eval(expr.operand, row)
        members = [reference_eval(item, row) for item in expr.items]
        found = value in members
        return (not found) if expr.negated else found
    if isinstance(expr, Aggregate):
        raise SqlError("aggregate used outside SELECT projection")
    raise SqlError(f"unknown expression node {type(expr).__name__}")


COLUMNS = ("a", "b", "s", "t")
VALUES = (None, 0, 1, -3, 7, 2.5, 0.0, "", "x", "abc", "a%", "7", True)


def random_expr(rng: random.Random, depth: int) -> Expr:
    """A random tree over every node type, at most ``depth`` deep."""
    if depth <= 1 or rng.random() < 0.15:
        if rng.random() < 0.5:
            # "zz" is in no row: the unknown-column error path.
            return ColumnRef(rng.choice((*COLUMNS, "zz")))
        return Literal(rng.choice(VALUES))
    sub = lambda: random_expr(rng, depth - 1)  # noqa: E731
    kind = rng.randrange(8)
    if kind == 0:
        return BinaryOp(rng.choice("+-*/%^"), sub(), sub())
    if kind == 1:
        return Comparison(
            rng.choice(("=", "!=", "<", "<=", ">", ">=", "LIKE", "~")),
            sub(), sub())
    if kind == 2:
        return BoolOp(rng.choice(("AND", "OR")),
                      tuple(sub() for _ in range(rng.randint(2, 3))))
    if kind == 3:
        return NotOp(sub())
    if kind == 4:
        return IsNull(sub(), rng.random() < 0.5)
    if kind == 5:
        return InList(sub(), tuple(sub() for _ in range(rng.randint(1, 3))),
                      rng.random() < 0.5)
    if kind == 6:
        return Aggregate("COUNT", None)
    return Literal(rng.choice(VALUES))


def random_row(rng: random.Random) -> dict | None:
    if rng.random() < 0.1:
        return None  # INSERT evaluates its values without a row
    return {column: rng.choice(VALUES) for column in COLUMNS}


def outcome(fn, *args):
    try:
        value = fn(*args)
    except SqlError as exc:
        return ("SqlError", str(exc))
    except (TypeError, ValueError) as exc:
        # Arithmetic on strings ('x' + 1, 'a%' % 'x') is Python's own
        # error in both forms; typed columns keep it out of real
        # statements.
        return (type(exc).__name__, None)
    return (type(value).__name__, value)


@pytest.mark.parametrize("seed", range(8))
def test_compiled_expression_equals_the_reference(seed):
    rng = random.Random(seed)
    kinds = set()
    for _ in range(400):
        expr = random_expr(rng, depth=4)
        kinds.add(type(expr).__name__)
        compiled = compile_expr(expr)
        for _ in range(6):
            row = random_row(rng)
            expected = outcome(reference_eval, expr, row)
            assert outcome(compiled, row) == expected, (expr, row)
            assert outcome(eval_expr, expr, row) == expected, (expr, row)
    assert kinds >= {"BinaryOp", "Comparison", "BoolOp", "NotOp", "IsNull",
                     "InList", "Aggregate", "Literal", "ColumnRef"}


def test_unknown_node_fails_when_evaluated_not_when_compiled():
    class Strange(Expr):
        pass

    compiled = compile_expr(Strange())
    with pytest.raises(SqlError, match="unknown expression node Strange"):
        compiled({})
    # ... and an unknown node under a short-circuit is never reached.
    guarded = BoolOp("OR", (Literal(1), Strange()))
    assert compile_expr(guarded)({}) is True
    assert eval_expr(guarded, {}) is reference_eval(guarded, {}) is True


# -- the caches ----------------------------------------------------------------


def test_equal_expressions_of_different_type_do_not_share_a_closure():
    """``Literal(1) == Literal(1.0) == Literal(True)`` as dataclasses; a
    cache keyed by value would hand one's closure to the others."""
    for value in (1, 1.0, True):
        assert outcome(compile_expr(Literal(value)), None) == (
            type(value).__name__, value)


def test_a_recycled_id_cannot_serve_a_stale_closure(monkeypatch):
    monkeypatch.setattr(engine_mod, "_COMPILED", {})
    seen_ids = set()
    for index in range(2000):
        expr = Comparison("=", ColumnRef("a"), Literal(index))
        assert compile_expr(expr)({"a": index}) is True
        assert compile_expr(expr)({"a": index + 1}) is False
        seen_ids.add(id(expr))
        del expr
    # Every cached expression is pinned by its entry, so no two of them
    # ever had the same id.
    assert len(seen_ids) == 2000 == len(engine_mod._COMPILED)
    assert all(entry[0] is not None and id(entry[0]) == key
               for key, entry in engine_mod._COMPILED.items())


def test_predicate_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(engine_mod, "_COMPILED", {})
    monkeypatch.setattr(engine_mod, "_CACHE_LIMIT", 16)
    for index in range(100):
        expr = Comparison("<", ColumnRef("a"), Literal(index))
        # Past the cap the expression is compiled per call: still right.
        assert compile_expr(expr)({"a": 50}) is (50 < index)
    assert len(engine_mod._COMPILED) == 16


def test_one_projection_per_select_list(monkeypatch):
    """Statements that differ only past FROM share their SELECT list,
    and so one cached projection — not one per statement text (the
    audit's peak memory grew by a MiB with one per text)."""
    monkeypatch.setattr(engine_mod, "_COMPILED", {})
    engine = Engine()
    for stmt in parse_script(
            "CREATE TABLE t (id INT, a INT); INSERT INTO t (id, a) "
            "VALUES (1, 10), (2, 20), (3, 30)"):
        engine.execute(stmt)
    texts = [f"SELECT a, id AS k FROM t WHERE id = {n}" for n in range(40)]
    rows = [engine.execute(parse_sql(text)).rows for text in texts]
    assert rows[2] == [{"a": 20, "k": 2}] and rows[9] == []
    assert len({id(parse_sql(text).items) for text in texts}) == 1
    projections = [entry for entry in engine_mod._COMPILED.values()
                   if isinstance(entry[0], tuple)]
    assert len(projections) == 1
    # Lists are shared by their text, never by ``==``: ``Literal(1)``
    # and ``Literal(1.0)`` are equal dataclasses.
    for text, kind in (("1", int), ("1.0", float), ("1", int)):
        rows = engine.execute(parse_sql(
            f"SELECT {text} AS x FROM t WHERE id = 1")).rows
        assert type(rows[0]["x"]) is kind


def test_like_cache_is_bounded():
    """LIKE patterns come straight from request parameters in the
    audited trace; the pattern cache must not grow with them."""
    from repro.sql import parser

    info = engine_mod._like_pattern.cache_info()
    assert info.maxsize == engine_mod._CACHE_LIMIT
    assert engine_mod._CACHE_LIMIT == parser._PARSE_CACHE_LIMIT
    for index in range(50):
        expr = Comparison("LIKE", ColumnRef("s"), Literal(f"%{index}"))
        assert compile_expr(expr)({"s": f"page{index}"}) is True
        assert eval_expr(expr, {"s": "other"}) is False
    # Patterns are cached under their text: 1 and 1.0 and True are equal
    # and hash alike, but they are not the same pattern.
    for pattern, text in ((1, "1"), (1.0, "1.0"), (True, "True")):
        expr = Comparison("LIKE", Literal(text), Literal(pattern))
        assert eval_expr(expr, None) is True, pattern


# -- the row loops -------------------------------------------------------------

SETUP = (
    "CREATE TABLE t (id INT PRIMARY KEY AUTOINCREMENT, a INT, b FLOAT, "
    "s TEXT);"
    "INSERT INTO t (a, b, s) VALUES (1, 0.5, 'alpha'), (2, NULL, 'beta'), "
    "(NULL, 2.5, 'gamma'), (7, 7.0, NULL), (7, 1.0, 'alps')"
)
WHERES = (
    None, "a = 7", "a != 7", "a < 3 AND b IS NOT NULL", "s LIKE 'al%'",
    "a IN (1, 2) OR s IS NULL", "NOT (a > 1)", "a + 1 >= b * 2",
    "a % 2 = 1 AND NOT s LIKE '%a'", "b / 0 IS NULL", "a NOT IN (7)",
)
ITEMS = ("*", "a, s", "a * 2 AS twice, s", "id, a + b AS total",
         "COUNT(*)", "MAX(a), MIN(b)")
TAILS = ("", " ORDER BY a DESC, id", " ORDER BY s LIMIT 2 OFFSET 1")


def _statements():
    for items in ITEMS:
        for where in WHERES:
            for tail in TAILS:
                clause = f" WHERE {where}" if where else ""
                yield f"SELECT {items} FROM t{clause}{tail}"


def _reference_select(rows: list[dict], sql: str) -> list[dict]:
    """SELECT over plain rows with ``reference_eval`` only (aggregates
    and ordering are not what changed: borrow the engine's)."""
    stmt = parse_sql(sql)
    matched = [row for row in rows
               if stmt.where is None
               or bool(reference_eval(stmt.where, row))]
    matched = apply_order_limit(matched, stmt.order_by, stmt.limit,
                                stmt.offset)
    if not stmt.items or any(isinstance(item.expr, Aggregate)
                             for item in stmt.items):
        return engine_mod.project_rows(stmt.items, matched)
    return [
        {item.alias or engine_mod._item_name(item, index):
             reference_eval(item.expr, row)
         for index, item in enumerate(stmt.items)}
        for row in matched
    ]


def _typed(rows):
    return [[(key, type(value).__name__, value) for key, value in
             row.items()] for row in rows]


def _engine() -> Engine:
    engine = Engine()
    for stmt in parse_script(SETUP):
        engine.execute(stmt)
    return engine


def test_engine_and_versioned_selects_match_the_reference():
    engine = _engine()
    plain = [dict(row) for row in engine.tables["t"].rows]
    vdb = VersionedDB()
    vdb.load_initial(engine)
    count = 0
    for sql in _statements():
        expected = _typed(_reference_select(plain, sql))
        assert _typed(engine.execute(parse_sql(sql)).rows) == expected, sql
        assert _typed(vdb.do_query(sql, 0).rows) == expected, sql
        assert [row for row, _ in vdb.select_versions(sql, 0)] == (
            _reference_select(plain, sql.replace(
                sql[len("SELECT "):sql.index(" FROM")], "*"))), sql
        count += 1
    assert count == len(ITEMS) * len(WHERES) * len(TAILS)


def test_writes_match_the_reference():
    """UPDATE / DELETE through both row loops, then compare whole tables
    with a model that applies the same statements via
    ``reference_eval``."""
    writes = [
        "UPDATE t SET a = a + 1 WHERE b IS NOT NULL AND a < 7",
        "UPDATE t SET s = 'none', b = a * 1.5 WHERE s IS NULL OR a IS NULL",
        "DELETE FROM t WHERE s LIKE 'al%' AND a != 8",
        "UPDATE t SET a = id % 2",
        "DELETE FROM t WHERE a IN (0) AND NOT b > 100",
    ]
    engine = _engine()
    model = [dict(row) for row in engine.tables["t"].rows]
    types = engine.tables["t"].types
    vdb = VersionedDB()
    vdb.load_initial(engine)
    log = []
    for index, sql in enumerate(writes):
        stmt = parse_sql(sql)
        hit = [row for row in model if stmt.where is None
               or bool(reference_eval(stmt.where, row))]
        if sql.startswith("DELETE"):
            model = [row for row in model if row not in hit]
        else:
            for row in hit:
                row.update({
                    col: engine_mod._coerce(reference_eval(expr, row),
                                            types[col], col)
                    for col, expr in stmt.assignments
                })
        assert engine.execute(stmt).affected == len(hit), sql
        assert _typed(engine.tables["t"].rows) == _typed(model), sql
        log.append(OpRecord(f"r{index}", 1, OpType.DB_OP, ((sql,), True)))
    vdb.build(log)
    final = vdb.do_query("SELECT * FROM t", (len(writes) + 1) * MAXQ).rows
    assert _typed(final) == _typed(model)
    assert _typed(vdb.latest_engine().tables["t"].rows) == _typed(model)


# -- the equality index --------------------------------------------------------
#
# ``VersionedDB._scan`` takes its candidates from a per-column equality
# index when the WHERE leads with ``column = constant``.  The reference
# is the same store with the index taken away — every scan walks every
# logical row, as it did before there was one — and both must return
# the same rows, in the same order, or raise the same ``SqlError``.

MIXED = (1, 1.0, True, "1", 0, None, "x", 2.5)
PROBES = (
    # The shape the index serves, one constant of each kind ...
    "m = 1", "m = 1.0", "m = '1'", "m = NULL", "m = 0", "m = 2.5",
    "a = 1", "a = 1.0", "a = '1'", "b = 1", "s = '1'", "s = 1",
    "a = 2 AND s LIKE 'n%'", "a = 1 AND b > 0.5 AND s IS NOT NULL",
    # ... leading an AND whose later operand raises on some rows ...
    "a = 1 AND s < 5", "m = 'x' AND m < 3",
    # ... and the shapes that must keep the full walk.
    "s < 5 AND a = 1", "a = 1 OR s = 'n3'", "NOT a = 1", "1 = a",
    "zz = 1", "zz = 1 AND a = 1", "a = 1 AND zz = 1", "a != 1", None,
)


def _index_engine() -> Engine:
    """A table whose ``m`` column holds every kind of scalar at once
    (no INSERT would coerce them in; an initial state can carry them)."""
    engine = Engine()
    engine.tables["t"] = engine_mod.Table(
        "t", ["id", "a", "b", "s", "m"],
        {"id": "INT", "a": "INT", "b": "FLOAT", "s": "TEXT", "m": "TEXT"},
        "id", "id", len(MIXED),
        [{"id": index + 1, "a": index % 3, "b": float(index % 2),
          "s": f"n{index}", "m": value}
         for index, value in enumerate(MIXED)],
    )
    engine.tables["empty"] = engine_mod.Table(
        "empty", ["id", "a"], {"id": "INT", "a": "INT"}, "id", "id", 0, [])
    return engine


def _random_transaction(rng: random.Random) -> tuple[tuple[str, ...], bool]:
    queries = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        a, key = rng.randrange(4), rng.randrange(1, 14)
        if kind == 0:
            queries.append(
                f"INSERT INTO t (a, b, s, m) VALUES ({a}, {a}.0, "
                f"'{a}', '{a}')")
        elif kind == 1:  # the probed column changes bucket
            queries.append(f"UPDATE t SET a = {a}, m = {a} WHERE a = "
                           f"{rng.randrange(4)}")
        elif kind == 2:  # ... or a row is rewritten without changing it
            queries.append(f"UPDATE t SET s = 'u{key}' WHERE id = {key} "
                           f"AND a = {a}")
        elif kind == 3:
            queries.append(f"DELETE FROM t WHERE id = {key}")
        else:
            queries.append(f"INSERT INTO empty (a) VALUES ({a})")
    marker = rng.choice(("COMMIT", "COMMIT", "ROLLBACK", None))
    if marker:
        queries.append(marker)
    return tuple(queries), rng.random() < 0.8


def _without_index(vdb: VersionedDB) -> VersionedDB:
    for table in vdb.tables.values():
        table.candidates = lambda where, rows=table.rows: rows.values()
    return vdb


def _probe(vdb: VersionedDB, table: str, where: str | None, ts: int):
    sql = f"SELECT * FROM {table}" + (f" WHERE {where}" if where else "")
    rows = outcome(lambda: _typed(vdb.do_query(sql, ts).rows))
    versions = outcome(lambda: [
        (start, _typed([row])) for row, start in
        vdb.select_versions(sql, ts)])
    return rows, versions


@pytest.mark.parametrize("seed", range(6))
def test_indexed_scans_equal_the_full_walk(seed):
    rng = random.Random(seed)
    indexed, walked = VersionedDB(), VersionedDB()
    indexed.load_initial(_index_engine())
    walked.load_initial(_index_engine())
    _without_index(walked)
    serving = _index_engine()
    last_ts = 0
    for seq in range(1, 41):
        queries, succeeded = _random_transaction(rng)
        record = OpRecord(f"r{seq}", 1, OpType.DB_OP, (queries, succeeded))
        indexed._redo_transaction(seq, record)
        walked._redo_transaction(seq, record)
        last_ts = (seq + 1) * MAXQ
        if succeeded and queries[-1] != "ROLLBACK":
            for sql in queries:
                if sql != "COMMIT":
                    serving.execute(parse_sql(sql))
        # Probes between the writes: an index is built on the first
        # probe of its column and maintained by every write after it.
        for _ in range(6):
            where = rng.choice(PROBES)
            ts = rng.choice((0, rng.randrange(last_ts + 1), last_ts))
            for table in ("t", "empty"):
                assert (_probe(indexed, table, where, ts)
                        == _probe(walked, table, where, ts)), (where, ts)
    assert indexed.results == walked.results
    assert indexed.version_count() == walked.version_count()
    # Every probe once more, everywhere in time at once, and at the end
    # against the engine the serving side runs (it has no index).
    for where in PROBES:
        for ts in (0, MAXQ, last_ts // 2, last_ts - 1, last_ts):
            assert (_probe(indexed, "t", where, ts)
                    == _probe(walked, "t", where, ts)), (where, ts)
        sql = "SELECT * FROM t" + (f" WHERE {where}" if where else "")
        assert (outcome(lambda: _typed(indexed.do_query(sql, last_ts).rows))
                == outcome(lambda: _typed(
                    serving.execute(parse_sql(sql)).rows))), where
    used = {column for table in indexed.tables.values()
            for column, index in table.eq_index.items() if index is not None}
    assert used >= {"a", "b", "s", "m", "id"}
    assert indexed.tables["t"].eq_index["zz"] is None
    assert not any(table.eq_index for table in walked.tables.values())


def test_index_buckets_follow_python_equality():
    """``1``, ``1.0`` and ``True`` are one bucket, ``'1'`` another, and
    NULL is in none: what ``operator.eq`` under the compiled predicate
    says of the same values."""
    vdb = VersionedDB()
    vdb.load_initial(_index_engine())

    def ids(where):
        return [row["id"] for row in
                vdb.do_query(f"SELECT id FROM t WHERE {where}", 0).rows]

    assert ids("m = 1") == ids("m = 1.0") == [1, 2, 3]
    assert ids("m = '1'") == [4]
    assert ids("m = NULL") == []
    index = vdb.tables["t"].eq_index["m"]
    assert [row.row_id for row in index[1]] == [1, 2, 3]
    assert None not in index and len(index) == 5
    # A NULL constant matches nothing and is no reason to build one.
    assert ids("b = NULL") == [] and "b" not in vdb.tables["t"].eq_index
