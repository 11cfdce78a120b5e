"""Model-based property test: the SQL engine against a plain-Python model.

Random sequences of INSERT/UPDATE/DELETE/SELECT are applied both to the
engine and to a list-of-dicts model with hand-rolled predicate logic; all
observable results must agree.  Statements that lead with ``column =
constant`` run through the engine's equality index, so they come with
constants of every kind, with writes that move rows between its buckets,
and inside transactions that roll back.
"""

from __future__ import annotations

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import engine as engine_mod
from repro.sql.database import Database
from repro.sql.engine import Engine
from repro.sql.parser import parse_script, parse_sql

SETUP = "CREATE TABLE t (id INT PRIMARY KEY AUTOINCREMENT, v INT, s TEXT)"


class Model:
    """Reference implementation: a list of row dicts."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self.auto = 0

    def insert(self, v: int | None, s: str) -> None:
        self.auto += 1
        self.rows.append({"id": self.auto, "v": v, "s": s})

    def update_v(self, new: int, vmin: int) -> int:
        hit = 0
        for row in self.rows:
            if row["v"] is not None and row["v"] >= vmin:
                row["v"] = new
                hit += 1
        return hit

    def add_v(self, delta: int, ident: int) -> int:
        hit = 0
        for row in self.rows:
            if row["id"] == ident and row["v"] is not None:
                row["v"] += delta
                hit += 1
        return hit

    def delete(self, vmax: int) -> int:
        before = len(self.rows)
        self.rows = [
            row for row in self.rows
            if not (row["v"] is not None and row["v"] < vmax)
        ]
        return before - len(self.rows)

    def where_eq(self, column: str, constant: object,
                 vmin: int | None = None) -> list[dict]:
        """``column = constant [AND v > vmin]``: Python ``==``, as the
        engine's ``=`` is; NULL equals nothing."""
        return [
            row for row in self.rows
            if constant is not None and row[column] == constant
            and (vmin is None or (row["v"] is not None and row["v"] > vmin))
        ]

    def select_all(self) -> list[dict]:
        return [dict(row) for row in self.rows]

    def select_where(self, vmin: int) -> list[dict]:
        return [
            {"id": row["id"], "s": row["s"]}
            for row in self.rows
            if row["v"] is not None and row["v"] > vmin
        ]

    def count(self) -> int:
        return len(self.rows)


def _constant(rng: random.Random, column: str,
              model: Model) -> tuple[str, object]:
    """``id = K`` / ``s = 'x'`` constants of every kind — an int, a float
    equal to one, a string an INT column never equals, and NULL — as
    SQL and as the value the model compares with; ids mostly live."""
    if column == "id":
        value = rng.choice([row["id"] for row in model.rows]
                           + [rng.randint(0, 12)])
        return rng.choice([(str(value), value), (f"{value}.0", float(value)),
                           (f"'{value}'", str(value)), ("NULL", None)])
    text = rng.choice(["x", "y", "z", "o'k"])
    return rng.choice([("'" + text.replace("'", "''") + "'", text),
                       ("1", 1), ("NULL", None)])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_ops=st.integers(min_value=0, max_value=30),
)
def test_engine_matches_model(seed, n_ops):
    rng = random.Random(seed)
    db = Database("db")
    db.setup(SETUP)
    model = Model()
    saved: tuple[list[dict], int] | None = None  # the open transaction's

    def q(sql):
        return db.execute("r", 1, sql)

    # Build both indexes now, so every write below has to keep them.
    assert q("SELECT * FROM t WHERE id = 1").rows == []
    assert q("SELECT * FROM t WHERE s = 'x'").rows == []
    for _ in range(n_ops):
        choice = rng.choices(range(11), (3, 1, 1, 1, 1, 1, 2, 2, 1, 1, 1))[0]
        if choice == 0:
            v = rng.randint(-5, 15)
            s = rng.choice(["x", "y", "o'k"])
            escaped = s.replace("'", "''")
            result = q(f"INSERT INTO t (v, s) VALUES ({v}, '{escaped}')")
            model.insert(v, s)
            assert result.last_insert_id == model.auto
        elif choice == 1:
            new, vmin = rng.randint(-5, 15), rng.randint(-5, 15)
            result = q(f"UPDATE t SET v = {new} WHERE v >= {vmin}")
            assert result.affected == model.update_v(new, vmin)
        elif choice == 2:
            delta, ident = rng.randint(-3, 3), rng.randint(1, 10)
            result = q(f"UPDATE t SET v = v + {delta} WHERE id = {ident}")
            assert result.affected == model.add_v(delta, ident)
        elif choice == 3:
            vmax = rng.randint(-5, 15)
            result = q(f"DELETE FROM t WHERE v < {vmax}")
            assert result.affected == model.delete(vmax)
        elif choice == 4:
            assert q("SELECT * FROM t").rows == model.select_all()
        elif choice == 5:
            vmin = rng.randint(-5, 15)
            assert (
                q(f"SELECT id, s FROM t WHERE v > {vmin}").rows
                == model.select_where(vmin)
            )
        elif choice == 6:  # indexed SELECTs
            column = rng.choice(["id", "s"])
            sql_constant, constant = _constant(rng, column, model)
            vmin = rng.choice([None, rng.randint(-5, 15)])
            tail = "" if vmin is None else f" AND v > {vmin}"
            assert (q(f"SELECT * FROM t WHERE {column} = {sql_constant}"
                      f"{tail}").rows
                    == model.where_eq(column, constant, vmin))
        elif choice == 7:  # a row moves between ``s`` buckets
            sql_constant, constant = _constant(rng, "id", model)
            new = rng.choice(["x", "y", "z"])
            hit = model.where_eq("id", constant)
            result = q(f"UPDATE t SET s = '{new}' WHERE id = {sql_constant}")
            for row in hit:
                row["s"] = new
            assert result.affected == len(hit)
        elif choice == 8:  # indexed DELETEs
            column = rng.choice(["id", "s"])
            sql_constant, constant = _constant(rng, column, model)
            vmin = rng.randint(-5, 15) if column == "s" else None
            tail = "" if vmin is None else f" AND v > {vmin}"
            hit = model.where_eq(column, constant, vmin)
            result = q(f"DELETE FROM t WHERE {column} = {sql_constant}{tail}")
            model.rows = [row for row in model.rows if row not in hit]
            assert result.affected == len(hit)
        elif choice == 9 and saved is None:
            db.begin("r", 1)
            saved = copy.deepcopy(model.rows), model.auto
        elif choice == 10 and saved is not None:
            if rng.random() < 0.5:
                db.rollback("r")
                model.rows, model.auto = saved
            else:
                assert db.commit("r")
            saved = None
    if saved is not None:
        db.rollback("r")
        model.rows, model.auto = saved
    assert not db.in_transaction("r")
    for ident in range(1, model.auto + 2):  # the indexes, after it all
        assert (q(f"SELECT * FROM t WHERE id = {ident}").rows
                == model.where_eq("id", ident))
    for text in ("x", "y", "z"):
        assert (q(f"SELECT * FROM t WHERE s = '{text}'").rows
                == model.where_eq("s", text))
    assert q("SELECT COUNT(*) AS n FROM t").rows == [{"n": model.count()}]
    ordered = q("SELECT id FROM t ORDER BY v DESC, id").rows
    expected = sorted(
        model.rows,
        key=lambda row: (
            -(row["v"] if row["v"] is not None else float("-inf")),
            row["id"],
        ),
    )
    # NULLs sort first ascending => last descending under our total order?
    # Our _sort_key puts None lowest; DESC reverses, so None rows come
    # first in DESC order.  Compute expected with the same rule:
    expected = sorted(model.rows, key=lambda row: row["id"])
    expected = sorted(
        expected,
        key=lambda row: (0, 0) if row["v"] is None else (1, row["v"]),
        reverse=True,
    )
    assert [r["id"] for r in ordered] == [r["id"] for r in expected]


def test_an_indexed_select_looks_at_fewer_rows_than_the_table_holds(
        monkeypatch):
    engine = Engine()
    for stmt in parse_script(SETUP):
        engine.execute(stmt)
    for index in range(40):
        engine.execute(parse_sql(
            f"INSERT INTO t (v, s) VALUES ({index % 4}, 'x')"))
    engine.execute(parse_sql("UPDATE t SET s = 'y' WHERE id = 7"))
    engine.execute(parse_sql("DELETE FROM t WHERE id = 9"))
    looked_at = []

    def counting(where):
        accepts = compile_where(where)
        return None if accepts is None else (
            lambda row: looked_at.append(row["id"]) or accepts(row))

    compile_where = engine_mod.compile_where
    monkeypatch.setattr(engine_mod, "compile_where", counting)
    rows = engine.execute(parse_sql(
        "SELECT id FROM t WHERE s = 'y' AND v > 0")).rows
    assert rows == [{"id": 7}]
    assert looked_at == [7]
    looked_at.clear()
    assert engine.execute(parse_sql(
        "SELECT id FROM t WHERE id = 9")).rows == []
    assert looked_at == []  # deleted: skipped before the predicate
    looked_at.clear()
    assert len(engine.execute(parse_sql(
        "SELECT id FROM t WHERE v > 2")).rows) == 10
    assert len(looked_at) == 39  # no leading equality: every row
