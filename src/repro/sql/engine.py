"""The live (current-state) storage engine.

Tables hold rows as dicts keyed by column name; row order is insertion
order, so SELECT without ORDER BY is deterministic — essential because the
verifier recomputes results and compares outputs byte-for-byte.

Auto-increment ids are assigned deterministically (max existing + 1).  The
paper records MySQL auto-increment ids as non-determinism reports (§4.6);
our engine is deterministic, so the verifier *recomputes* them instead of
trusting a report — strictly stronger, and documented in EXPERIMENTS.md.
"""

from __future__ import annotations

import bisect
import operator
import re
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator, Sequence
from functools import lru_cache

from repro.common.errors import SqlError
from repro.sql.ast import (
    Aggregate,
    BinaryOp,
    BoolOp,
    ColumnRef,
    Comparison,
    CreateTable,
    Delete,
    Expr,
    InList,
    Insert,
    IsNull,
    Literal,
    NotOp,
    OrderItem,
    Select,
    SelectItem,
    Statement,
    Update,
)
from repro.sql.eqindex import EqualityIndex

Row = dict[str, object]


@dataclass
class StmtResult:
    """Result of one statement.

    ``rows`` for SELECT; ``affected`` for UPDATE/DELETE/INSERT;
    ``last_insert_id`` for INSERT into a table with an auto-increment key.
    Equality is by value so that redo-recorded results can be compared.
    """

    rows: list[Row] | None = None
    affected: int = 0
    last_insert_id: int | None = None

    def scalar(self) -> object:
        """First column of the first row (for aggregate queries)."""
        if not self.rows:
            return None
        first = self.rows[0]
        for value in first.values():
            return value
        return None


@dataclass
class Table:
    name: str
    columns: list[str]
    types: dict[str, str]
    primary_key: str | None = None
    auto_column: str | None = None
    auto_counter: int = 0
    rows: list[Row] = field(default_factory=list)
    #: Each row's id, ascending (parallel to ``rows``), never reused:
    #: what the equality index files.
    ids: list[int] = field(init=False, compare=False, repr=False)
    last_id: int = field(init=False, compare=False, repr=False)
    eq_index: EqualityIndex = field(
        init=False, compare=False, repr=False, default_factory=EqualityIndex)

    def __post_init__(self) -> None:
        self.ids = list(range(1, len(self.rows) + 1))
        self.last_id = len(self.rows)

    def clone(self) -> Table:
        """Rows of its own, the same ids, an index built afresh."""
        twin = Table(
            self.name,
            list(self.columns),
            dict(self.types),
            self.primary_key,
            self.auto_column,
            self.auto_counter,
            [dict(row) for row in self.rows],
        )
        twin.ids, twin.last_id = list(self.ids), self.last_id
        return twin

    def add(self, row: Row) -> None:
        self.last_id += 1
        self.rows.append(row)
        self.ids.append(self.last_id)
        self.eq_index.note(self.last_id, row)

    def candidates(self, where: Expr | None) -> list[int] | None:
        """Positions in ``rows`` a scan for ``where`` must look at: the
        index's bucket less deleted rows (dropped from it), or ``None``."""
        bucket = self.eq_index.probe(where, lambda: zip(self.ids, self.rows))
        if bucket is None:
            return None
        ids, positions = self.ids, []
        for row_id in bucket:
            at = bisect.bisect_left(ids, row_id)
            if at < len(ids) and ids[at] == row_id:
                positions.append(at)
        if len(positions) < len(bucket):
            bucket[:] = [ids[at] for at in positions]
        return positions


#: The caches below are keyed by strings and expressions that come out of
#: the audited bundle (LIKE patterns are request parameters); like the
#: parser's statement cache they hold at most this many entries, so a
#: hostile bundle cannot grow the auditor without limit.
_CACHE_LIMIT = 65536


@lru_cache(maxsize=_CACHE_LIMIT)
def _like_pattern(pattern: str) -> re.Pattern[str]:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE | re.DOTALL)


# -- expressions ---------------------------------------------------------------


def _sql_div(left, right):
    if right == 0:
        return None
    if isinstance(left, int) and isinstance(right, int):
        return left // right
    return left / right


def _like(value, pattern):
    return _like_pattern(str(pattern)).match(str(value)) is not None


def _ordering(test):
    def apply(left, right):
        try:
            return test(left, right)
        except TypeError as exc:
            raise SqlError(
                f"cannot compare {type(left).__name__} with "
                f"{type(right).__name__}"
            ) from exc

    return apply


#: operator -> function of two non-NULL operands.
_ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _sql_div,
    "%": lambda left, right: None if right == 0 else left % right,
}
_COMPARISONS = {
    "=": operator.eq, "!=": operator.ne, "LIKE": _like,
    "<": _ordering(operator.lt), "<=": _ordering(operator.le),
    ">": _ordering(operator.gt), ">=": _ordering(operator.ge),
}


@lru_cache(maxsize=_CACHE_LIMIT)
def _column(name: str) -> Callable[[Row | None], object]:
    """One closure per column name, shared by every statement naming it."""
    def column(row):
        try:
            return row[name]
        except (KeyError, TypeError):  # TypeError: no row (INSERT values)
            raise SqlError(f"unknown column {name!r}") from None

    return column


def _raiser(message: str) -> Callable[..., object]:
    def fail(*_args):
        raise SqlError(message)

    return fail


def _compile(expr: Expr) -> Callable[[Row | None], object]:
    """``expr`` as a closure over one row: which node, which operator
    and which column are decided here, once, instead of per row.
    :func:`eval_expr` states the semantics."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ColumnRef):
        return _column(expr.name)
    if isinstance(expr, (BinaryOp, Comparison)):
        if isinstance(expr, BinaryOp):
            on_null = None
            apply = _ARITHMETIC.get(expr.op) or _raiser(
                f"unknown operator {expr.op!r}")
        else:
            on_null = False  # a comparison with NULL is false
            apply = _COMPARISONS.get(expr.op) or _raiser(
                f"unknown comparison {expr.op!r}")
        left = _compile(expr.left)
        if isinstance(expr.right, Literal):
            # ``<expr> OP constant``, the usual WHERE: one call per row
            # fewer, and one closure per cached statement fewer.
            constant = expr.right.value

            def binary_constant(row):
                lhs = left(row)
                if lhs is None or constant is None:
                    return on_null
                return apply(lhs, constant)

            return binary_constant
        right = _compile(expr.right)

        def binary(row):
            lhs, rhs = left(row), right(row)
            if lhs is None or rhs is None:
                return on_null
            return apply(lhs, rhs)

        return binary
    if isinstance(expr, BoolOp):
        operands = [_compile(operand) for operand in expr.operands]
        # AND is settled by its first false operand, OR by its first true.
        settles = expr.op != "AND"

        def connective(row):
            for operand in operands:
                if (not operand(row)) is not settles:
                    return settles
            return not settles

        return connective
    if isinstance(expr, NotOp):
        operand = _compile(expr.operand)
        return lambda row: not operand(row)
    if isinstance(expr, IsNull):
        operand, wanted = _compile(expr.operand), not expr.negated
        return lambda row: (operand(row) is None) is wanted
    if isinstance(expr, InList):
        operand = _compile(expr.operand)
        items = [_compile(item) for item in expr.items]
        negated = expr.negated

        def member(row):
            value = operand(row)
            return (value in [item(row) for item in items]) != negated

        return member
    if isinstance(expr, Aggregate):
        return _raiser("aggregate used outside SELECT projection")
    return _raiser(f"unknown expression node {type(expr).__name__}")


#: id(node) -> (node, what was built for it): compiled expressions and
#: SELECT projections.  The entry holds the node, so its id cannot be
#: recycled for another one while the entry is live.
_COMPILED: dict[int, tuple[object, Callable]] = {}


def _cached(node: object, build: Callable[[], Callable]) -> Callable:
    """``build()``, once per parsed node (per statement text: the parse
    is memoised)."""
    entry = _COMPILED.get(id(node))
    if entry is None:
        entry = (node, build())
        if len(_COMPILED) < _CACHE_LIMIT:
            _COMPILED[id(node)] = entry
    return entry[1]


def compile_expr(expr: Expr) -> Callable[[Row | None], object]:
    """The compiled form of ``expr``, built once per parsed expression."""
    if isinstance(expr, (ColumnRef, Literal)):
        return _compile(expr)  # a leaf: nothing a cache entry would save
    return _cached(expr, lambda: _compile(expr))


def compile_where(where: Expr | None) -> Callable[[Row], object] | None:
    return None if where is None else compile_expr(where)


def eval_expr(expr: Expr, row: Row | None) -> object:
    """Evaluate a (non-aggregate) expression against one row, once.

    The semantics, which :func:`compile_expr` shares: arithmetic with a
    NULL operand (or a zero divisor) is NULL; a comparison with NULL is
    false — SQL's three-valued logic collapsed, which is what the apps
    need; ordering two values Python cannot order, or naming a column
    the row lacks (any column, when ``row`` is ``None``: INSERT values),
    is a :class:`SqlError`; LIKE is case-insensitive with ``%`` / ``_``;
    AND / OR / NOT take Python truthiness and short-circuit.
    """
    return _compile(expr)(row)


def _coerce(value: object, type_name: str, column: str) -> object:
    if value is None:
        return None
    if type_name == "INT":
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int, float)):
            return int(value)
        try:
            return int(str(value))
        except ValueError:
            raise SqlError(
                f"cannot store {value!r} in INT column {column}"
            ) from None
    if type_name == "FLOAT":
        if isinstance(value, (int, float)):
            return float(value)
        try:
            return float(str(value))
        except ValueError:
            raise SqlError(
                f"cannot store {value!r} in FLOAT column {column}"
            ) from None
    if type_name == "TEXT":
        return value if isinstance(value, str) else str(value)
    raise SqlError(f"unknown column type {type_name}")


def _sort_key(value: object) -> tuple[int, object]:
    """Total order across NULL/number/string for ORDER BY."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


def apply_order_limit(
    rows: list[Row],
    order_by: Sequence[OrderItem],
    limit: int | None,
    offset: int | None,
) -> list[Row]:
    if order_by:
        # Stable sorts applied in reverse give lexicographic multi-key order.
        for item in reversed(order_by):
            rows = sorted(
                rows,
                key=lambda row, col=item.column: _sort_key(row.get(col)),
                reverse=item.descending,
            )
    if offset:
        rows = rows[offset:]
    if limit is not None:
        rows = rows[:limit]
    return rows


def project_rows(
    items: tuple[SelectItem, ...], matched: list[Row]
) -> list[Row]:
    """Apply the SELECT projection (including aggregates) to matched rows."""
    return _cached(items, lambda: _projection(items))(matched)


def _projection(items: tuple[SelectItem, ...]
                ) -> Callable[[list[Row]], list[Row]]:
    """The SELECT list ``items`` as one function of the matched rows."""
    if not items:  # SELECT *
        return lambda matched: [dict(row) for row in matched]
    names = [item.alias or _item_name(item, index)
             for index, item in enumerate(items)]
    if any(isinstance(item.expr, Aggregate) for item in items):

        def aggregate(matched: list[Row]) -> list[Row]:
            out: Row = {}
            for name, item in zip(names, items):
                if isinstance(item.expr, Aggregate):
                    out[name] = _eval_aggregate(item.expr, matched)
                else:
                    out[name] = (eval_expr(item.expr, matched[0])
                                 if matched else None)
            return [out]

        return aggregate
    columns = [(name, compile_expr(item.expr))
               for name, item in zip(names, items)]
    return lambda matched: [{name: value(row) for name, value in columns}
                            for row in matched]


def _item_name(item: SelectItem, index: int) -> str:
    if isinstance(item.expr, ColumnRef):
        return item.expr.name
    if isinstance(item.expr, Aggregate):
        column = item.expr.column or "*"
        return f"{item.expr.func.lower()}({column})"
    return f"expr{index}"


def _eval_aggregate(agg: Aggregate, matched: list[Row]) -> object:
    if agg.func == "COUNT":
        if agg.column is None:
            return len(matched)
        return sum(1 for row in matched if row.get(agg.column) is not None)
    values = [
        row[agg.column]
        for row in matched
        if agg.column in row and row[agg.column] is not None
    ]
    if not values:
        return None
    if agg.func == "MAX":
        return max(values)
    if agg.func == "MIN":
        return min(values)
    if agg.func == "SUM":
        return sum(values)
    if agg.func == "AVG":
        return sum(values) / len(values)
    raise SqlError(f"unknown aggregate {agg.func}")


def insert_rows(table, stmt: Insert) -> Iterator[tuple[Row, int | None]]:
    """The rows ``stmt`` adds to ``table`` (a live :class:`Table` or the
    versioned store's), one at a time, each with its auto-increment id
    (``None`` without such a column); advances the table's counter."""
    for values in stmt.values:
        columns = stmt.columns or tuple(table.columns)
        if len(columns) != len(values):
            raise SqlError(
                f"INSERT into {table.name}: {len(columns)} columns but "
                f"{len(values)} values"
            )
        row: Row = {col: None for col in table.columns}
        for col, expr in zip(columns, values):
            if col not in table.types:
                raise SqlError(
                    f"unknown column {col!r} in table {table.name!r}"
                )
            row[col] = _coerce(eval_expr(expr, None), table.types[col], col)
        ident = None
        if table.auto_column:
            ident = row[table.auto_column]
            if ident is None:
                table.auto_counter += 1
                ident = row[table.auto_column] = table.auto_counter
            else:
                assert isinstance(ident, int)
                table.auto_counter = max(table.auto_counter, ident)
        yield row, ident


def _scan(table: Table, where: Expr | None) -> list[int]:
    """Positions in ``table.rows`` of the rows ``where`` accepts."""
    accepts = compile_where(where)
    rows = table.rows
    positions = table.candidates(where)
    if positions is None:
        positions = range(len(rows))
    if accepts is None:
        return list(positions)
    return [at for at in positions if accepts(rows[at])]


class Engine:
    """Executes parsed statements against in-memory tables."""

    def __init__(self) -> None:
        self.tables: dict[str, Table] = {}

    # -- schema -----------------------------------------------------------

    def create_table(self, stmt: CreateTable) -> StmtResult:
        if stmt.table in self.tables:
            if stmt.if_not_exists:
                return StmtResult(affected=0)
            raise SqlError(f"table {stmt.table!r} already exists")
        columns = [col.name for col in stmt.columns]
        types = {col.name: col.type_name for col in stmt.columns}
        primary = next(
            (col.name for col in stmt.columns if col.primary_key), None
        )
        auto = next(
            (col.name for col in stmt.columns if col.auto_increment), None
        )
        if auto is not None and types[auto] != "INT":
            raise SqlError("AUTOINCREMENT requires an INT column")
        self.tables[stmt.table] = Table(stmt.table, columns, types, primary,
                                        auto)
        return StmtResult(affected=0)

    def _table(self, name: str) -> Table:
        table = self.tables.get(name)
        if table is None:
            raise SqlError(f"no such table {name!r}")
        return table

    # -- statements ---------------------------------------------------------

    def execute(self, stmt: Statement) -> StmtResult:
        if isinstance(stmt, Select):
            return self.select(stmt)
        if isinstance(stmt, Insert):
            return self.insert(stmt)
        if isinstance(stmt, Update):
            return self.update(stmt)
        if isinstance(stmt, Delete):
            return self.delete(stmt)
        if isinstance(stmt, CreateTable):
            return self.create_table(stmt)
        raise SqlError(
            f"engine cannot execute {type(stmt).__name__} directly"
        )

    def select(self, stmt: Select) -> StmtResult:
        table = self._table(stmt.table)
        where = compile_where(stmt.where)
        positions = table.candidates(stmt.where)
        rows = table.rows
        if positions is not None:
            rows = [rows[at] for at in positions]
        matched = [row for row in rows if where is None or where(row)]
        matched = apply_order_limit(
            matched, stmt.order_by, stmt.limit, stmt.offset
        )
        return StmtResult(rows=project_rows(stmt.items, matched))

    def insert(self, stmt: Insert) -> StmtResult:
        table = self._table(stmt.table)
        last_id: int | None = None
        for row, last_id in insert_rows(table, stmt):
            table.add(row)
        return StmtResult(affected=len(stmt.values), last_insert_id=last_id)

    def update(self, stmt: Update) -> StmtResult:
        table = self._table(stmt.table)
        affected = 0
        assignments = [
            (col, compile_expr(expr)) for col, expr in stmt.assignments
        ]
        for at in _scan(table, stmt.where):
            row = table.rows[at]
            new_values = {
                col: _coerce(value(row), table.types[col], col)
                for col, value in assignments
            }
            row.update(new_values)
            table.eq_index.note(table.ids[at], row)
            affected += 1
        return StmtResult(affected=affected)

    def delete(self, stmt: Delete) -> StmtResult:
        table = self._table(stmt.table)
        doomed = _scan(table, stmt.where)
        if doomed:
            gone = set(doomed)
            table.rows = [row for at, row in enumerate(table.rows)
                          if at not in gone]
            table.ids = [row_id for at, row_id in enumerate(table.ids)
                         if at not in gone]
        return StmtResult(affected=len(doomed))

    # -- snapshot / restore (transaction rollback, baselines) ---------------

    def snapshot(self) -> dict[str, Table]:
        return {name: table.clone() for name, table in self.tables.items()}

    def restore(self, snap: dict[str, Table]) -> None:
        self.tables = {name: table.clone() for name, table in snap.items()}

    def deep_copy(self) -> Engine:
        twin = Engine()
        twin.tables = self.snapshot()
        return twin

    def row_count(self) -> int:
        return sum(len(table.rows) for table in self.tables.values())

    def size_bytes(self) -> int:
        """Rough size of the current state (for Figure 8's DB overhead)."""
        total = 0
        for table in self.tables.values():
            for row in table.rows:
                for value in row.values():
                    if isinstance(value, str):
                        total += len(value)
                    else:
                        total += 8
        return total
