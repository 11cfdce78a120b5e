"""The equality index under both SQL engines.

A scan whose WHERE is, or whose top-level AND starts with, ``column =
constant`` looks only at the rows in that constant's *bucket*: every
row that has ever held the value in that column, in row order.  It is a
superset — the caller skips rows that are gone and still runs the whole
predicate — so a probe returns what the full walk returns, in its
order.  The live :class:`~repro.sql.engine.Table` files row ids, the
versioned store its logical rows; either needs ``<`` and ``!=``.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Iterable

from repro.sql.ast import BoolOp, ColumnRef, Comparison, Expr, Literal

Row = dict[str, object]

#: One column's buckets: value -> the rows that ever held it, in order.
Buckets = dict[object, list]


def leading_equality(where: Expr | None) -> tuple[str, object] | None:
    """``(column, constant)`` when ``where`` is, or its top-level AND
    starts with, ``column = constant`` (constant not NULL).  Only the
    *leading* conjunct qualifies: AND stops at its first false operand,
    so a row that fails it is rejected before any later operand — one
    that might raise :class:`SqlError` on that row — is looked at."""
    if isinstance(where, BoolOp) and where.op == "AND":
        where = where.operands[0]
    if (isinstance(where, Comparison) and where.op == "="
            and isinstance(where.left, ColumnRef)
            and isinstance(where.right, Literal)
            and where.right.value is not None):
        return where.left.name, where.right.value
    return None


class EqualityIndex(dict[str, Buckets | None]):
    """column -> its buckets, built on the first probe of that column;
    ``None`` marks a column that cannot be indexed (a row lacks it, or
    holds a value a dict cannot key) and keeps the full walk, with
    whatever the predicate raises there."""

    def note(self, row: object, values: Row) -> None:
        """File ``row`` under what ``values`` holds in each indexed
        column: every row a table adds or rewrites comes through here."""
        for column, buckets in self.items():
            if buckets is not None and not _file(buckets, row, values,
                                                 column):
                self[column] = None

    def probe(self, where: Expr | None,
              rows: Callable[[], Iterable[tuple[object, Row]]]
              ) -> list | None:
        """The bucket a scan for ``where`` must look at, or ``None`` for
        all rows; ``rows()`` yields every ``(row, values)`` filed so far,
        to build a column's buckets from.  Python ``==`` and ``hash``
        agree on SQL's scalars (``1``, ``1.0`` and ``True`` share a
        bucket, ``'1'`` has its own), as the predicate's ``=`` does."""
        probe = leading_equality(where)
        if probe is None:
            return None
        column, constant = probe
        if column not in self:
            self[column] = _build(column, rows())
        buckets = self[column]
        return None if buckets is None else buckets.get(constant, [])


def _build(column: str, rows: Iterable[tuple[object, Row]]
           ) -> Buckets | None:
    buckets: Buckets = {}
    for row, values in rows:
        if not _file(buckets, row, values, column):
            return None
    return buckets


def _file(buckets: Buckets, row: object, values: Row, column: str) -> bool:
    """File ``row`` under the value ``values`` holds for ``column``;
    False when it has none that a dict can key."""
    try:
        value = values[column]
        bucket = buckets.get(value)
    except (KeyError, TypeError):
        return False
    if not bucket:  # none yet, or all its rows deleted
        if value is not None:  # ``column = NULL`` is never probed
            buckets[value] = [row]
    elif bucket[-1] < row:
        bucket.append(row)
    elif bucket[-1] != row:  # an older row moved in (UPDATE)
        at = bisect.bisect_left(bucket, row)
        if bucket[at] != row:
            bucket.insert(at, row)
    return True
