"""Operation records and the shared-object interface (Section 3.3).

Every shared object is labeled with an index ``i`` (here: a string name such
as ``"db:main"``, ``"kv:apc"``, or ``"reg:sess:alice"``).  The operation log
for object ``i``, denoted ``OL_i``, is a sequence of entries::

    OL_i : N+ -> (requestID, opnum, optype, opcontents)

``opnum`` is per-request and assigned by a correct executor as the request
executes; an operation is identified by the unique pair ``(rid, opnum)``.
The shape of ``opcontents`` depends on ``optype`` (Figure 12's table):

=================  =====================================================
optype             opcontents
=================  =====================================================
RegisterRead       ``()``  (empty)
RegisterWrite      ``(value,)``
KvGet              ``(key,)``
KvSet              ``(key, value)``
DBOp               ``(queries_tuple, succeeded)`` — all SQL statements of
                   the transaction, plus whether it committed (§4.6, §A.7)
=================  =====================================================

``opcontents`` values must compare by value (CheckOp's equality test,
Figure 12 line 14), so they are plain tuples of primitives.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class OpType(enum.Enum):
    REGISTER_READ = "RegisterRead"
    REGISTER_WRITE = "RegisterWrite"
    KV_GET = "KvGet"
    KV_SET = "KvSet"
    DB_OP = "DBOp"


class OpRecord(NamedTuple):
    """One entry of an operation log ``OL_i``: a tuple, so a decoder can
    make one per row without a Python call."""

    rid: str
    opnum: int
    optype: OpType
    opcontents: tuple

    def size_bytes(self) -> int:
        """Approximate serialized size, for report-overhead accounting."""
        return (
            len(self.rid)
            + 4  # opnum
            + 1  # optype tag
            + _contents_bytes(self.opcontents)
        )


def _contents_bytes(value: object) -> int:
    if isinstance(value, tuple):
        return 2 + sum(_contents_bytes(item) for item in value)
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bool) or value is None:
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    return len(str(value))


class StateObject:
    """Base class for live (server-side) shared objects.

    Subclasses expose blocking, atomic operations (Section 3.2).  In the
    simulated executor, atomicity holds because the scheduler performs one
    object operation at a time; blocking (for multi-statement transactions)
    is modeled by the object refusing to admit other requests while held —
    see :class:`repro.sql.database.Database`.
    """

    def __init__(self, name: str):
        self.name = name

    def snapshot(self) -> object:
        """Deep-copyable snapshot of current state (for baselines/tests)."""
        raise NotImplementedError

    def restore(self, snap: object) -> None:
        raise NotImplementedError
