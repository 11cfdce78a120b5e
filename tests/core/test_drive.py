"""The audit's one driver loop (:func:`repro.core.ooo.drive`): each
intent a run yields is answered once per slot, slot ``i`` by request
``rids[i]``'s own handler and cursor."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.common.errors import AuditReject, RejectReason, WeblangError
from repro.core.ooo import drive
from repro.lang.interp import (
    ExternalIntent,
    NondetIntent,
    RunOutput,
    StateOpIntent,
)
from repro.trace.events import ExternalRequest

RIDS = ["r0", "r1", "r2"]


class _Handler:
    """An operation handler that notes what it is handed."""

    def __init__(self, slot: int):
        self.slot = slot
        self.seen: list[tuple] = []

    def handle(self, kind, obj, args):
        self.seen.append((kind, obj, args))
        return f"{kind}@{self.slot}"


class _Cursor:
    """A non-determinism cursor that notes what it is asked for."""

    def __init__(self, slot: int):
        self.slot = slot
        self.seen: list[tuple] = []

    def next(self, func, args):
        self.seen.append((func, args))
        return 10 * self.slot


def _script(replies: list):
    """A run over three slots yielding each intent kind (externals
    twice), noting every reply it is sent."""
    replies.append((yield StateOpIntent(
        "kv_get", ["kv:0", "kv:1", "kv:2"], [("a",), ("b",), ("c",)])))
    replies.append((yield NondetIntent("rand", [(1,), (2,), (3,)])))
    replies.append((yield ExternalIntent(
        ["email", "sms", "email"], [("x",), ("y",), ("z",)])))
    replies.append((yield ExternalIntent(["email"] * 3, [("again",)] * 3)))
    return RunOutput(["b0", "b1", "b2"], 4)


def _drive(gen):
    handlers = [_Handler(slot) for slot in range(3)]
    cursors = [_Cursor(slot) for slot in range(3)]
    ctx = SimpleNamespace(produced_externals={})
    return drive(gen, RIDS, handlers, cursors, ctx), handlers, cursors, ctx


def test_each_slot_is_answered_by_its_own_handler_and_cursor():
    replies: list = []
    output, handlers, cursors, ctx = _drive(_script(replies))
    assert output == RunOutput(["b0", "b1", "b2"], 4)
    assert [handler.seen for handler in handlers] == [
        [("kv_get", "kv:0", ("a",))],
        [("kv_get", "kv:1", ("b",))],
        [("kv_get", "kv:2", ("c",))],
    ]
    assert [cursor.seen for cursor in cursors] == [
        [("rand", (1,))], [("rand", (2,))], [("rand", (3,))]]
    assert replies == [["kv_get@0", "kv_get@1", "kv_get@2"], [0, 10, 20],
                       [True] * 3, [True] * 3]


def test_each_rids_externals_are_recorded_in_order():
    _, _, _, ctx = _drive(_script([]))
    assert ctx.produced_externals == {
        "r0": [ExternalRequest("r0", "email", ("x",)),
               ExternalRequest("r0", "email", ("again",))],
        "r1": [ExternalRequest("r1", "sms", ("y",)),
               ExternalRequest("r1", "email", ("again",))],
        "r2": [ExternalRequest("r2", "email", ("z",)),
               ExternalRequest("r2", "email", ("again",))],
    }


def test_an_unknown_intent_is_an_unexpected_event():
    def stray():
        yield object()

    with pytest.raises(AuditReject) as reject:
        _drive(stray())
    assert reject.value.reason is RejectReason.UNEXPECTED_EVENT


def test_what_the_run_raises_propagates():
    def failing():
        yield NondetIntent("rand", [(), (), ()])
        raise WeblangError("boom")

    with pytest.raises(WeblangError, match="boom"):
        _drive(failing())
