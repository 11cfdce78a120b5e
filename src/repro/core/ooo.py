"""Out-of-order re-execution (Figure 13; Appendix A.4).

:func:`drive` is the audit's one loop that answers a run's intents,
once per slot, feeding object reads via simulate-and-check and
non-determinism via the recorded reports; the chunk loop
(:mod:`repro.core.reexec`) drives each group through it.
:func:`execute_one` re-executes a single request — a group of one — on
the engine it is handed (the plain interpreter unless told otherwise).
It is the one per-request driver:

1. per-request fallback, on the compiled engine, when a group diverges
   or hits an unsupported SIMD case (OROCHI's retry, §4.3), and every
   chunk of the ``interp`` / ``compinterp`` backends;
2. the re-execution phase of
   :func:`~repro.core.pipeline.simple_audit`, the non-accelerated
   baseline the evaluation compares against (§5.1);
3. :func:`repro.core.patch.patch_audit`'s replay against patched code,
   with a lenient operation handler.

:func:`run_schedule` is the re-execution of OOOAudit, the audit of the
correctness proofs: it follows an explicit op schedule, interleaving
requests operation by operation.
:func:`~repro.core.pipeline.ooo_audit` runs it between the same phases
as the other two audits; the equivalence tests (Lemma 8) check it
agrees with the grouped audit.
"""

from __future__ import annotations

from repro.common.errors import AuditReject, RejectReason, WeblangError
from repro.core.graph import OPNUM_INF
from repro.core.simulate import NondetCursor, OpHandler, SimContext
from repro.lang.interp import (
    ExternalIntent,
    Interpreter,
    NondetIntent,
    RunOutput,
    StateOpIntent,
)
from repro.server.app import Application
from repro.server.executor import ERROR_BODY
from repro.trace.events import ExternalRequest, Request
from repro.trace.trace import Trace


def drive(gen, rids: list[str], handlers: list[OpHandler],
          cursors: list[NondetCursor], ctx: SimContext) -> RunOutput:
    """Run the engine generator ``gen`` over ``rids`` to its end and
    return its :class:`~repro.lang.interp.RunOutput`, answering each
    intent once per slot ("for all rid in the group", Figure 12 line
    43): slot ``i``'s state operation through ``handlers[i]``, its
    non-deterministic call from ``cursors[i]``, its outbound request as
    ``rids[i]``'s regenerated external.  What the run raises propagates.
    """
    try:
        intent = next(gen)
        while True:
            kind = type(intent)
            if kind is StateOpIntent:
                replies = [handler.handle(intent.kind, obj, args)
                           for handler, obj, args
                           in zip(handlers, intent.objs, intent.args)]
            elif kind is NondetIntent:
                replies = [cursor.next(intent.func, args)
                           for cursor, args in zip(cursors, intent.args)]
            elif kind is ExternalIntent:
                for rid, service, content in zip(rids, intent.services,
                                                 intent.contents):
                    ctx.produced_externals.setdefault(rid, []).append(
                        ExternalRequest(rid, service, content))
                replies = [True] * len(rids)
            else:
                raise AuditReject(
                    RejectReason.UNEXPECTED_EVENT,
                    f"unknown intent {intent!r}",
                )
            intent = gen.send(replies)
    except StopIteration as stop:
        return stop.value


def _oracle(app: Application) -> Interpreter:
    return Interpreter(db_name=app.db_name, kv_name=app.kv_name,
                       session_cookie=app.session_cookie, record_flow=False)


def execute_one(
    app: Application, request: Request, ctx: SimContext,
    interp=None, handler=OpHandler,
) -> str:
    """Re-execute one request to completion against the logs.

    Returns the produced body.  A deterministic application error
    reproduces the executor's fixed 500 page (and the handler checks the
    log shows the matching rollback).  ``interp`` is the engine, any
    with the :meth:`Interpreter.run` generator contract (the chunk loop
    passes the compiled engine); ``None`` means the plain interpreter.
    ``handler`` is the :class:`OpHandler` class that checks and feeds
    the request's operations (the patch replay passes a lenient one).
    """
    rid = request.rid
    handler = handler(ctx, rid)
    cursor = NondetCursor(rid, ctx.reports.nondet.get(rid, []))
    gen = (interp or _oracle(app)).run(app.script(request.script), request)
    try:
        output = drive(gen, [rid], [handler], [cursor], ctx)
    except WeblangError:
        handler.finish_error()
        return ERROR_BODY
    handler.finish()
    return output.bodies[0]


# --------------------------------------------------------------------------
# Schedule-driven OOOAudit (Figure 13, for the Lemma 8 equivalence tests)
# --------------------------------------------------------------------------

ScheduleEntry = tuple[str, object]  # (rid, opnum) with opnum int or inf


class _OooTask:
    __slots__ = ("rid", "gen", "pending", "done", "body", "handler",
                 "cursor", "errored", "started", "emitted")

    def __init__(self, rid, gen, handler, cursor):
        self.rid = rid
        self.gen = gen
        self.pending = None
        self.done = False
        self.body: str | None = None
        self.handler = handler
        self.cursor = cursor
        self.errored = False
        self.started = False
        self.emitted = False  # (rid, inf) processed: output written out


def run_schedule(app: Application, trace: Trace, ctx: SimContext,
                 schedule: list[ScheduleEntry]) -> dict[str, str]:
    """Re-execute ``trace``'s requests following ``schedule`` (Figure
    13, OOOExec) and return the bodies written out.

    ``schedule`` must be a well-formed op schedule — a permutation of
    G's nodes respecting program order; one that is not rejects.
    """
    interp = _oracle(app)
    requests = trace.requests()
    tasks: dict[str, _OooTask] = {}

    def advance(task: _OooTask, result: object) -> None:
        """Send ``result`` in (or start); buffer the next state-op intent,
        resolving non-determinism inline (it is not a scheduling point)."""
        try:
            if not task.started:
                task.started = True
                intent = next(task.gen)
            else:
                intent = task.gen.send(result)
            while isinstance(intent, (NondetIntent, ExternalIntent)):
                if isinstance(intent, ExternalIntent):
                    ctx.produced_externals.setdefault(
                        task.rid, []
                    ).append(ExternalRequest(task.rid, intent.services[0],
                                             intent.contents[0]))
                    intent = task.gen.send([True])
                else:
                    value = task.cursor.next(intent.func, intent.args[0])
                    intent = task.gen.send([value])
            task.pending = intent
        except StopIteration as stop:
            task.done = True
            task.body = stop.value.bodies[0]
        except WeblangError:
            task.done = True
            task.errored = True
            task.body = ERROR_BODY

    for rid, opnum in schedule:
        if opnum == 0:
            # Read in inputs; allocate program structures (Figure 13 l.6-8).
            if rid not in requests:
                raise AuditReject(
                    RejectReason.GROUP_UNKNOWN_RID,
                    f"schedule names unknown request {rid!r}",
                )
            request = requests[rid]
            handler = OpHandler(ctx, rid)
            cursor = NondetCursor(rid, ctx.reports.nondet.get(rid, []))
            tasks[rid] = _OooTask(
                rid, interp.run(app.script(request.script), request),
                handler, cursor,
            )
            continue
        task = tasks.get(rid)
        if task is None:
            raise AuditReject(
                RejectReason.UNEXPECTED_EVENT,
                f"schedule uses {rid} before its (rid, 0) entry",
            )
        if opnum == OPNUM_INF:
            # Run to output (Figure 13, lines 10-14).
            if not task.started:
                advance(task, None)
            if not task.done:
                raise AuditReject(
                    RejectReason.UNEXPECTED_EVENT,
                    f"request {rid}: state operation where the schedule "
                    "expects the response",
                )
            if task.errored:
                task.handler.finish_error()
            else:
                task.handler.finish()
            task.emitted = True  # Figure 13 line 14: write out the output
            continue
        # A numbered operation (Figure 13, lines 16-23).  One schedule slot
        # covers one *operation*: for a DB transaction that means all its
        # statements, begin through commit/rollback (§A.7) — the object is
        # held for the duration, so the transaction is atomic either way.
        if not task.started:
            advance(task, None)  # run up to the first operation
        start_opnum = task.handler.opnum
        while True:
            if task.done or not isinstance(task.pending, StateOpIntent):
                raise AuditReject(
                    RejectReason.UNEXPECTED_EVENT,
                    f"request {rid}: schedule expects operation {opnum} "
                    "but the program produced none",
                )
            intent = task.pending
            task.pending = None
            result = task.handler.handle(
                intent.kind, intent.objs[0], intent.args[0]
            )
            advance(task, [result])
            if task.handler.opnum > start_opnum and task.handler.tx is None:
                break
            if task.done:
                break

    produced: dict[str, str] = {}
    for rid, task in tasks.items():
        if task.emitted and task.body is not None:
            produced[rid] = task.body
    return produced
