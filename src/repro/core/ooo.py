"""Out-of-order re-execution (Figure 13; Appendix A.4).

:func:`execute_one` re-executes a single request on the engine it is
handed (the plain interpreter unless told otherwise), feeding object
reads via simulate-and-check and non-determinism via the recorded
reports.  It is the one per-request driver:

1. per-request fallback, on the compiled engine, when a group diverges
   or hits an unsupported SIMD case (OROCHI's retry, §4.3), and every
   chunk of the ``interp`` / ``compinterp`` backends;
2. :func:`simple_audit` — the non-accelerated baseline audit that the
   evaluation compares against (§5.1);
3. :func:`repro.core.patch.patch_audit`'s replay against patched code,
   with a lenient operation handler.

:func:`ooo_audit` is the literal OOOAudit of the correctness proofs: it
follows an explicit op schedule, interleaving requests operation by
operation; the equivalence tests (Lemma 8) check it agrees with the
grouped audit.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

from repro.common.collector import collector_scope
from repro.common.errors import AuditReject, RejectReason, WeblangError
from repro.core.graph import OPNUM_INF
from repro.core.process_reports import process_op_reports
from repro.core.simulate import NondetCursor, OpHandler, SimContext
from repro.lang.interp import (
    ExternalIntent,
    Interpreter,
    NondetIntent,
    StateOpIntent,
)
from repro.trace.events import ExternalRequest
from repro.server.app import Application, InitialState
from repro.server.executor import ERROR_BODY
from repro.server.reports import Reports
from repro.trace.events import Request
from repro.trace.trace import Trace, check_balanced


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
    handler = handler(ctx, request.rid)
    cursor = NondetCursor(
        request.rid, ctx.reports.nondet.get(request.rid, [])
    )
    if interp is None:
        interp = Interpreter(
            db_name=app.db_name,
            kv_name=app.kv_name,
            session_cookie=app.session_cookie,
            record_flow=False,
        )
    program = app.script(request.script)
    gen = interp.run(program, request)
    try:
        intent = next(gen)
        while True:
            if isinstance(intent, StateOpIntent):
                result = handler.handle(intent.kind, intent.obj, intent.args)
            elif isinstance(intent, NondetIntent):
                result = cursor.next(intent.func, intent.args)
            elif isinstance(intent, ExternalIntent):
                ctx.produced_externals.setdefault(request.rid, []).append(
                    ExternalRequest(request.rid, intent.service,
                                    intent.content)
                )
                result = True
            else:  # pragma: no cover - interpreter yields only intents
                raise AuditReject(
                    RejectReason.UNEXPECTED_EVENT,
                    f"unknown intent {intent!r}",
                )
            intent = gen.send(result)
    except StopIteration as stop:
        handler.finish()
        return stop.value.body
    except WeblangError:
        handler.finish_error()
        return ERROR_BODY


@dataclass
class OooResult:
    accepted: bool
    reason: RejectReason | None = None
    detail: str = ""
    produced: dict[str, str] = field(default_factory=dict)
    seconds: float = 0.0


@collector_scope()
def simple_audit(
    app: Application,
    trace: Trace,
    reports: Reports,
    initial_state: InitialState,
    strict_registers: bool = False,
) -> OooResult:
    """The non-accelerated audit: re-execute every request individually,
    in trace arrival order, then compare outputs.

    This is the "simple re-execution" baseline of §5.1 (given, as the
    paper's baseline is, the trace and the non-determinism reports).
    """
    started = _time.perf_counter()
    try:
        check_balanced(trace)
        _, opmap = process_op_reports(trace, reports)
        ctx = SimContext(app, reports, opmap, initial_state,
                         strict_registers)
        ctx.build_versioned_stores()
        produced: dict[str, str] = {}
        requests = trace.requests()
        for rid in trace.request_ids():
            produced[rid] = execute_one(app, requests[rid], ctx)
        _compare_outputs(trace, produced)
        _compare_externals(trace, ctx)
    except AuditReject as reject:
        return OooResult(
            False, reject.reason, reject.detail,
            seconds=_time.perf_counter() - started,
        )
    return OooResult(
        True, produced=produced, seconds=_time.perf_counter() - started
    )


def _compare_outputs(trace: Trace, produced: dict[str, str],
                     rids: list[str] | None = None) -> None:
    """Figure 12, lines 55-57 (aborted responses carry no body to check),
    over ``rids`` when given (a forensic re-audit's scope)."""
    responses = trace.responses()
    for rid in responses if rids is None else rids:
        response = responses.get(rid)
        if response is None or response.abort_info is not None:
            continue
        body = produced.get(rid)
        if body is None or body != response.body:
            raise AuditReject(
                RejectReason.OUTPUT_MISMATCH,
                f"request {rid}: produced output does not match the trace",
            )


def _compare_externals(trace: Trace, ctx: SimContext,
                       rids: list[str] | None = None) -> None:
    """§5.5 extension: regenerated outbound externals must match the
    trace's EXTERNAL events, per request (of ``rids``) and in order."""
    observed = trace.externals()
    produced = ctx.produced_externals
    for rid in set(observed) | set(produced) if rids is None else rids:
        got = [(e.service, e.content) for e in produced.get(rid, [])]
        want = [(e.service, e.content) for e in observed.get(rid, [])]
        if got != want:
            raise AuditReject(
                RejectReason.EXTERNAL_MISMATCH,
                f"request {rid}: regenerated external requests do not "
                f"match the trace ({len(got)} produced, {len(want)} "
                "observed)",
            )


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


def ooo_audit(
    app: Application,
    trace: Trace,
    reports: Reports,
    initial_state: InitialState,
    schedule: list[ScheduleEntry] | None = None,
    strict_registers: bool = False,
) -> OooResult:
    """OOOAudit (Definition 5): re-execute following an op schedule.

    ``schedule`` must be a well-formed op schedule — a permutation of G's
    nodes respecting program order.  ``None`` means "use a topological sort
    of G" (the proofs' canonical choice; rejects already detected cycles).
    """
    started = _time.perf_counter()
    try:
        check_balanced(trace)
        graph, opmap = process_op_reports(trace, reports)
        if schedule is None:
            order = graph.topo_sort()
            assert order is not None  # no cycle: has_cycle passed
            schedule = order
        ctx = SimContext(app, reports, opmap, initial_state,
                         strict_registers)
        ctx.build_versioned_stores()
        produced = _run_schedule(app, trace, reports, ctx, schedule)
        _compare_outputs(trace, produced)
        _compare_externals(trace, ctx)
    except AuditReject as reject:
        return OooResult(
            False, reject.reason, reject.detail,
            seconds=_time.perf_counter() - started,
        )
    return OooResult(
        True, produced=produced, seconds=_time.perf_counter() - started
    )


def _run_schedule(
    app: Application,
    trace: Trace,
    reports: Reports,
    ctx: SimContext,
    schedule: list[ScheduleEntry],
) -> dict[str, str]:
    interp = Interpreter(
        db_name=app.db_name,
        kv_name=app.kv_name,
        session_cookie=app.session_cookie,
        record_flow=False,
    )
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
                    ).append(ExternalRequest(task.rid, intent.service,
                                             intent.content))
                    intent = task.gen.send(True)
                else:
                    value = task.cursor.next(intent.func, intent.args)
                    intent = task.gen.send(value)
            task.pending = intent
        except StopIteration as stop:
            task.done = True
            task.body = stop.value.body
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
            cursor = NondetCursor(rid, reports.nondet.get(rid, []))
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
                intent.kind, intent.obj, intent.args
            )
            advance(task, result)
            if task.handler.opnum > start_opnum and task.handler.tx is None:
                break
            if task.done:
                break

    produced: dict[str, str] = {}
    for rid, task in tasks.items():
        if task.emitted and task.body is not None:
            produced[rid] = task.body
    return produced
