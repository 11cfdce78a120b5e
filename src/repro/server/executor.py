"""The well-behaved concurrent executor with the recording library.

Concurrency model (§3.2): each request runs in its own logical thread;
threads interleave arbitrarily; shared-object operations are blocking and
atomic.  The executor realizes this with cooperative scheduling at
operation boundaries: each admitted request is a suspended engine
generator, and one *step* = (perform the request's pending object
operation, resume it until its next operation or completion).  Because
threads can only influence each other through object operations, every
externally observable behaviour of the preemptive model corresponds to some
cooperative schedule, and vice versa.

The engine is the compiled one (:mod:`repro.lang.compile`), the runtime
the auditor re-executes on — as in the paper, where the server runs the
unmodified build of the runtime whose SIMD build is the verifier's — so
recording overhead is measured against the speed the audit is.  A
served request is a group of one: ``step`` reads slot 0 of each intent
and replies with a one-slot list.  The tree-walking
:mod:`repro.lang.interp` is the oracle; the tests serve on it by
replacing the one name this module imports
(``tests/server/test_engine_differential.py``).

Recording (the honest executor's side of the audit protocol):

* **opnum assignment**: a per-request counter; register and KV operations
  and auto-commit DB statements each take one opnum; a whole DB transaction
  takes exactly one (§4.4, §A.7).
* **operation logs**: register/KV ops are appended to per-object logs in
  admission order (the object is touched at that instant, so log order is
  the true serialization order); DB ops are logged by the
  :class:`~repro.sql.database.Database` into per-connection sub-logs merged
  by the stitching step (§4.7).
* **control-flow tags**: the branch digest (§4.3), kept by the engine's
  own closures — each branch arm folds a constant into an int; the tag
  is what :class:`~repro.common.digest.FlowDigest` computes.
* **non-determinism**: values from :class:`NondetSource` recorded per
  request in call order (§4.6).

A request whose script raises an error receives the fixed 500 response
body; an open transaction is rolled back first (and the rollback is logged,
so the audit can replay the same fate).  A request can also be *dropped*
mid-flight (``fail_rids``) to model client resets: the collector then
records a response with ``abort_info`` and no body, keeping the trace
balanced (§3).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.common.collector import collector_scope
from repro.common.errors import WeblangError
from repro.lang.compile import CompInterpreter
from repro.lang.interp import ExternalIntent, StateOpIntent
from repro.objects.base import OpRecord, OpType
from repro.objects.kvstore import KVStore
from repro.objects.register import AtomicRegister
from repro.server.app import Application, InitialState
from repro.server.nondet import NondetSource
from repro.server.reports import EpochSlice, NondetRecord, Reports
from repro.server.scheduler import FifoScheduler, Scheduler
from repro.sql.database import Database
from repro.trace.collector import Collector
from repro.trace.events import ExternalRequest, Request, Response
from repro.trace.trace import Trace

ERROR_BODY = "500 Internal Server Error"


@dataclass
class ExecutionResult:
    """Everything the online phase hands to the audit (plus stats)."""

    trace: Trace
    reports: Reports
    initial_state: InitialState
    server_seconds: float = 0.0
    steps: int = 0
    final_state: InitialState | None = None
    #: Trace event indexes of the quiescent epoch cuts the executor
    #: drained at (``epoch_size > 0``): the epoch boundaries.
    epoch_marks: list[int] = field(default_factory=list)

    def epochs(self) -> list[EpochSlice]:
        """The execution as the epochs it was recorded in: trace and
        reports cut at :attr:`epoch_marks`.  These are the slices
        ``BundleReader.epochs()`` yields from the saved bundle; feed
        them to ``Auditor.audit_epochs(execution.epochs(),
        execution.initial_state)``."""
        # Imported here: repro.core imports this package.
        from repro.core.partition import partition_audit_inputs

        return partition_audit_inputs(self.trace, self.reports,
                                      self.epoch_marks)


class _Task:
    __slots__ = ("rid", "request", "gen", "pending", "on_db", "opnum",
                 "started", "done")

    def __init__(self, rid: str, request: Request, gen) -> None:
        self.rid = rid
        self.request = request
        self.gen = gen
        self.pending: object = None
        #: Whether ``pending`` is a DB operation: the only kind that can
        #: park a request (while another's transaction holds the DB).
        self.on_db = False
        self.opnum = 0
        self.started = False
        self.done = False


class Executor:
    """Serves a request list concurrently and records reports."""

    def __init__(
        self,
        app: Application,
        scheduler: Scheduler | None = None,
        max_concurrency: int = 8,
        nondet: NondetSource | None = None,
        record: bool = True,
        fail_rids: set[str] | None = None,
        db_abort_hook=None,
        initial_state: InitialState | None = None,
        epoch_size: int = 0,
    ):
        self.app = app
        self.scheduler = scheduler or FifoScheduler()
        self.max_concurrency = max(1, max_concurrency)
        self.nondet = nondet or NondetSource()
        self.record = record
        self.fail_rids = fail_rids or set()
        self.db_abort_hook = db_abort_hook
        #: Start from this state instead of the app's setup scripts —
        #: used for continuous operation across audit epochs (§4.1).
        self.initial_state = initial_state
        #: Drain in-flight requests every N completions, creating a
        #: quiescent point in the trace (an *epoch mark*): the end of
        #: one audit epoch (§4.1, §4.7).  0 disables draining.
        self.epoch_size = max(0, epoch_size)

    # -- main loop ----------------------------------------------------------

    @collector_scope()
    def serve(self, requests: Sequence[Request]) -> ExecutionResult:
        app = self.app
        db = Database(app.db_name)
        kv = KVStore(app.kv_name)
        registers: dict[str, AtomicRegister] = {}
        if self.initial_state is not None:
            db.engine = self.initial_state.db_engine.deep_copy()
            kv.data.update(self.initial_state.kv)
            for name, value in self.initial_state.registers.items():
                registers[name] = AtomicRegister(name, value)
        elif app.db_setup:
            db.setup(app.db_setup)
        db.abort_hook = self.db_abort_hook

        initial_state = InitialState(
            db.initial_snapshot(),
            dict(kv.data),
            {name: reg.value for name, reg in registers.items()},
        )

        collector = Collector()
        reports = Reports()
        record = self.record
        interp = CompInterpreter(
            db_name=app.db_name,
            kv_name=app.kv_name,
            session_cookie=app.session_cookie,
            record_flow=record,
        )

        queue: list[Request] = list(requests)
        queue_pos = 0
        inflight: dict[str, _Task] = {}
        order: list[str] = []  # the in-flight rids in admission order
        steps = 0
        started_at = _time.perf_counter()
        epoch_marks: list[int] = []
        epoch_index = 0
        completed_in_epoch = 0
        draining = False

        def admit() -> None:
            nonlocal queue_pos
            if draining:
                return
            while (
                queue_pos < len(queue)
                and len(inflight) < self.max_concurrency
            ):
                request = queue[queue_pos]
                queue_pos += 1
                program = app.script(request.script)
                task = _Task(
                    request.rid, request, interp.run(program, request)
                )
                inflight[request.rid] = task
                order.append(request.rid)
                collector.observe_request(request)

        def ready_rids() -> Sequence[str]:
            owner = db.owner
            if owner is None:
                # Requests park on the DB object only, and only while a
                # transaction holds it: every in-flight request is ready.
                return order
            return [rid for rid in order
                    if rid == owner or not inflight[rid].on_db]

        def finish(task: _Task, body: str | None,
                   abort_info: str | None = None) -> None:
            nonlocal completed_in_epoch
            completed_in_epoch += 1
            rid = task.rid
            task.done = True
            del inflight[rid]
            order.remove(rid)
            if abort_info is not None:
                collector.observe_response(
                    Response(rid, None, status=0, abort_info=abort_info)
                )
            else:
                collector.observe_response(Response(rid, body))
            if record:
                reports.op_counts[rid] = task.opnum

        def record_flow(rid: str, tag: str | None) -> None:
            if not record or tag is None:
                return
            if self.epoch_size:
                # Per-epoch grouping: a control-flow group never spans
                # an epoch cut, so sharded and unsharded audits see the
                # same group boundaries.  Grouping is a hint; narrowing
                # it is always sound.
                tag = f"e{epoch_index}:{tag}"
            reports.groups.setdefault(tag, []).append(rid)

        # One handler per state-op kind: perform the operation on the
        # live object, assign its opnum and (register / KV operations)
        # log it; DB operations are logged by the Database itself.

        def db_statement(task: _Task, obj: str, args: tuple) -> object:
            if not db.in_transaction(task.rid):
                task.opnum += 1  # a transaction's statements share its opnum
            return db.execute(task.rid, task.opnum, args[0])

        def db_begin(task: _Task, obj: str, args: tuple) -> None:
            task.opnum += 1
            db.begin(task.rid, task.opnum)

        def db_commit(task: _Task, obj: str, args: tuple) -> bool:
            return db.commit(task.rid)

        def db_rollback(task: _Task, obj: str, args: tuple) -> None:
            db.rollback(task.rid)

        def log_op(task: _Task, obj: str, optype: OpType,
                   contents: tuple) -> None:
            """Number a register / KV operation and log it."""
            task.opnum += 1
            if record:
                reports.op_logs.setdefault(obj, []).append(
                    OpRecord(task.rid, task.opnum, optype, contents))

        def kv_get(task: _Task, obj: str, args: tuple) -> object:
            key = args[0]
            log_op(task, obj, OpType.KV_GET, (key,))
            return kv.get(key)

        def kv_set(task: _Task, obj: str, args: tuple) -> None:
            key, value = args
            log_op(task, obj, OpType.KV_SET, (key, value))
            kv.set(key, value)

        def register(name: str) -> AtomicRegister:
            found = registers.get(name)
            if found is None:
                found = registers[name] = AtomicRegister(name)
            return found

        def register_read(task: _Task, obj: str, args: tuple) -> object:
            log_op(task, obj, OpType.REGISTER_READ, ())
            return register(obj).read()

        def register_write(task: _Task, obj: str, args: tuple) -> None:
            value = args[0]
            log_op(task, obj, OpType.REGISTER_WRITE, (value,))
            register(obj).write(value)

        perform = {
            "db_statement": db_statement,
            "db_begin": db_begin,
            "db_commit": db_commit,
            "db_rollback": db_rollback,
            "kv_get": kv_get,
            "kv_set": kv_set,
            "register_read": register_read,
            "register_write": register_write,
        }

        def step(task: _Task) -> None:
            nonlocal steps
            steps += 1
            try:
                if not task.started:
                    task.started = True
                    pending = next(task.gen)
                else:
                    intent = task.pending
                    handler = perform.get(intent.kind)
                    if handler is None:
                        raise WeblangError(
                            f"unknown state op kind {intent.kind}")
                    pending = task.gen.send([handler(
                        task, intent.objs[0], intent.args[0])])
                # Non-deterministic calls and outbound externals are not
                # scheduling points: resolve them immediately (they touch
                # no shared state).  The request is a group of one: its
                # operands are slot 0's, its reply a one-slot list.
                while type(pending) is not StateOpIntent:
                    if type(pending) is ExternalIntent:
                        collector.observe_external(ExternalRequest(
                            task.rid, pending.services[0],
                            pending.contents[0],
                        ))
                        pending = task.gen.send([True])
                    else:
                        args = pending.args[0]
                        value = self.nondet.call(pending.func, args)
                        if record:
                            reports.nondet.setdefault(task.rid, []).append(
                                NondetRecord(pending.func, args, value))
                        pending = task.gen.send([value])
                task.pending = pending
                task.on_db = pending.kind.startswith("db_")
            except StopIteration as stop:
                output = stop.value
                record_flow(task.rid, output.flow_tag)
                if task.rid in self.fail_rids:
                    finish(task, None, abort_info="client reset")
                else:
                    finish(task, output.bodies[0])
            except WeblangError:
                # Application error: roll back any open transaction and
                # deliver the fixed error page (deterministically
                # reproducible at audit time).
                if db.in_transaction(task.rid):
                    db.rollback(task.rid)
                record_flow(task.rid, f"error:{task.request.script}")
                finish(task, ERROR_BODY)

        admit()
        while inflight or queue_pos < len(queue):
            if (
                self.epoch_size
                and completed_in_epoch >= self.epoch_size
                and queue_pos < len(queue)
            ):
                draining = True
            if draining and not inflight:
                # Quiescent: everything admitted has responded and the
                # next epoch's requests arrive strictly after this
                # point.  Record the cut and open the next epoch.
                epoch_marks.append(len(collector.trace))
                epoch_index += 1
                completed_in_epoch = 0
                draining = False
            admit()
            ready = ready_rids()
            if not ready:  # pragma: no cover - single-DB model cannot jam
                raise RuntimeError("executor deadlock: no ready requests")
            rid = self.scheduler.pick(ready)
            step(inflight[rid])

        server_seconds = _time.perf_counter() - started_at

        if record:
            db_log = db.stitch_log()
            if db_log:
                reports.op_logs[app.db_name] = db_log

        final_state = InitialState(
            db.engine.deep_copy(),
            dict(kv.data),
            {name: reg.value for name, reg in registers.items()},
        )
        return ExecutionResult(
            trace=collector.trace,
            reports=reports,
            initial_state=initial_state,
            server_seconds=server_seconds,
            steps=steps,
            final_state=final_state,
            epoch_marks=epoch_marks,
        )
