"""ReExec2: grouped SIMD-on-demand re-execution (Figure 12, lines 29-53).

Re-executes the trace in control-flow groups according to the (untrusted)
groupings ``C``.  Each group runs once through the compiled engine;
at every group state operation the driver loops over the group's requests
("for all rid in the group", line 43), applying CheckOp and — for reads —
SimOp via each request's :class:`~repro.core.simulate.OpHandler`.

Divergence policy:

* ``strict=True`` (the paper's Figure 12, line 39): control-flow
  divergence inside a group rejects the audit;
* ``strict=False``: divergence demotes the group to per-request
  re-execution (re-execution is idempotent, §3.1, so restarting is safe).

Unsupported-SIMD cases (:class:`MultivalueFallback`) and application
errors always demote, in both modes — they are implementation retry paths,
not verdicts (§4.3: acc-PHP "retries, by separately re-executing the
requests in sequence").  So does divergence inside an ``error:<script>``
group: the executor groups errored requests by script, not by the path
taken before the error, so such groups diverge on honest executions.

Groups larger than ``max_group_size`` are chunked, mirroring acc-PHP's
3,000-request group cap (§4.7).

Parallel driver (``workers > 1``): group chunks are embarrassingly
parallel — each chunk only *reads* the versioned
stores, logs, and OpMap and only *writes* its own produced bodies and
counters — so :func:`reexec_groups` can fan the chunk plan out over a
``ProcessPoolExecutor``.  On fork-capable platforms workers inherit the
parent's already-built simulation context copy-on-write (no pickling,
no per-worker redo); elsewhere each worker rebuilds it once from a
pickled payload.  The parent merges produced bodies, regenerated
externals, and :class:`ReExecStats` in submission order and surfaces
the *first* failure in that order.

The driver is safe to run concurrently from several threads of one
process (two auditors, or an auditor beside the epoch pool): each
pool receives its state explicitly through its initializer arguments —
for fork pools these are handed over in-memory, never pickled — and
pool creation plus chunk submission (the moments worker processes are
actually forked/spawned) are serialized under a module lock, so two
drivers can never interleave their handoffs.  A worker killed
mid-chunk (``BrokenProcessPool``) is not a verdict: the driver re-runs
the lost chunks serially in the parent — infrastructure failures never
escape ``ssco_audit``.

Parallel/serial equivalence: produced bodies are identical by
construction (re-execution is idempotent per request and chunking is
invisible to it), and verdicts agree on every honest execution.  The
parallel planner *does* subdivide large single-script groups below
``max_group_size`` to spread them across workers — chunk granularity
was already an audit-configuration knob (§4.7's group cap), and every
CheckOp/SimOp/output check still runs per request, so subdivision never
weakens soundness; it only narrows the window in which a *strict-mode*
divergence of a bogus grouping is observed group-wide.

Pluggable backends: the re-execution engine that runs one chunk is a
registered component (:func:`register_reexec_backend`), selected by
name through ``AuditConfig.backend`` / ``ssco_audit(backend=...)``.
Two ship:

* ``"hybrid"`` (default) — the compiled engine (:mod:`repro.lang.compile`):
  each script's AST is compiled once per process into closure chains
  that run a whole chunk in one pass, univalent until an operand is a
  multivalue (the paper's SIMD-on-demand, §4.2-4.3).  **Every** chunk
  runs this way, a chunk of one included, so in-group divergence is
  observed whatever the group's size; a demoted group re-runs per
  request on the same compiled code (``fallback_requests``);
* ``"interp"`` — the oracle: every request of the chunk individually
  through the plain :mod:`repro.lang.interp` interpreter (the server,
  too, runs the compiled engine).  Same simulate-and-check, same
  produced bodies and verdicts on honest executions; no batching (and
  therefore no in-group divergence detection — a bogus grouping is
  still caught by the per-request output checks).  It is what the
  equivalence tests compare against.

``"accinterp"`` and ``"compinterp"`` are aliases kept for one caller
(see :data:`_ALIASES`).  Backends only replace the *re-execution
engine*; chunk planning, the process-pool fan-out, and result merging
are shared.  A backend name is what crosses the process boundary, so
third-party backends registered at import time work with both pool
start methods.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.common.errors import (
    AuditReject,
    DivergenceError,
    MultivalueFallback,
    RejectReason,
    WeblangError,
)
from repro.lang.analysis import divergence_hazards
from repro.lang.compile import (
    CompInterpreter,
    GroupExternalIntent,
    GroupNondetIntent,
    GroupStateOpIntent,
)
from repro.trace.events import ExternalRequest
from repro.core.dedup import QueryDedup
from repro.core.ooo import execute_one
from repro.core.simulate import NondetCursor, OpHandler, SimContext
from repro.server.app import Application
from repro.server.reports import Reports
from repro.trace.trace import Trace

#: acc-PHP's group size cap (§4.7).
DEFAULT_MAX_GROUP = 3000

#: The stock re-execution backend: the compiled engine.
_FALLBACK_BACKEND = "hybrid"


def default_backend() -> str:
    """The process-wide default re-execution backend.

    ``REPRO_BACKEND`` overrides it and is read *at call time*, so
    subprocess tests and CI matrix steps that set the variable after
    this module is imported are honored.  Every seam that used to bake
    the default in (function defaults, ``AuditConfig`` fields, worker
    initializers) now passes ``backend=None`` and resolves it here.  An
    unknown name fails with the registry's clean "unknown re-exec
    backend" error on first use.
    """
    return os.environ.get("REPRO_BACKEND", _FALLBACK_BACKEND)


@dataclass
class ReExecStats:
    groups: int = 0
    #: Every re-executed request is booked in exactly one of these two:
    #: ran in a group (of any size, one included); re-run per request
    #: (group demoted, or a backend without groups).
    grouped_requests: int = 0
    fallback_requests: int = 0
    divergences: int = 0
    steps: int = 0
    multi_steps: int = 0
    #: Over the multivalent steps: the requests they stood for and the
    #: classes of requests the engine computed a value for.
    multi_slots: int = 0
    multi_classes: int = 0
    group_alphas: list[tuple] = field(default_factory=list)
    #: (n_c, alpha_c, ell_c) per group, for Figure 11.


# -- backend registry --------------------------------------------------------


class ReexecBackend:
    """One re-execution engine: runs a single chunk of a group.

    A backend is constructed per audit pass (and once per worker process
    in parallel mode) via its registered factory —
    ``factory(app, collapse=...)`` — and then driven chunk by chunk.
    :meth:`run_chunk` must apply every per-request check (CheckOp /
    SimOp via :class:`~repro.core.simulate.OpHandler`, nondet cursors,
    regenerated externals) and fill ``produced`` / ``stats``; it raises
    :class:`AuditReject` to fail the audit.
    """

    #: Registry key; set by subclasses.
    name = "?"

    def run_chunk(
        self,
        app: Application,
        rids: list[str],
        requests,
        reports: Reports,
        ctx: SimContext,
        strict: bool,
        dedup: bool,
        produced: dict[str, str],
        stats: ReExecStats,
    ) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


#: name -> factory(app, collapse=...) -> ReexecBackend.
_BACKENDS: dict[str, object] = {}


def register_reexec_backend(name: str, factory) -> None:
    """Register (or replace) a re-execution backend under ``name``.

    ``factory(app, collapse=...)`` must return an object with the
    :class:`ReexecBackend` interface.  The name becomes selectable via
    ``AuditConfig.backend``, ``ssco_audit(backend=...)``, and the CLI's
    ``--backend``; it must be importable-at-registration in worker
    processes too (register at module import time, not conditionally).
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string: {name!r}")
    _BACKENDS[name] = factory


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


def get_reexec_backend(name: str):
    """The factory registered under ``name``; raises :class:`ValueError`
    (naming the available backends) for unknown names."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown re-exec backend {name!r} "
            f"(available: {', '.join(available_backends())})"
        ) from None


def make_backend(name: str, app: Application, collapse: bool = True):
    """Instantiate the named backend for one audit pass."""
    return get_reexec_backend(name)(app, collapse=collapse)


class PlainInterpBackend(ReexecBackend):
    """The oracle: per-request re-execution via the plain interpreter
    (no SIMD batching, no query dedup).

    Every simulate-and-check and output check still runs per request, so
    verdicts and produced bodies match the compiled engine on honest
    executions; requests are accounted as ``fallback_requests``.  The
    mixed-script strict check is kept — a grouping that mixes scripts is
    bogus regardless of engine.
    """

    name = "interp"

    def __init__(self, app: Application, collapse: bool = True):
        del app, collapse  # per-request execution needs no shared engine
        self.interp = None  # execute_one's own: the plain interpreter

    def run_chunk(self, app, rids, requests, reports, ctx, strict, dedup,
                  produced, stats) -> None:
        stats.groups += 1
        scripts = {requests[rid].script for rid in rids}
        if len(scripts) > 1 and strict:
            raise AuditReject(
                RejectReason.GROUP_DIVERGED,
                f"group mixes scripts {sorted(scripts)}",
            )
        _fallback(app, rids, requests, ctx, produced, stats,
                  interp=self.interp)


def _compiled_engine(app: Application,
                     collapse: bool = True) -> CompInterpreter:
    return CompInterpreter(
        db_name=app.db_name,
        kv_name=app.kv_name,
        session_cookie=app.session_cookie,
        record_flow=False,
        collapse_enabled=collapse,
    )


class CompiledBackend(ReexecBackend):
    """The production engine: each chunk, whatever its size, in one pass
    over the script's compiled closures (:mod:`repro.lang.compile`);
    demotions re-run per request on the same compiled code."""

    name = "hybrid"

    def __init__(self, app: Application, collapse: bool = True):
        self.engine = _compiled_engine(app, collapse)

    def run_chunk(self, app, rids, requests, reports, ctx, strict, dedup,
                  produced, stats) -> None:
        _run_chunk(app, self.engine, rids, requests, reports, ctx, strict,
                   dedup, produced, stats)


class _CompiledPerRequest(PlainInterpBackend):
    """The compiled engine run one request per chunk — the path
    demotions take, with the oracle's accounting."""

    def __init__(self, app: Application, collapse: bool = True):
        del collapse  # nothing to collapse in a group of one
        self.interp = _compiled_engine(app)


register_reexec_backend(PlainInterpBackend.name, PlainInterpBackend)
register_reexec_backend(CompiledBackend.name, CompiledBackend)

#: Names from when there were three engines and a router.  The frozen
#: benchmarks/e2e/auditor_child.py (and its tier-1 smoke test) asks for
#: every backend by its old name; ROADMAP has the plan to drop its
#: per-backend metrics and then these.
_ALIASES = {"accinterp": CompiledBackend, "compinterp": _CompiledPerRequest}
for _alias, _factory in _ALIASES.items():
    register_reexec_backend(_alias, _factory)


#: Parallel planning: aim for this many chunks per worker (load
#: balancing headroom) without dropping below this chunk size (SIMD
#: batching is what makes grouped re-execution fast in the first place).
_CHUNKS_PER_WORKER = 4
_MIN_PARALLEL_CHUNK = 32


def plan_chunks(
    reports: Reports,
    requests: dict[str, object],
    max_group_size: int = DEFAULT_MAX_GROUP,
    workers: int = 1,
    app: Application | None = None,
    plan_hints: bool = False,
    strict: bool = True,
) -> list[list[str]]:
    """The deterministic chunk plan the drivers execute.

    Groups are visited in sorted-tag order; duplicate rids within one
    group are dropped (re-execution is idempotent, but duplicate slots
    would double-consume nondet cursors); oversized groups are chunked
    at ``max_group_size`` (§4.7).  With ``workers > 1``, single-script
    groups are further subdivided toward ``workers *
    _CHUNKS_PER_WORKER`` chunks overall so one dominant group does not
    serialize the pool (mixed-script groups keep the serial chunking —
    their group-wide strict check must see them whole).  Raises
    :class:`AuditReject` when a grouping names a request outside the
    trace.

    With ``plan_hints`` enabled (and ``app`` provided), groups of
    scripts the static analyzer flags as divergence hazards
    (:func:`repro.lang.analysis.divergence_hazards`) are pre-demoted to
    singleton chunks: grouped SIMD re-execution of such scripts tends to
    diverge and restart per request anyway, so planning the demotion
    avoids the doomed group pass.  The hint only applies in non-strict
    mode — under ``strict`` a real divergence is a *verdict* (REJECT),
    and pre-demotion would skip the group-wide check that produces it.
    Produced bodies and verdicts are unchanged either way (equivalence-
    tested); only the grouped/fallback accounting moves (a chunk of one
    runs as a group of one).
    """
    groups: list[list[str]] = []
    grouped_total = 0
    for tag in sorted(reports.groups):
        rids_raw = reports.groups[tag]
        seen = set()
        rids: list[str] = []
        for rid in rids_raw:
            if rid not in seen:
                seen.add(rid)
                rids.append(rid)
        for rid in rids:
            if rid not in requests:
                raise AuditReject(
                    RejectReason.GROUP_UNKNOWN_RID,
                    f"grouping names unknown request {rid!r}",
                )
        groups.append(rids)
        grouped_total += len(rids)

    hazards: frozenset = frozenset()
    if plan_hints and not strict and app is not None:
        hazards = divergence_hazards(app)

    parallel_chunk = max_group_size
    if workers > 1 and grouped_total:
        target = workers * _CHUNKS_PER_WORKER
        parallel_chunk = max(
            _MIN_PARALLEL_CHUNK, -(-grouped_total // target)
        )
    chunks: list[list[str]] = []
    for rids in groups:
        chunk_size = max_group_size
        scripts = {requests[rid].script for rid in rids}
        if len(scripts) == 1:
            if len(rids) > 1 and next(iter(scripts)) in hazards:
                # Hopeless group: pre-demote to singletons.
                chunks.extend([rid] for rid in rids)
                continue
            if parallel_chunk < chunk_size:
                chunk_size = parallel_chunk
        for start in range(0, len(rids), chunk_size):
            chunks.append(rids[start : start + chunk_size])
    return chunks


def reexec_groups(
    app: Application,
    trace: Trace,
    reports: Reports,
    ctx: SimContext,
    strict: bool = True,
    dedup: bool = True,
    collapse: bool = True,
    max_group_size: int = DEFAULT_MAX_GROUP,
    workers: int = 1,
    backend: str | None = None,
    inline: bool = False,
    plan_hints: bool = False,
) -> dict[str, str]:
    """Re-execute all groups; returns rid -> produced body.

    ``workers > 1`` fans the chunk plan out over a process pool; the
    serial path is preserved verbatim for ``workers <= 1``.  ``backend``
    names the registered re-execution engine that runs each chunk
    (``None`` resolves :func:`default_backend` at call time);
    ``plan_hints`` lets the chunk plan consult the static analyzer's
    divergence hazards (see :func:`plan_chunks`; non-strict mode only).
    ``inline=True`` keeps the (possibly parallel-shaped, ``workers``-
    sized) chunk plan but executes it serially in this process, never
    creating a pool — the epoch driver sets it inside its worker
    processes, where epoch parallelism already owns the cores and
    chunk-plan parity with the serial chain is what matters.
    Raises :class:`AuditReject` on any failed check.
    """
    backend = backend if backend is not None else default_backend()
    requests = trace.requests()
    chunks = plan_chunks(reports, requests, max_group_size, workers,
                         app=app, plan_hints=plan_hints, strict=strict)
    if not inline and workers > 1 and len(chunks) > 1:
        return _reexec_parallel(
            app, requests, reports, ctx, chunks, strict, dedup, collapse,
            workers, backend,
        )
    produced: dict[str, str] = {}
    stats = ctx.reexec_stats = ReExecStats()
    _run_chunks_serial(app, chunks, requests, reports, ctx, strict,
                       dedup, collapse, backend, produced, stats)
    return produced


def _run_chunks_serial(
    app: Application,
    chunks: list[list[str]],
    requests,
    reports: Reports,
    ctx: SimContext,
    strict: bool,
    dedup: bool,
    collapse: bool,
    backend: str,
    produced: dict[str, str],
    stats: ReExecStats,
) -> None:
    """The serial chunk loop (also the parallel driver's fallback)."""
    engine = make_backend(backend, app, collapse)
    for chunk in chunks:
        engine.run_chunk(app, chunk, requests, reports, ctx, strict,
                         dedup, produced, stats)


def _run_chunk(
    app: Application,
    engine: CompInterpreter,
    rids: list[str],
    requests,
    reports: Reports,
    ctx: SimContext,
    strict: bool,
    dedup: bool,
    produced: dict[str, str],
    stats: ReExecStats,
) -> None:
    """One chunk in one grouped pass over ``engine``'s compiled code; a
    chunk that cannot finish that way re-runs per request on it."""
    stats.groups += 1
    scripts = {requests[rid].script for rid in rids}
    if len(scripts) > 1:
        # Control flow includes the script identity; mixed groups can only
        # come from a bogus grouping report.
        if strict:
            raise AuditReject(
                RejectReason.GROUP_DIVERGED,
                f"group mixes scripts {sorted(scripts)}",
            )
        _fallback(app, rids, requests, ctx, produced, stats, interp=engine)
        return
    program = app.script(next(iter(scripts)))
    group_requests = [requests[rid] for rid in rids]
    for rid in rids:
        # A rid listed in several groups re-executes idempotently; its
        # regenerated externals must not accumulate across runs.
        ctx.produced_externals.pop(rid, None)
    handlers = {rid: OpHandler(ctx, rid) for rid in rids}
    cursors = {
        rid: NondetCursor(rid, reports.nondet.get(rid, [])) for rid in rids
    }
    vdb = ctx.vdb.get(app.db_name)
    ctx.dedup = QueryDedup(vdb) if (dedup and vdb is not None) else None
    try:
        gen = engine.run_group(program, group_requests)
        intent = next(gen)
        while True:
            if isinstance(intent, GroupStateOpIntent):
                results = [
                    handlers[rid].handle(
                        intent.kind, intent.objs[slot], intent.args[slot]
                    )
                    for slot, rid in enumerate(rids)
                ]
            elif isinstance(intent, GroupNondetIntent):
                results = [
                    cursors[rid].next(intent.func, intent.args[slot])
                    for slot, rid in enumerate(rids)
                ]
            elif isinstance(intent, GroupExternalIntent):
                for slot, rid in enumerate(rids):
                    ctx.produced_externals.setdefault(rid, []).append(
                        ExternalRequest(rid, intent.services[slot],
                                        intent.contents[slot])
                    )
                results = [True] * len(rids)
            else:  # pragma: no cover
                raise AuditReject(
                    RejectReason.UNEXPECTED_EVENT,
                    f"unknown group intent {intent!r}",
                )
            intent = gen.send(results)
    except StopIteration as stop:
        output = stop.value
        for slot, rid in enumerate(rids):
            handlers[rid].finish()
            produced[rid] = output.bodies[slot]
        stats.grouped_requests += len(rids)
        stats.steps += output.steps
        stats.multi_steps += output.multi_steps
        stats.multi_slots += output.multi_slots
        stats.multi_classes += output.multi_classes
        alpha = (
            1.0 - output.multi_steps / output.steps if output.steps else 1.0
        )
        stats.group_alphas.append((len(rids), alpha, output.steps))
    except DivergenceError as diverged:
        stats.divergences += 1
        if strict and not _in_error_group(ctx, rids[0]):
            raise AuditReject(
                RejectReason.GROUP_DIVERGED, diverged.detail
            ) from diverged
        _fallback(app, rids, requests, ctx, produced, stats, interp=engine)
    except (MultivalueFallback, WeblangError):
        # Retry path (§4.3): not a verdict about the executor.
        _fallback(app, rids, requests, ctx, produced, stats, interp=engine)
    finally:
        ctx.dedup = None


# -- parallel driver ---------------------------------------------------------

#: Per-process simulation state, built once by the pool initializer.
#: Worker processes are single-threaded, so this global is race-free
#: *inside* a worker; the parent process never sets it.
_WORKER = None

#: Serializes pool creation and chunk submission in the parent.  Worker
#: processes are forked/spawned lazily at submit time; without the lock,
#: two drivers running on different threads of one process (two
#: auditors, the epoch pool) could fork mid-way through each other's
#: setup.  Each pool's state travels explicitly via ``initargs`` — there
#: is no shared handoff global left to race on.
_POOL_LOCK = threading.Lock()


def available_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _use_fork() -> bool:
    """Fork pools need the platform to support fork *and* the process
    default to still be fork (tests/CI force spawn to cover the
    pickled-payload path on fork-capable hosts)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    return multiprocessing.get_start_method(allow_none=True) in (
        None, "fork")


class _WorkerState:
    """Everything one worker process needs to run chunks."""

    def __init__(self, app, requests, reports, ctx, strict, dedup,
                 collapse, backend=None):
        backend = backend if backend is not None else default_backend()
        self.app = app
        self.requests = requests
        self.reports = reports
        self.strict = strict
        self.dedup = dedup
        self.ctx = ctx
        self.engine = make_backend(backend, app, collapse)


def _worker_init_fork(state: tuple) -> None:
    """Pool initializer on fork platforms: adopt the parent's live state.

    The tuple arrives through ``initargs``, which fork-context children
    receive in-memory (no pickling, no per-worker redo) — each pool
    carries its own state, so concurrent pools cannot cross wires.
    """
    global _WORKER
    _WORKER = _WorkerState(*state)


def _worker_init_spawn(payload: bytes) -> None:
    """Pool initializer elsewhere: rebuild the context from a pickle
    (one versioned redo per worker, amortized over its chunks)."""
    global _WORKER
    (app, requests, reports, opmap, initial_state, strict_registers,
     strict, dedup, collapse, backend) = pickle.loads(payload)
    ctx = SimContext(app, reports, opmap, initial_state, strict_registers)
    ctx.build_versioned_stores()
    _WORKER = _WorkerState(app, requests, reports, ctx, strict, dedup,
                           collapse, backend)


def _worker_run_chunk(rids: list[str]) -> tuple[bool, object]:
    """Run one chunk in the worker; returns (ok, outcome).

    On success the outcome carries the chunk's produced bodies,
    regenerated externals, stats, and counter deltas; on a failed check
    it carries the reject (reason, detail) plus the partial stats and
    counters the chunk accumulated before failing — exactly what the
    serial driver would have folded into the context before raising —
    so rejected parallel audits report the same stats as serial ones.
    Exceptions never cross the process boundary raw, so the parent
    controls failure ordering.
    """
    state = _WORKER
    ctx = state.ctx
    before = ctx.counter_snapshot()
    stats = ReExecStats()
    produced: dict[str, str] = {}
    try:
        state.engine.run_chunk(state.app, rids, state.requests,
                               state.reports, ctx, state.strict,
                               state.dedup, produced, stats)
    except AuditReject as reject:
        return False, (reject.reason.value, reject.detail, stats,
                       ctx.counter_delta(before))
    externals = {
        rid: ctx.produced_externals.pop(rid)
        for rid in rids
        if rid in ctx.produced_externals
    }
    return True, (produced, externals, stats, ctx.counter_delta(before))


def _make_pool(app, requests, reports, ctx, strict, dedup, collapse,
               backend, workers) -> ProcessPoolExecutor:
    """One process pool with its state bound explicitly via initargs."""
    if _use_fork():
        state = (app, requests, reports, ctx, strict, dedup, collapse,
                 backend)
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init_fork,
            initargs=(state,),
        )
    payload = pickle.dumps((
        app, requests, reports, ctx.opmap, ctx.initial,
        ctx.strict_registers, strict, dedup, collapse, backend,
    ))
    return ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init_spawn,
        initargs=(payload,),
    )


def _reexec_parallel(
    app: Application,
    requests,
    reports: Reports,
    ctx: SimContext,
    chunks: list[list[str]],
    strict: bool,
    dedup: bool,
    collapse: bool,
    workers: int,
    backend: str | None = None,
) -> dict[str, str]:
    """Fan the chunk plan out over a process pool and merge the results.

    Outcomes are merged in submission order, so the first failure the
    parent raises is the same failure the serial driver would raise.
    Infrastructure failures (no process support, a worker killed
    mid-chunk) degrade to serial re-execution of the affected chunks —
    they are never verdicts and never escape as exceptions.
    """
    backend = backend if backend is not None else default_backend()
    produced: dict[str, str] = {}
    stats = ctx.reexec_stats = ReExecStats()
    workers = max(1, min(workers, len(chunks)))
    pool = None
    futures: list = []
    with _POOL_LOCK:
        # Creation *and* submission run under the lock: worker processes
        # are forked/spawned lazily at submit time, and concurrent
        # drivers in one process must not interleave those forks.
        try:
            pool = _make_pool(app, requests, reports, ctx, strict, dedup,
                              collapse, backend, workers)
            futures = [pool.submit(_worker_run_chunk, chunk)
                       for chunk in chunks]
        except (OSError, ValueError, TypeError, AttributeError,
                pickle.PickleError, BrokenProcessPool):
            # No process support (an unpicklable payload on a spawn
            # platform, or workers dying during startup): stay serial —
            # ssco_audit must never raise.
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
            pool = None
    if pool is None:
        _run_chunks_serial(app, chunks, requests, reports, ctx, strict,
                           dedup, collapse, backend, produced, stats)
        return produced
    remaining: list[list[str]] = []
    try:
        for index, future in enumerate(futures):
            try:
                ok, outcome = future.result()
            except BrokenProcessPool:
                # A worker was killed mid-chunk; this chunk's result and
                # everything after it are lost.  Re-execution is
                # idempotent, so finish those chunks serially below.
                remaining = chunks[index:]
                break
            if not ok:
                reason_value, detail, chunk_stats, counters = outcome
                # Fold in the failing chunk's partial accounting first —
                # the serial driver mutates the context before raising.
                _merge_stats(stats, chunk_stats)
                ctx.add_counters(counters)
                raise AuditReject(RejectReason(reason_value), detail)
            chunk_produced, externals, chunk_stats, counters = outcome
            produced.update(chunk_produced)
            for rid, items in externals.items():
                ctx.produced_externals[rid] = items
            _merge_stats(stats, chunk_stats)
            ctx.add_counters(counters)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    if remaining:
        _run_chunks_serial(app, remaining, requests, reports, ctx, strict,
                           dedup, collapse, backend, produced, stats)
    return produced


def _merge_stats(into: ReExecStats, delta: ReExecStats) -> None:
    for name, value in vars(delta).items():  # counters add, lists extend
        setattr(into, name, getattr(into, name) + value)


def _in_error_group(ctx: SimContext, rid: str) -> bool:
    """Whether ``rid`` was grouped under an ``error:<script>`` tag (the
    set of such rids is built on the first question of a pass).

    The executor groups every errored request of a script under one
    ``error:`` flow tag regardless of the path taken before the error,
    so divergence inside such a group is expected on honest executions
    — it must demote (the same retry path application errors already
    take), never reject, even in strict mode.  A bogus ``error:`` label
    buys an attacker nothing: demotion re-executes per request with
    every output check intact.
    """
    if ctx.error_rids is None:
        ctx.error_rids = frozenset(
            member for tag, rids in ctx.reports.groups.items()
            if tag.startswith("error:") for member in rids
        )
    return rid in ctx.error_rids


def _fallback(
    app: Application,
    rids: list[str],
    requests,
    ctx: SimContext,
    produced: dict[str, str],
    stats: ReExecStats,
    interp=None,
) -> None:
    """Re-execute each request of the group individually (fresh handlers:
    partial group progress is discarded; checks are idempotent reads).
    ``interp`` is the per-request engine (``None``: the plain
    interpreter; the compiled backend passes its own)."""
    ctx.dedup = None
    for rid in rids:
        # A rid can run more than once (listed in several groups, or
        # demoted mid-group); its regenerated externals must not
        # accumulate.
        ctx.produced_externals.pop(rid, None)
        produced[rid] = execute_one(app, requests[rid], ctx, interp=interp)
        stats.fallback_requests += 1
