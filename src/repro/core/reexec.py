"""ReExec2: grouped SIMD-on-demand re-execution (Figure 12, lines 29-53).

Re-executes the trace in control-flow groups according to the (untrusted)
groupings ``C``.  Each group runs once through the compiled engine;
at every state operation the group yields, :func:`repro.core.ooo.drive`
loops over the group's requests ("for all rid in the group", line 43),
applying CheckOp and — for reads — SimOp via each request's
:class:`~repro.core.simulate.OpHandler`.

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

Engines: the name ``AuditConfig.backend`` carries picks, from the one
table :data:`BACKENDS`, how :func:`run_chunks` runs each chunk:

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

``"accinterp"`` (grouped) and ``"compinterp"`` (one request at a time,
the path demotions take) name the compiled engine too, for the callers
listed beside the table.  Every per-request run, on either engine, goes
through :func:`repro.core.ooo.execute_one`: a group of one, same loop.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.common.errors import (
    AuditReject,
    DivergenceError,
    MultivalueFallback,
    RejectReason,
    WeblangError,
)
from repro.lang.compile import CompInterpreter
from repro.core.dedup import QueryDedup
from repro.core.ooo import drive, execute_one
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
    unknown name fails with :func:`chunk_mode`'s "unknown re-exec
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


#: How each name ``AuditConfig.backend`` may carry runs a chunk:
#: ``(grouped, compiled)`` — as one group on the compiled engine, or one
#: request at a time on the compiled engine or on the oracle.
#: ``accinterp`` / ``compinterp`` are names from when there were three
#: engines and a router; the frozen ``benchmarks/e2e/auditor_child.py``
#: and CI's ``REPRO_BACKEND=compinterp`` step still ask for them.
BACKENDS: dict[str, tuple[bool, bool]] = {
    "hybrid": (True, True),
    "interp": (False, False),
    "accinterp": (True, True),
    "compinterp": (False, True),
}


def chunk_mode(backend: str) -> tuple[bool, bool]:
    """``(grouped, compiled)`` for ``backend``; raises
    :class:`ValueError` naming the known backends for any other name."""
    try:
        return BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown re-exec backend {backend!r} "
            f"(available: {', '.join(sorted(BACKENDS))})"
        ) from None


def plan_chunks(
    reports: Reports,
    requests: dict[str, object],
    max_group_size: int = DEFAULT_MAX_GROUP,
) -> list[list[str]]:
    """The deterministic chunk plan the drivers execute.

    Groups are visited in sorted-tag order; duplicate rids within one
    group are dropped (re-execution is idempotent, but duplicate slots
    would double-consume nondet cursors); oversized groups are chunked
    at ``max_group_size`` (§4.7).  Raises
    :class:`AuditReject` when a grouping names a request outside the
    trace.
    """
    chunks: list[list[str]] = []
    for tag in sorted(reports.groups):
        rids = list(dict.fromkeys(reports.groups[tag]))
        for rid in rids:
            if rid not in requests:
                raise AuditReject(
                    RejectReason.GROUP_UNKNOWN_RID,
                    f"grouping names unknown request {rid!r}",
                )
        for start in range(0, len(rids), max_group_size):
            chunks.append(rids[start : start + max_group_size])
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
    backend: str | None = None,
) -> dict[str, str]:
    """Re-execute all groups; returns rid -> produced body.

    The chunks run one after another in this process.  ``backend``
    names the :data:`BACKENDS` entry that runs each chunk (``None``
    resolves :func:`default_backend` at call time).  Raises
    :class:`AuditReject` on any failed check.
    """
    backend = backend if backend is not None else default_backend()
    requests = trace.requests()
    chunks = plan_chunks(reports, requests, max_group_size)
    produced: dict[str, str] = {}
    stats = ctx.reexec_stats = ReExecStats()
    run_chunks(app, chunks, requests, reports, ctx, strict, dedup,
               collapse, backend, produced, stats)
    return produced


def run_chunks(
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
    """The chunk loop: each chunk, in order, the way ``backend`` says
    (also what the forensic re-audit replays a scope's chunks with)."""
    grouped, compiled = chunk_mode(backend)
    engine = None  # execute_one's own: the plain interpreter
    if compiled:
        engine = CompInterpreter(
            db_name=app.db_name,
            kv_name=app.kv_name,
            session_cookie=app.session_cookie,
            record_flow=False,
            collapse_enabled=collapse,
        )
    for chunk in chunks:
        _run_chunk(app, engine, grouped, chunk, requests, reports, ctx,
                   strict, dedup, produced, stats)


def _run_chunk(
    app: Application,
    engine: CompInterpreter | None,
    grouped: bool,
    rids: list[str],
    requests,
    reports: Reports,
    ctx: SimContext,
    strict: bool,
    dedup: bool,
    produced: dict[str, str],
    stats: ReExecStats,
) -> None:
    """One chunk: ``grouped``, in one pass over ``engine``'s compiled
    code, re-run per request on it if it cannot finish that way;
    otherwise one request at a time on ``engine`` (``None``: the
    oracle)."""
    stats.groups += 1
    scripts = {requests[rid].script for rid in rids}
    if len(scripts) > 1 and strict:
        # Control flow includes the script identity; mixed groups can only
        # come from a bogus grouping report, whatever the engine.
        raise AuditReject(
            RejectReason.GROUP_DIVERGED,
            f"group mixes scripts {sorted(scripts)}",
        )
    if len(scripts) > 1 or not grouped:
        _fallback(app, rids, requests, ctx, produced, stats, engine)
        return
    program = app.script(next(iter(scripts)))
    group_requests = [requests[rid] for rid in rids]
    for rid in rids:
        # A rid listed in several groups re-executes idempotently; its
        # regenerated externals must not accumulate across runs.
        ctx.produced_externals.pop(rid, None)
    handlers = [OpHandler(ctx, rid) for rid in rids]
    cursors = [NondetCursor(rid, reports.nondet.get(rid, []))
               for rid in rids]
    vdb = ctx.vdb.get(app.db_name)
    ctx.dedup = QueryDedup(vdb) if (dedup and vdb is not None) else None
    try:
        output = drive(engine.run_group(program, group_requests), rids,
                       handlers, cursors, ctx)
    except DivergenceError as diverged:
        stats.divergences += 1
        if strict and not _in_error_group(ctx, rids[0]):
            raise AuditReject(
                RejectReason.GROUP_DIVERGED, diverged.detail
            ) from diverged
        _fallback(app, rids, requests, ctx, produced, stats, engine)
    except (MultivalueFallback, WeblangError):
        # Retry path (§4.3): not a verdict about the executor.
        _fallback(app, rids, requests, ctx, produced, stats, engine)
    else:
        for rid, handler, body in zip(rids, handlers, output.bodies):
            handler.finish()
            produced[rid] = body
        stats.grouped_requests += len(rids)
        stats.steps += output.steps
        stats.multi_steps += output.multi_steps
        stats.multi_slots += output.multi_slots
        stats.multi_classes += output.multi_classes
        alpha = (
            1.0 - output.multi_steps / output.steps if output.steps else 1.0
        )
        stats.group_alphas.append((len(rids), alpha, output.steps))
    finally:
        ctx.dedup = None


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
    engine: CompInterpreter | None,
) -> None:
    """Re-execute each request of the group individually on ``engine``
    (``None``: the oracle), with fresh handlers: partial group progress
    is discarded; checks are idempotent reads."""
    ctx.dedup = None
    for rid in rids:
        # A rid can run more than once (listed in several groups, or
        # demoted mid-group); its regenerated externals must not
        # accumulate.
        ctx.produced_externals.pop(rid, None)
        produced[rid] = execute_one(app, requests[rid], ctx, interp=engine)
        stats.fallback_requests += 1
