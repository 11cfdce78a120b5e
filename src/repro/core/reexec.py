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
engine*; chunk planning and the chunk loop are shared.  A backend name
is what an epoch work unit carries across the process boundary, so
third-party backends register at import time.
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

    A backend is constructed per audit pass via its registered factory —
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


def plan_chunks(
    reports: Reports,
    requests: dict[str, object],
    max_group_size: int = DEFAULT_MAX_GROUP,
    app: Application | None = None,
    plan_hints: bool = False,
    strict: bool = True,
) -> list[list[str]]:
    """The deterministic chunk plan the drivers execute.

    Groups are visited in sorted-tag order; duplicate rids within one
    group are dropped (re-execution is idempotent, but duplicate slots
    would double-consume nondet cursors); oversized groups are chunked
    at ``max_group_size`` (§4.7).  Raises
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

    hazards: frozenset = frozenset()
    if plan_hints and not strict and app is not None:
        hazards = divergence_hazards(app)

    chunks: list[list[str]] = []
    for rids in groups:
        scripts = {requests[rid].script for rid in rids}
        if (len(scripts) == 1 and len(rids) > 1
                and next(iter(scripts)) in hazards):
            # Hopeless group: pre-demote to singletons.
            chunks.extend([rid] for rid in rids)
            continue
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
    plan_hints: bool = False,
) -> dict[str, str]:
    """Re-execute all groups; returns rid -> produced body.

    The chunks run one after another in this process.  ``backend``
    names the registered re-execution engine that runs each chunk
    (``None`` resolves :func:`default_backend` at call time);
    ``plan_hints`` lets the chunk plan consult the static analyzer's
    divergence hazards (see :func:`plan_chunks`; non-strict mode only).
    Raises :class:`AuditReject` on any failed check.
    """
    backend = backend if backend is not None else default_backend()
    requests = trace.requests()
    chunks = plan_chunks(reports, requests, max_group_size,
                         app=app, plan_hints=plan_hints, strict=strict)
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
    """The chunk loop: each chunk, in order, on one backend instance
    (also what the forensic re-audit replays a scope's chunks with)."""
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
