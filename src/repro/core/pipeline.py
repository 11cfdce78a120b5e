"""The phased audit engine: SSCO_AUDIT2 as an explicit pipeline.

The paper's verifier (Figure 12) is a sequence of independent phases —
trace checks, ProcessOpReports, versioned-store redo, grouped
re-execution, output comparison — and this module makes that structure
explicit instead of hard-coding it in one monolithic function:

* :class:`AuditContext` carries everything the phases share: the four
  inputs (app, trace, reports, initial state), the :class:`AuditOptions`
  knobs, and the artifacts phases produce for each other (graph, OpMap,
  :class:`~repro.core.simulate.SimContext`, produced bodies) plus the
  :class:`AuditResult` under construction.
* :class:`AuditPhase` is one composable step; the stock phases
  (:class:`TraceCheckPhase` ... :class:`MigratePhase`) reproduce Figure
  12 exactly, and callers can insert, remove, or replace phases to build
  custom auditors (ablations, extra validators, incremental audits).
* :class:`AuditPipeline` runs the phases in order, times each one into
  ``AuditResult.phases`` (the Figure 9 decomposition), converts
  :class:`AuditReject` into a rejected result, and harvests
  instrumentation in a ``finally`` block so rejected audits still carry
  their stats.

Two more things live here because they are built from the same phases:

* ``AuditOptions.workers > 1`` makes :class:`ReExecPhase` fan group
  chunks out over a process pool (see :mod:`repro.core.reexec`);
* the redo-only **state precompute** (:func:`state_precompute_pipeline`
  — trace check, ProcessOpReports, kv.Build/db.Build, §4.5 migration;
  no re-execution, no output comparison) and :func:`iter_epoch_prepass`,
  which walks an epoch chain with it.  The epoch driver
  (:class:`~repro.core.auditor.AuditSession`) uses the prepass to
  materialize the next epoch's initial state before the current one has
  finished auditing; the forensic timeline uses it as a bundle index.

The epoch chain itself — :func:`~repro.core.auditor.sharded_audit`,
:func:`~repro.core.auditor.run_audit` and the session they drive — is in
:mod:`repro.core.auditor`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from collections.abc import Sequence

from repro.common.errors import AuditReject, RejectReason
from repro.core.nondet import validate_nondet_reports
from repro.core.ooo import _compare_externals, _compare_outputs
from repro.core.partition import Shard
from repro.core.process_reports import process_op_reports
from repro.core.reexec import (
    DEFAULT_MAX_GROUP,
    default_backend,
    get_reexec_backend,
    reexec_groups,
)
from repro.core.simulate import SimContext
from repro.objects.base import OpType
from repro.server.app import Application, InitialState
from repro.server.reports import Reports
from repro.trace.trace import Trace, check_balanced


@dataclass
class AuditOptions:
    """The audit's knob set (every ``ssco_audit`` keyword in one place)."""

    strict: bool = True
    dedup: bool = True
    collapse: bool = True
    strict_registers: bool = False
    max_group_size: int = DEFAULT_MAX_GROUP
    migrate: bool = False
    #: Worker processes for group re-execution; <= 1 means serial.
    workers: int = 1
    #: Shard the audit at quiescent cuts every ~N requests; 0 disables.
    epoch_size: int = 0
    #: Explicit cut positions (event indexes, e.g. the executor's epoch
    #: marks); overrides ``epoch_size`` when set.
    epoch_cuts: Sequence[int] | None = None
    #: Registered re-execution backend that runs each group chunk (see
    #: :func:`repro.core.reexec.register_reexec_backend`).  Resolved
    #: from ``REPRO_BACKEND`` at construction time, not import time.
    backend: str = field(default_factory=default_backend)
    #: Consult the static analyzer's divergence-hazard report when
    #: planning re-exec chunks: groups whose script is a known hazard
    #: are pre-demoted to singletons instead of being grouped, demoted
    #: at run time, and replayed.  Non-strict audits only (in strict
    #: mode divergence is a verdict, not a perf problem); produced
    #: bodies and verdicts are unchanged either way.
    plan_hints: bool = False
    #: Audit epoch shards concurrently, this many at a time, as whole-
    #: epoch work units on one persistent process pool shared across
    #: the run (see :mod:`repro.core.epochpool`); <= 1 keeps the serial
    #: epoch chain.  Only consulted by the epoch driver.
    epoch_workers: int = 1
    #: Bound on in-flight *primed* epochs — how far the speculative
    #: redo-only prepass may run ahead of the slowest unfinished epoch
    #: audit.  0 means the default ``2 * epoch_workers``.
    prepass_depth: int = 0
    #: Execute the ``workers``-shaped chunk plan serially in-process,
    #: never creating a re-exec pool.  Set inside process-level epoch
    #: workers; chunk plans (and therefore all results) are unchanged.
    inline_reexec: bool = False
    #: Fleet: listen for remote workers on ``HOST:PORT`` and fan epoch
    #: work units out to them (see :mod:`repro.fleet`); ``None`` keeps
    #: every epoch on this host.  Only consulted by the epoch driver;
    #: results are bit-identical to the single-host run either way.
    fleet_listen: str | None = None
    #: Fleet: wait for this many registered workers before the first
    #: dispatch (0 dispatches to whoever has joined).
    fleet_min_workers: int = 0
    #: Fleet: overall per-epoch deadline on one worker; a straggler is
    #: dropped and its epoch re-dispatched.  ``None`` relies on
    #: heartbeat-miss detection alone.
    fleet_task_timeout: float | None = None
    #: Fleet: dispatch each epoch to this many workers and cross-check
    #: the verdicts (1 disables).
    fleet_redundancy: int = 1


@dataclass
class AuditResult:
    """Outcome of an SSCO audit, with instrumentation."""

    accepted: bool
    reason: RejectReason | None = None
    detail: str = ""
    #: Phase wall-clock seconds: proc_op_reports, db_redo, reexec,
    #: db_query (subset of reexec), output_compare, total.
    phases: dict[str, float] = field(default_factory=dict)
    #: groups, grouped_requests, fallback_requests, dedup hits/misses,
    #: steps, multi_steps, db_queries_issued, versioned sizes ...
    stats: dict[str, object] = field(default_factory=dict)
    produced: dict[str, str] = field(default_factory=dict)
    #: Post-audit compacted state (the next epoch's initial state), only
    #: populated on accept when ``migrate=True``.
    next_initial: InitialState | None = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.accepted


class AuditContext:
    """Shared state threaded through the pipeline's phases."""

    def __init__(
        self,
        app: Application,
        trace: Trace,
        reports: Reports,
        initial_state: InitialState,
        options: AuditOptions | None = None,
    ):
        self.app = app
        self.trace = trace
        self.reports = reports
        self.initial_state = initial_state
        self.options = options or AuditOptions()
        # Fail at the boundary, not five frames deep in reexec_groups:
        # AuditOptions is deliberately lenient (internal plumbing), so a
        # bad backend name entering via ssco_audit kwargs or a
        # hand-built options object is caught here, with the registered
        # names in the message.
        get_reexec_backend(self.options.backend)
        # Artifacts the phases hand to each other.
        self.graph = None
        self.opmap = None
        self.sim: SimContext | None = None
        self.produced: dict[str, str] = {}
        self.result = AuditResult(accepted=False)


class AuditPhase:
    """One composable audit step.

    Subclasses set :attr:`name` (the ``AuditResult.phases`` timer key)
    and implement :meth:`run`, which reads and writes the shared
    :class:`AuditContext` and raises :class:`AuditReject` on a failed
    check.
    """

    name = "phase"

    def run(self, actx: AuditContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class TraceCheckPhase(AuditPhase):
    """Balanced-trace and non-determinism plausibility checks (§3, §4.6)."""

    name = "trace_check"

    def run(self, actx: AuditContext) -> None:
        check_balanced(actx.trace)
        validate_nondet_reports(actx.reports)


class ProcessReportsPhase(AuditPhase):
    """ProcessOpReports (Figure 5): ordering verification + OpMap."""

    name = "proc_op_reports"

    def run(self, actx: AuditContext) -> None:
        graph, opmap = process_op_reports(actx.trace, actx.reports)
        actx.graph = graph
        actx.opmap = opmap
        actx.result.stats["graph_nodes"] = graph.node_count()
        actx.result.stats["graph_edges"] = graph.edge_count()


class BuildStoresPhase(AuditPhase):
    """kv.Build / db.Build (Figure 12 lines 5-6): the versioned redo."""

    name = "db_redo"

    def run(self, actx: AuditContext) -> None:
        actx.sim = SimContext(
            actx.app, actx.reports, actx.opmap, actx.initial_state,
            actx.options.strict_registers,
        )
        actx.sim.build_versioned_stores()


class ReExecPhase(AuditPhase):
    """ReExec2 (Figure 12 lines 29-53): grouped SIMD-on-demand
    re-execution, optionally fanned out over worker processes."""

    name = "reexec"

    def run(self, actx: AuditContext) -> None:
        options = actx.options
        actx.produced = reexec_groups(
            actx.app, actx.trace, actx.reports, actx.sim,
            strict=options.strict, dedup=options.dedup,
            collapse=options.collapse,
            max_group_size=options.max_group_size,
            workers=options.workers,
            backend=options.backend,
            inline=options.inline_reexec,
            plan_hints=options.plan_hints,
        )
        actx.result.phases["db_query"] = actx.sim.db_query_seconds


class OutputComparePhase(AuditPhase):
    """Figure 12 lines 55-57 plus the §5.5 external-request comparison."""

    name = "output_compare"

    def run(self, actx: AuditContext) -> None:
        _compare_outputs(actx.trace, actx.produced)
        _compare_externals(actx.trace, actx.sim)
        actx.result.produced = actx.produced


class MigratePhase(AuditPhase):
    """§4.5 migration: compact the versioned stores into the next
    epoch's trusted initial state.  No-op unless ``migrate`` is set."""

    name = "migrate"

    def run(self, actx: AuditContext) -> None:
        if not actx.options.migrate:
            return
        ctx = actx.sim
        app = actx.app
        vdb = ctx.vdb[app.db_name]
        vkv = ctx.vkv[app.kv_name]
        registers = dict(actx.initial_state.registers)
        registers.update(_final_registers(actx.reports))
        kv_state = dict(actx.initial_state.kv)
        kv_state.update(vkv.latest_state())
        actx.result.next_initial = InitialState(
            vdb.latest_engine(), kv_state, registers
        )


class AuditPipeline:
    """Runs :class:`AuditPhase` objects in order over one context."""

    def __init__(self, phases: Sequence[AuditPhase]):
        self.phases: list[AuditPhase] = list(phases)

    def run(self, actx: AuditContext) -> AuditResult:
        """Run every phase; never raises :class:`AuditReject`."""
        result = actx.result
        total_start = _time.perf_counter()
        try:
            for phase in self.phases:
                phase_start = _time.perf_counter()
                try:
                    phase.run(actx)
                finally:
                    result.phases[phase.name] = (
                        result.phases.get(phase.name, 0.0)
                        + _time.perf_counter() - phase_start
                    )
            result.accepted = True
        except AuditReject as reject:
            result.accepted = False
            result.reason = reject.reason
            result.detail = reject.detail
        finally:
            result.phases["total"] = _time.perf_counter() - total_start
            _collect_stats(actx)
        return result


def default_pipeline(options: AuditOptions | None = None) -> AuditPipeline:
    """The stock Figure 12 phase sequence."""
    return AuditPipeline([
        TraceCheckPhase(),
        ProcessReportsPhase(),
        BuildStoresPhase(),
        ReExecPhase(),
        OutputComparePhase(),
        MigratePhase(),
    ])


def state_precompute_pipeline() -> AuditPipeline:
    """The redo-only prepass: trace check → ProcessOpReports →
    BuildStores → Migrate — no re-execution, no output comparison.

    With ``migrate=True`` this computes exactly the §4.5 migrated state
    the full audit would emit: kv.Build/db.Build (Figure 12 lines 5-6)
    replay the logged writes without re-executing any request, and
    re-execution itself never mutates the versioned stores.  Running it
    over an epoch therefore yields the next epoch's initial state
    without waiting for the epoch's audit, which is what unlocks
    auditing epochs concurrently.
    """
    return AuditPipeline([
        TraceCheckPhase(),
        ProcessReportsPhase(),
        BuildStoresPhase(),
        MigratePhase(),
    ])


def iter_epoch_prepass(
    app: Application,
    shards: Sequence[Shard],
    initial_state: InitialState,
    options: AuditOptions | None = None,
):
    """Walk the shard chain with the redo-only prepass, one shard at a
    time, yielding ``(shard, primed AuditContext)`` pairs.

    Each yielded context holds its shard's graph, OpMap, and built
    versioned stores, with ``result.next_initial`` chaining the §4.5
    migrated state into the next shard (the forensic timeline,
    :mod:`repro.forensics.timeline`, keeps them as its index).  A
    rejecting shard is still *yielded* (so callers can inspect the
    partial chain and the rejecting epoch's verdict) and iteration
    stops after it.  Non-final shards always migrate; the final shard
    migrates only when the caller's options ask for it.
    """
    options = options or AuditOptions()
    state = initial_state
    for shard in shards:
        is_last = shard.index == len(shards) - 1
        shard_options = replace(
            options, epoch_size=0, epoch_cuts=None, epoch_workers=1,
            migrate=options.migrate or not is_last,
        )
        actx = AuditContext(app, shard.trace, shard.reports, state,
                            shard_options)
        state_precompute_pipeline().run(actx)
        yield shard, actx
        if not actx.result.accepted:
            return
        if not is_last:
            state = actx.result.next_initial


def resolve_prepass_depth(options: AuditOptions) -> int:
    """The effective bound on in-flight primed epochs: the explicit
    ``prepass_depth`` knob, or ``2 * epoch_workers`` when unset — a
    window deep enough to keep every worker busy while the next epochs
    prime, shallow enough that a stream cannot hold more than a bounded
    number of speculative work units (follow sessions: the prepass must
    not run unboundedly ahead of the auditor)."""
    if options.prepass_depth > 0:
        return options.prepass_depth
    return 2 * max(1, options.epoch_workers)


# -- instrumentation harvest ---------------------------------------------------


def _collect_stats(actx: AuditContext) -> None:
    """Fold the simulation context's counters into the result (runs in
    the pipeline's ``finally``, so rejected audits keep their stats)."""
    result = actx.result
    ctx = actx.sim
    if ctx is None:
        return
    result.stats.update(
        {
            "db_queries_issued": ctx.db_queries_issued,
            "dedup_hits": ctx.dedup_hits,
            "dedup_misses": ctx.dedup_misses,
        }
    )
    vdb = ctx.vdb.get(actx.app.db_name)
    if vdb is not None:
        result.stats["versioned_db_bytes"] = vdb.size_bytes()
        result.stats["versioned_db_versions"] = vdb.version_count()
        result.stats["redo_statements"] = vdb.redo_statements
    stats = getattr(ctx, "reexec_stats", None)
    if stats is not None:
        result.stats.update(
            {
                "groups": stats.groups,
                "grouped_requests": stats.grouped_requests,
                "fallback_requests": stats.fallback_requests,
                "divergences": stats.divergences,
                "steps": stats.steps,
                "multi_steps": stats.multi_steps,
                "group_alphas": stats.group_alphas,
            }
        )


def _final_registers(reports: Reports) -> dict[str, object]:
    """Last written value of every register appearing in the logs."""
    final: dict[str, object] = {}
    for obj_name, log in reports.op_logs.items():
        if not obj_name.startswith("reg:"):
            continue
        for record in log:
            if record.optype is OpType.REGISTER_WRITE:
                final[obj_name] = record.opcontents[0]
    return final
