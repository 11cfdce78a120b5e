"""The phased audit engine: SSCO_AUDIT2 as an explicit pipeline.

The paper's verifier (Figure 12) is a sequence of independent phases —
trace checks, ProcessOpReports, versioned-store redo, grouped
re-execution, output comparison — and this module makes that structure
explicit instead of hard-coding it in one monolithic function:

* :class:`AuditContext` carries everything the phases share: the four
  inputs (app, trace, reports, initial state), the
  :class:`~repro.core.config.AuditConfig` knobs, and the artifacts
  phases produce for each other (graph, OpMap,
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

One more thing lives here because it is built from the same phases:
the redo-only **state precompute** (:func:`state_precompute_pipeline` —
trace check, ProcessOpReports, kv.Build/db.Build, §4.5 migration; no
re-execution, no output comparison) and :func:`iter_epoch_prepass`,
which walks an epoch chain with it.  The epoch driver
(:class:`~repro.core.auditor.AuditSession`) uses the prepass to
materialize the next epoch's initial state before the current one has
finished auditing; the forensic timeline uses it as a bundle index.

The epoch chain itself — :class:`~repro.core.auditor.AuditSession` — is
in :mod:`repro.core.auditor`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from repro.common.collector import collector_scope
from repro.common.errors import AuditReject, RejectReason
from repro.core.config import AuditConfig
from repro.core.nondet import validate_nondet_reports
from repro.core.ooo import _compare_externals, _compare_outputs
from repro.core.process_reports import process_op_reports
from repro.core.reexec import reexec_groups
from repro.core.simulate import SimContext
from repro.objects.base import OpType
from repro.server.app import Application, InitialState
from repro.server.reports import Reports
from repro.trace.trace import Trace, check_balanced


@dataclass
class AuditResult:
    """Outcome of an SSCO audit, with instrumentation."""

    accepted: bool
    reason: RejectReason | None = None
    detail: str = ""
    #: Phase wall-clock seconds: proc_op_reports, db_redo, reexec,
    #: db_query (subset of reexec), output_compare, total.
    phases: dict[str, float] = field(default_factory=dict)
    #: groups, grouped / fallback_requests, dedup hits/misses,
    #: steps, multi_steps, db_queries_issued, versioned sizes ...
    stats: dict[str, object] = field(default_factory=dict)
    produced: dict[str, str] = field(default_factory=dict)
    #: Post-audit compacted state (the next epoch's initial state), only
    #: populated on accept when ``migrate=True``.
    next_initial: InitialState | None = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.accepted

    def to_json(self) -> dict:
        """The verdict object ``repro audit --json`` prints (``epochs``
        are a session's ``stats["shards"]``) plus the produced bodies:
        what a fleet worker answers a work unit with."""
        stats = dict(self.stats)
        epochs = stats.pop("shards", [])
        rejecting = None if self.accepted else next(
            (epoch["shard"] for epoch in epochs if not epoch["accepted"]),
            len(epochs))
        return {
            "verdict": "ACCEPTED" if self.accepted else "REJECTED",
            "accepted": self.accepted,
            "reason": self.reason.value if self.reason else None,
            "detail": self.detail or "",
            "phases": dict(self.phases),
            "stats": stats,
            "epochs": epochs,
            "rejecting_epoch": rejecting,
            "produced": dict(self.produced),
        }

    @classmethod
    def from_json(cls, data: object) -> AuditResult:
        """The result :meth:`to_json` describes, checked field by field:
        it came from another process or host, so a missing or extra key,
        a wrong type, an unknown reason or a verdict that contradicts
        ``accepted`` is a :class:`ValueError`, never a verdict.
        ``group_alphas`` come back as tuples."""
        if type(data) is not dict or data.keys() != _RESULT_KEYS:
            raise ValueError(f"a result has the keys {sorted(_RESULT_KEYS)}")
        accepted, reason, epochs = (data["accepted"], data["reason"],
                                    data["epochs"])
        stats = _checked(data["stats"], _NUMBER, "group_alphas")
        alphas = stats.pop("group_alphas", [])
        if (type(accepted) is not bool or accepted != (reason is None)
                or data["verdict"] != ("REJECTED", "ACCEPTED")[accepted]
                or type(data["detail"]) is not str
                or type(data["rejecting_epoch"]) not in (int, type(None))
                or type(epochs) is not list or type(alphas) is not list
                or not all(type(row) in (list, tuple) and len(row) == 3
                           and all(type(n) in _NUMBER for n in row)
                           for row in alphas)):
            raise ValueError("result fields do not fit the verdict schema")
        for epoch in epochs:
            _checked(epoch, (*_NUMBER, bool))
        if "group_alphas" in data["stats"]:
            stats["group_alphas"] = [tuple(row) for row in alphas]
        if "shard_count" in stats:
            stats["shards"] = epochs
        return cls(accepted, None if accepted else RejectReason(reason),
                   data["detail"], _checked(data["phases"], _NUMBER),
                   stats, _checked(data["produced"], (str,)))


_NUMBER = (int, float)
#: The keys of :meth:`AuditResult.to_json`.
_RESULT_KEYS = frozenset(AuditResult(accepted=True).to_json())


def _checked(value: object, types: tuple, *exempt: str) -> dict:
    """A copy of ``value``, an object whose values (``exempt`` keys
    aside) are all of ``types``; otherwise a :class:`ValueError`."""
    if type(value) is not dict or any(
            type(item) not in types
            for key, item in value.items() if key not in exempt):
        raise ValueError(f"a result field is not an object of "
                         f"{'/'.join(t.__name__ for t in types)}")
    return dict(value)


class AuditContext:
    """Shared state threaded through the pipeline's phases."""

    def __init__(
        self,
        app: Application,
        trace: Trace,
        reports: Reports,
        initial_state: InitialState,
        config: AuditConfig | None = None,
        seen_uniq: set[str] | None = None,
    ):
        self.app = app
        self.trace = trace
        self.reports = reports
        self.initial_state = initial_state
        self.config = config or AuditConfig()
        #: The ``uniqid()`` values of the whole stream so far, when this
        #: is one epoch of a chain (updated in place by the trace
        #: check); ``None`` for a one-epoch audit.
        self.seen_uniq = seen_uniq
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
    """Balanced-trace and non-determinism plausibility checks (§3,
    §4.6) — the latter against the whole stream's ``uniqid()`` values
    when the context carries them, which is what catches one duplicated
    *across* epochs."""

    name = "trace_check"

    def run(self, actx: AuditContext) -> None:
        check_balanced(actx.trace)
        validate_nondet_reports(actx.reports, actx.seen_uniq)


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
            actx.config.strict_registers,
        )
        actx.sim.build_versioned_stores()


class ReExecPhase(AuditPhase):
    """ReExec2 (Figure 12 lines 29-53): grouped SIMD-on-demand
    re-execution."""

    name = "reexec"

    def run(self, actx: AuditContext) -> None:
        config = actx.config
        actx.produced = reexec_groups(
            actx.app, actx.trace, actx.reports, actx.sim,
            strict=config.strict, dedup=config.dedup,
            collapse=config.collapse,
            max_group_size=config.max_group_size,
            backend=config.backend,
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
        if not actx.config.migrate:
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

    @collector_scope()
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


def default_pipeline(_ignored: object = None) -> AuditPipeline:
    """The stock Figure 12 phase sequence.  (The positional parameter
    is unused; benchmarks/e2e/auditor_child.py still passes one.)"""
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


def prepass_epoch(
    app: Application,
    trace: Trace,
    reports: Reports,
    initial_state: InitialState,
    config: AuditConfig,
    seen_uniq: set[str],
) -> AuditContext:
    """The serial half of auditing one epoch of a chain: the redo-only
    state precompute, whose trace check is the cross-epoch one — the
    §4.6 plausibility check runs against the ``uniqid()`` values of the
    whole stream so far (``seen_uniq``, updated in place).

    Returns the primed context: graph, OpMap and built versioned stores,
    with ``result`` the prepass verdict and (``config.migrate``)
    ``result.next_initial`` the next epoch's initial state.
    """
    actx = AuditContext(app, trace, reports, initial_state, config,
                        seen_uniq)
    state_precompute_pipeline().run(actx)
    return actx


def iter_epoch_prepass(
    app: Application,
    epochs: Iterable,
    initial_state: InitialState,
    config: AuditConfig | None = None,
):
    """Walk an epoch chain with :func:`prepass_epoch`, one epoch slice
    at a time, yielding ``(slice, primed AuditContext)`` pairs (the
    forensic timeline, :mod:`repro.forensics.timeline`, keeps them as
    its index).

    This is what a session handed a pool runs at feed time, minus
    the dispatch, so the walk numbers and rejects epochs as an audit of
    the same slices does wherever the prepass — every check but
    re-execution and output comparison — can see the fault.  A
    rejecting epoch is still *yielded* (so callers can inspect the
    partial chain and the rejecting epoch's verdict) and iteration
    stops after it.
    """
    config = (config or AuditConfig()).replace(migrate=True)
    state = initial_state
    seen_uniq: set[str] = set()
    for epoch in epochs:
        actx = prepass_epoch(app, epoch.trace, epoch.reports, state,
                             config, seen_uniq)
        yield epoch, actx
        if not actx.result.accepted:
            return
        state = actx.result.next_initial


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
        result.stats.update(vars(stats))  # every ReExecStats field


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
