"""The top-level verifier: SSCO_AUDIT2 (Figure 12).

Pipeline::

    check_balanced      (Section 3: balanced trace, unique requestIDs)
    validate nondet     (Section 4.6 plausibility checks)
    ProcessOpReports    (Figure 5: ordering + OpMap)           } ProcOpRep
    kv.Build / db.Build (Figure 12 lines 5-6: versioned redo)  } DB redo
    ReExec2             (grouped SIMD-on-demand + simulate-and-check)
    output comparison   (Figure 12 lines 55-57)

The phases are first-class objects since the :mod:`repro.core.pipeline`
refactor; :func:`ssco_audit` is the stable entry point, now a thin
wrapper over :func:`repro.core.auditor.run_audit`.  The phase timers
feed the Figure 9 decomposition; the per-group (n, α, ℓ) triples feed
Figure 11; the dedup counters feed §5.2.

Scaling knobs (all default off, preserving the paper's serial audit):

* ``workers`` — fan group re-execution out over N worker processes;
* ``epoch_size`` / ``epoch_cuts`` — shard the audit at quiescent trace
  cuts and chain the shards through §4.5 state migration;
* ``epoch_workers`` — audit the epoch shards concurrently after a
  redo-only state precompute materializes each shard's initial state.
"""

from __future__ import annotations

from collections.abc import Sequence

# Re-exported for compatibility: AuditResult historically lived here.
from repro.core.auditor import run_audit
from repro.core.pipeline import (  # noqa: F401
    AuditOptions,
    AuditResult,
    _final_registers,
)
from repro.core.reexec import DEFAULT_MAX_GROUP, default_backend
from repro.server.app import Application, InitialState
from repro.server.reports import Reports
from repro.trace.trace import Trace


def ssco_audit(
    app: Application,
    trace: Trace,
    reports: Reports,
    initial_state: InitialState,
    strict: bool = True,
    dedup: bool = True,
    collapse: bool = True,
    strict_registers: bool = False,
    max_group_size: int = DEFAULT_MAX_GROUP,
    migrate: bool = False,
    workers: int = 1,
    epoch_size: int = 0,
    epoch_cuts: Sequence[int] | None = None,
    backend: str | None = None,
    plan_hints: bool = False,
    epoch_workers: int = 1,
    prepass_depth: int = 0,
    fleet_listen: str | None = None,
    fleet_min_workers: int = 0,
    fleet_task_timeout: float | None = None,
    fleet_redundancy: int = 1,
) -> AuditResult:
    """Run the full audit; never raises :class:`AuditReject`.

    Args:
        app: the program (scripts + object configuration) — trusted.
        trace: the collector's trace — trusted to be accurate.
        reports: the executor's reports — untrusted.
        initial_state: shared-object state at epoch start — trusted
            (kept by the verifier; §4.1).
        strict: reject on control-flow divergence within a group (the
            paper's Figure 12 line 39) instead of retrying per-request.
        dedup: enable read-query deduplication (§4.5).
        collapse: enable multivalue collapse (§4.3) — ablation hook.
        strict_registers: reject register reads with no logged write and
            no initial value (the paper's literal SimOp).
        max_group_size: chunk groups beyond this size (§4.7).
        migrate: on accept, compact the versioned store into the next
            epoch's initial state (§4.5 migration).
        workers: worker processes for group re-execution (<= 1: serial).
            Parallel audits produce bit-identical bodies, and identical
            verdicts on honest executions; the parallel planner
            subdivides large groups, which in *strict* mode can narrow
            the window in which a bogus grouping's internal divergence
            is observed (see :mod:`repro.core.reexec`).
        epoch_size: shard the audit at quiescent cuts every ~N requests
            (0 disables).  Shards chain through migrated state.
        epoch_cuts: explicit cut positions (event indexes, e.g. the
            executor's recorded epoch marks); overrides ``epoch_size``.
        backend: registered re-execution backend running each group
            chunk (``"accinterp"`` is the paper's accelerated
            interpreter, ``"interp"`` the plain per-request reference;
            see :func:`repro.core.reexec.register_reexec_backend`).
            ``None`` resolves ``REPRO_BACKEND`` at call time.
        plan_hints: consult the static analyzer's divergence-hazard
            report during chunk planning (non-strict audits only);
            never changes produced bodies or verdicts.
        epoch_workers: audit the epoch shards concurrently, this many
            at a time, on one persistent process pool shared across
            the run (<= 1 keeps the serial chain; see
            :mod:`repro.core.epochpool`).  A redo-only state
            precompute materializes each shard's initial state first;
            verdicts, produced bodies, and per-shard stats are
            bit-identical to the serial chain (see
            :func:`repro.core.auditor.sharded_audit`).  Only
            meaningful together with ``epoch_size``/``epoch_cuts``.
        prepass_depth: bound on in-flight primed epochs — how far the
            speculative prepass may run ahead of the slowest
            unfinished epoch audit (0 means ``2 * epoch_workers``).
        fleet_listen: listen for ``repro worker`` daemons on
            ``HOST:PORT`` and fan the epoch work units out to them
            (see :mod:`repro.fleet`); verdicts, bodies, and stats are
            bit-identical to the single-host run.
        fleet_min_workers: wait for this many registered workers
            before the first dispatch.
        fleet_task_timeout: per-epoch straggler deadline on a worker;
            past it the epoch is re-dispatched.
        fleet_redundancy: dispatch each epoch to this many workers and
            cross-check the verdicts (1 disables).

    For long-lived / incremental use, prefer the object API:
    ``Auditor(app, AuditConfig(...))`` (see :mod:`repro.core.auditor`) —
    this function is its one-shot equivalent and remains stable.
    """
    options = AuditOptions(
        strict=strict,
        dedup=dedup,
        collapse=collapse,
        strict_registers=strict_registers,
        max_group_size=max_group_size,
        migrate=migrate,
        workers=workers,
        epoch_size=epoch_size,
        epoch_cuts=epoch_cuts,
        backend=backend if backend is not None else default_backend(),
        plan_hints=plan_hints,
        epoch_workers=epoch_workers,
        prepass_depth=prepass_depth,
        fleet_listen=fleet_listen,
        fleet_min_workers=fleet_min_workers,
        fleet_task_timeout=fleet_task_timeout,
        fleet_redundancy=fleet_redundancy,
    )
    return run_audit(app, trace, reports, initial_state, options)
