"""Targeted single-request re-audit.

Replays exactly one request's control-flow chunk plus the chunks of
its read-lineage closure through the audit's own chunk loop
(:func:`repro.core.reexec.run_chunks`), against the per-epoch stores
the prepass already primed, and returns a **scoped** ACCEPT/REJECT
with the produced body.

Scope and soundness
-------------------

The certification scope is the target plus its transitive lineage
closure (:func:`repro.forensics.lineage.request_lineage`).  Chunk
granularity may force extra requests to be *replayed* (they share a
deterministic re-exec chunk with a scoped request), but the output
comparison covers scoped requests only: a tampered response elsewhere
in the same control-flow group does not reject a clean request's
scoped verdict — and conversely a scoped ACCEPT says nothing about
requests outside the closure.  The full audit remains the only global
verdict; see ``docs/forensics.md``.

Replay is idempotent against the shared simulation context: the
versioned stores are read-only during re-execution and every backend
pops a request's regenerated externals before replaying it, so a
scoped pass over an already-audited context produces bit-identical
bodies to the full audit's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import AuditReject
from repro.core.ooo import _compare_externals, _compare_outputs
from repro.core.reexec import ReExecStats, run_chunks
from repro.forensics.lineage import Lineage, request_lineage
from repro.forensics.timeline import Timeline

#: ReExecStats fields surfaced in :attr:`ReauditResult.stats`.
_STAT_FIELDS = ("groups", "grouped_requests", "fallback_requests",
                "divergences", "steps", "multi_steps", "multi_slots",
                "multi_classes")


@dataclass
class ReauditResult:
    """Verdict of one scoped re-audit."""

    accepted: bool
    #: :class:`~repro.common.errors.RejectReason` (or ``None``).
    reason: object
    detail: str
    rid: str
    epoch: int
    #: rid -> regenerated body, for every request replayed.
    produced: dict[str, str] = field(default_factory=dict)
    #: The target's regenerated body (``None`` if it aborted or the
    #: re-audit rejected before producing it).
    body: str | None = None
    #: The trace's recorded body for the target (``None`` if aborted).
    expected_body: str | None = None
    #: Every (epoch, rid) replayed, in replay order.
    replayed: list[tuple[int, str]] = field(default_factory=list)
    chunks_replayed: int = 0
    lineage: Lineage | None = None
    #: Summed re-exec counters across all replayed chunks.
    stats: dict[str, int] = field(default_factory=dict)


def reaudit_request(
    timeline: Timeline, rid: str, backend: str | None = None
) -> ReauditResult:
    """Scoped ACCEPT/REJECT for one request.

    Raises :class:`~repro.forensics.timeline.UnknownRequest` when the
    rid is not in the timeline (including requests past a prepass
    rejection).
    """
    entry = timeline.entry(rid)
    lineage = request_lineage(timeline, rid)
    scope: dict[int, set[str]] = {entry.epoch: {rid}}
    for producer_epoch, producer_rid in lineage.requests:
        scope.setdefault(producer_epoch, set()).add(producer_rid)

    result = ReauditResult(
        accepted=True, reason=None, detail="", rid=rid,
        epoch=entry.epoch, lineage=lineage,
    )
    stats = ReExecStats()
    try:
        for epoch in sorted(scope):
            _replay_epoch(timeline, epoch, scope[epoch], backend,
                          stats, result)
    except AuditReject as reject:
        result.accepted = False
        result.reason = reject.reason
        result.detail = reject.detail
    result.stats = {name: getattr(stats, name) for name in _STAT_FIELDS}
    result.body = result.produced.get(rid)
    return result


def _replay_epoch(
    timeline: Timeline,
    epoch: int,
    scope_rids: set[str],
    backend: str | None,
    stats: ReExecStats,
    result: ReauditResult,
) -> None:
    actx = timeline.context(epoch)
    config = timeline.config
    plan = timeline.chunk_plan(epoch)  # raises the stored plan error
    selected = [chunk for chunk in plan
                if any(r in scope_rids for r in chunk)]
    covered = {r for chunk in selected for r in chunk}
    for orphan in sorted(scope_rids - covered):
        selected.append([orphan])

    produced: dict[str, str] = {}
    run_chunks(
        actx.app, selected, actx.trace.requests(), actx.reports,
        actx.sim, config.strict, config.dedup, config.collapse,
        backend or config.backend, produced, stats,
    )
    result.chunks_replayed += len(selected)
    for chunk in selected:
        result.replayed.extend((epoch, r) for r in chunk)
    result.produced.update(produced)

    response = actx.trace.responses().get(result.rid)
    if response is not None and response.abort_info is None:
        result.expected_body = response.body
    # The full audit's comparisons, scoped to the lineage closure.
    scope = sorted(scope_rids)
    _compare_outputs(actx.trace, produced, scope)
    _compare_externals(actx.trace, actx.sim, scope)
