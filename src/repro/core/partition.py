"""Epoch/shard partitioning of audit inputs (§4.7, §5.2).

The paper's deployment audits *epochs* independently: acc-PHP "audits
epochs independently" and keeps only migrated state between them.  This
module finds the places where one recorded epoch can be cut into several
independently auditable **shards** and performs the cut.

A cut position is sound only at a *quiescent point* of the trace: an
event index where every request that has arrived has also departed
(responded).  At such a point the time-precedence relation ``<Tr``
totally orders the two sides — every request before the cut precedes
every request after it — so

* each side's trace is balanced on its own;
* each object log splits into a contiguous prefix/suffix (an honest
  executor performs a request's operations strictly inside its
  arrival/departure window);
* the precedence graph of the whole trace is the union of the per-shard
  graphs plus forward-only cross edges, which cannot create new cycles.

State still flows across the cut, so shards are chained: shard *k*'s
initial state is shard *k-1*'s post-audit migrated state (§4.5).  The
chain makes acceptance inductive — shard *k*'s initial state is only
trusted because shard *k-1*'s logs were fully validated — which is the
same argument the paper uses for contiguous audit epochs.

Partitioning is **best-effort and never rejects**: when the untrusted
reports do not split cleanly (a log interleaves requests across a cut, a
report names an unknown request, ...) the partitioner raises
:class:`PartitionError` and the caller falls back to a single shard,
i.e. the ordinary unsharded audit.  Control-flow groups that span a cut
are split; grouping is an untrusted hint, so splitting is always sound
(it only reduces SIMD batching).

The executor emits quiescent points on purpose when configured with an
``epoch_size`` (it drains in-flight requests every N completions and
records the cut in ``ExecutionResult.epoch_marks``); traces served
without draining typically have no interior quiescent points and audit
as one shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.server.reports import Reports
from repro.trace.trace import Trace


class PartitionError(ValueError):
    """The inputs cannot be sharded at the requested cuts.

    Never a verdict: callers fall back to auditing a single shard.
    """


@dataclass
class Shard:
    """One independently auditable slice of a recorded epoch."""

    index: int
    trace: Trace
    reports: Reports
    rids: set[str] = field(default_factory=set)

    @property
    def request_count(self) -> int:
        return len(self.rids)


def quiescent_points(trace: Trace) -> list[int]:
    """Interior event indexes where no request is in flight.

    A returned index ``i`` means: after consuming events ``[0, i)`` every
    arrived request has departed.  Endpoints (0 and ``len(trace)``) are
    excluded — they are always quiescent and never useful cuts.
    """
    points: list[int] = []
    in_flight: set[str] = set()
    for position, event in enumerate(trace):
        if event.is_request:
            in_flight.add(event.rid)
        elif event.is_response:
            in_flight.discard(event.rid)
        if not in_flight and 0 < position + 1 < len(trace):
            points.append(position + 1)
    return points


def find_epoch_cuts(trace: Trace, epoch_size: int) -> list[int]:
    """Quiescent cuts spaced at least ``epoch_size`` requests apart.

    Returns event indexes suitable for :func:`partition_audit_inputs`;
    empty when the trace never quiesces (e.g. it was served without
    epoch draining) or ``epoch_size <= 0``.
    """
    if epoch_size <= 0:
        return []
    candidates = set(quiescent_points(trace))
    cuts: list[int] = []
    completed_since_cut = 0
    for position, event in enumerate(trace):
        if event.is_response:
            completed_since_cut += 1
        if position + 1 in candidates and completed_since_cut >= epoch_size:
            cuts.append(position + 1)
            completed_since_cut = 0
    return cuts


def validate_cuts(trace: Trace, cuts: Sequence[int]) -> list[int]:
    """Keep only cuts that are genuine quiescent points, sorted, deduped.

    ``cuts`` may come from an untrusted bundle (recorded epoch marks):
    anything that is not a plain integer naming a quiescent point —
    reversed, repeated, zero, out of range, the wrong type — is dropped.
    """
    wanted = {cut for cut in cuts if type(cut) is int}
    return [point for point in quiescent_points(trace) if point in wanted]


def partition_trace(trace: Trace, cuts: Sequence[int]) -> list[Trace]:
    """Split the trace at the given (validated) event indexes."""
    segments: list[Trace] = []
    previous = 0
    for cut in list(cuts) + [len(trace)]:
        if cut <= previous:
            continue
        segments.append(Trace(trace.events[previous:cut]))
        previous = cut
    return segments


def partition_reports(
    reports: Reports, shard_of: dict[str, int], shard_count: int
) -> list[Reports]:
    """Split reports along the request→shard assignment.

    * op logs must split contiguously (entries' shard indexes
      non-decreasing), otherwise :class:`PartitionError`;
    * groups spanning shards are split per shard under the same tag;
    * any report entry naming a request outside ``shard_of`` raises
      :class:`PartitionError` (the unsharded audit will produce the
      reject verdict, if any).
    """
    shards = [Reports() for _ in range(shard_count)]

    for obj_name, log in reports.op_logs.items():
        highest = 0
        for record in log:
            shard = shard_of.get(record.rid)
            if shard is None:
                raise PartitionError(
                    f"log {obj_name} names unknown request {record.rid!r}"
                )
            if shard < highest:
                raise PartitionError(
                    f"log {obj_name} interleaves requests across the cut"
                )
            highest = shard
            shards[shard].op_logs.setdefault(obj_name, []).append(record)

    for tag, rids in reports.groups.items():
        for rid in rids:
            shard = shard_of.get(rid)
            if shard is None:
                raise PartitionError(
                    f"group {tag!r} names unknown request {rid!r}"
                )
            shards[shard].groups.setdefault(tag, []).append(rid)

    for rid, count in reports.op_counts.items():
        shard = shard_of.get(rid)
        if shard is None:
            raise PartitionError(f"op count for unknown request {rid!r}")
        shards[shard].op_counts[rid] = count

    for rid, records in reports.nondet.items():
        shard = shard_of.get(rid)
        if shard is None:
            raise PartitionError(f"nondet report for unknown request {rid!r}")
        shards[shard].nondet[rid] = records

    return shards


def partition_audit_inputs(
    trace: Trace,
    reports: Reports,
    epoch_size: int = 0,
    cuts: Sequence[int] | None = None,
) -> list[Shard]:
    """Split (trace, reports) into independently auditable shards.

    ``cuts`` (event indexes, e.g. the executor's epoch marks) wins over
    ``epoch_size``; invalid cut positions are dropped.  Returns a single
    shard covering everything when no usable cut exists or the reports
    refuse to split (:class:`PartitionError` is caught here — the caller
    always receives a usable shard list).
    """
    if cuts is not None:
        chosen = validate_cuts(trace, cuts)
    else:
        chosen = find_epoch_cuts(trace, epoch_size)
    if not chosen:
        return [_whole_shard(trace, reports)]

    segments = partition_trace(trace, chosen)
    shard_of: dict[str, int] = {}
    for index, segment in enumerate(segments):
        for rid in segment.request_ids():
            shard_of[rid] = index
    try:
        report_parts = partition_reports(reports, shard_of, len(segments))
    except PartitionError:
        return [_whole_shard(trace, reports)]
    return [
        Shard(
            index,
            segment,
            report_parts[index],
            set(segment.request_ids()),
        )
        for index, segment in enumerate(segments)
    ]


def _whole_shard(trace: Trace, reports: Reports) -> Shard:
    return Shard(0, trace, reports, set(trace.request_ids()))


def make_shard_summary(
    index: int, requests: int, events: int, result
) -> dict[str, object]:
    """One ``stats["shards"]`` entry for an audited shard/epoch.

    Every driver that reports per-shard outcomes — the serial chain,
    the concurrent epoch driver, and the incremental session — builds
    its entries here, so the summaries stay bit-for-bit comparable
    across them.  ``result`` is any object with ``accepted`` /
    ``phases`` / ``stats`` (an ``AuditResult``).
    """
    return {
        "shard": index,
        "requests": requests,
        "events": events,
        "accepted": result.accepted,
        "reexec_seconds": result.phases.get("reexec", 0.0),
        "groups": result.stats.get("groups", 0),
    }
