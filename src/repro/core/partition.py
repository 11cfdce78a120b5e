"""The recorder-side epoch cut (§4.1, §4.7).

An epoch is something the *server* makes: it drains to a quiescent
point and hands the verifier the period before it, and the verifier
audits the periods it is handed, carrying only migrated state between
them (§4.5).  The executor records where it drained
(``ExecutionResult.epoch_marks``); this module turns those marks into
:class:`~repro.server.reports.EpochSlice` objects —
:func:`partition_audit_inputs`, called by
:meth:`ExecutionResult.epochs() <repro.server.executor.ExecutionResult.epochs>`
and :func:`repro.io.save_audit_bundle_segmented` — and nothing on the
audit side calls it: an auditor never chooses an epoch boundary.

A cut position is sound only at a *quiescent point* of the trace: an
event index where every request that has arrived has also departed
(responded).  At such a point the time-precedence relation ``<Tr``
totally orders the two sides — every request before the cut precedes
every request after it — so

* each side's trace is balanced on its own;
* each object log splits into a contiguous prefix/suffix (an honest
  executor performs a request's operations strictly inside its
  arrival/departure window);
* the precedence graph of the whole trace is the union of the per-epoch
  graphs plus forward-only cross edges, which cannot create new cycles.

State still flows across the cut, so epochs are chained: epoch *k*'s
initial state is epoch *k-1*'s post-audit migrated state (§4.5).  The
chain makes acceptance inductive — epoch *k*'s initial state is only
trusted because epoch *k-1*'s logs were fully validated.

Cutting **never rejects**: a mark that is not a quiescent point is
dropped, and when the reports do not split cleanly (a log interleaves
requests across a cut, a report names an unknown request, ...)
:class:`PartitionError` is caught and the execution stays one epoch.
An executor that never drains (``epoch_size=0``) has no marks and
yields one epoch.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.server.reports import EpochSlice, Reports
from repro.trace.trace import Trace


class PartitionError(ValueError):
    """The reports cannot be split at the requested cuts.

    Never a verdict: the execution stays one epoch.
    """


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
    trace: Trace, reports: Reports, cuts: Sequence[int] = ()
) -> list[EpochSlice]:
    """Split (trace, reports) at ``cuts`` — event indexes, the
    executor's epoch marks — into independently auditable slices.

    Cuts that are not quiescent points are dropped.  Returns a single
    slice covering everything when no usable cut exists or the reports
    refuse to split (:class:`PartitionError` is caught here — the caller
    always receives a usable list).
    """
    whole = [EpochSlice(0, trace, reports)]
    chosen = validate_cuts(trace, cuts)
    if not chosen:
        return whole
    segments = partition_trace(trace, chosen)
    epoch_of = {rid: index for index, segment in enumerate(segments)
                for rid in segment.request_ids()}
    try:
        parts = partition_reports(reports, epoch_of, len(segments))
    except PartitionError:
        return whole
    return [EpochSlice(index, segment, parts[index])
            for index, segment in enumerate(segments)]
