"""The queryable timeline over one recorded bundle.

:class:`Timeline` is the substrate every forensic operation shares.
Building one runs the redo-only prepass
(:func:`repro.core.pipeline.iter_epoch_prepass`) over the bundle's
recorded epochs — the slices ``repro audit`` audits, so both number
epochs alike: trace checks, ProcessOpReports, kv.Build/db.Build, §4.5
migration, **no re-execution** — and keeps each epoch's primed
:class:`~repro.core.pipeline.AuditContext`.  On top of those contexts
it indexes every request:

* which **epoch** contains it;
* its **control-flow group** tags (the executor's grouping report);
* which **chunk** of the deterministic re-exec plan
  (:func:`repro.core.reexec.plan_chunks`, the same plan the full audit
  executes) would replay it;
* its per-object **op-sequence range** in the epoch's operation logs.

The per-epoch versioned stores stay live inside the kept contexts, so
as-of queries (:mod:`repro.forensics.asof`) and lineage resolution
(:mod:`repro.forensics.lineage`) are lookups, not replays.

If the prepass rejects an epoch, the timeline still covers every
epoch before it (plus the rejecting epoch's verdict in
:attr:`Timeline.prepass_rejected`); requests at or past the rejection
are unknown to the index, because nothing after a rejected epoch has a
trustworthy state to be queried against.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from repro.common.errors import AuditReject
from repro.core.config import AuditConfig
from repro.core.pipeline import AuditContext, iter_epoch_prepass
from repro.core.reexec import plan_chunks
from repro.io import BundleReader
from repro.server.app import Application, InitialState
from repro.server.reports import EpochSlice


class UnknownRequest(KeyError):
    """The request id is not in the timeline's index."""


@dataclass
class RequestEntry:
    """One request's place in the timeline."""

    rid: str
    #: Index of the epoch containing the request.
    epoch: int
    #: Control-flow group tags naming the request (usually one).
    groups: tuple[str, ...]
    #: Index into the epoch's deterministic chunk plan (the first chunk
    #: containing the rid); ``None`` when the plan could not be built
    #: or the rid appears in no group.
    chunk: int | None
    #: Object name -> (first, last) 1-based op-log sequence the request
    #: touched in its epoch's logs.
    ops: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: The executor's claimed total op count (report M).
    op_count: int = 0
    #: True when the trace records an aborted (bodyless) response.
    aborted: bool = False

    # Per-object logged-op counts (sequence ranges interleave with other
    # requests' records, so counts are tracked separately).
    _counts: dict[str, int] = field(default_factory=dict)

    @property
    def total_ops(self) -> int:
        """Logged operations across all objects (may differ from the
        *claimed* ``op_count`` on a tampered bundle)."""
        return sum(self._counts.values())


class Timeline:
    """Bundle index: epochs, primed contexts, and per-request entries."""

    def __init__(
        self,
        app: Application,
        config: AuditConfig,
        shards: Sequence[EpochSlice],
        contexts: Sequence[AuditContext],
        prepass_rejected: tuple[int, object, str] | None,
    ):
        self.app = app
        self.config = config
        #: Epoch slices the prepass accepted (index == epoch number).
        self.shards = list(shards)
        self.contexts = list(contexts)
        #: ``(epoch, reason, detail)`` of the first rejecting prepass,
        #: or ``None`` when the whole chain primed cleanly.
        self.prepass_rejected = prepass_rejected
        self.entries: dict[str, RequestEntry] = {}
        #: epoch -> chunk plan (or None with the AuditReject stored in
        #: plan_errors when planning failed, e.g. a group naming an
        #: unknown rid — which only a full audit pass would surface).
        self.chunk_plans: dict[int, list[list[str]] | None] = {}
        self.plan_errors: dict[int, AuditReject] = {}
        # Lazy caches.
        self._records_by_rid: dict[int, dict[str, list]] = {}
        self._resp_order: dict[int, dict[str, int]] = {}
        self._cutoffs: dict[tuple[int, str], tuple[list[int], list[int]]]
        self._cutoffs = {}
        for epoch, shard in enumerate(self.shards):
            self._index_epoch(epoch, shard)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_epochs(
        cls,
        app: Application,
        epochs: Iterable[EpochSlice],
        initial_state: InitialState,
        config: AuditConfig | None = None,
    ) -> Timeline:
        """Build a timeline from epoch slices: ``execution.epochs()``
        in memory, a reader's ``epochs()`` for a bundle."""
        config = config or AuditConfig()
        accepted: list[EpochSlice] = []
        contexts: list[AuditContext] = []
        rejected = None
        for epoch, actx in iter_epoch_prepass(app, epochs, initial_state,
                                              config):
            if not actx.result.accepted:
                rejected = (len(accepted), actx.result.reason,
                            actx.result.detail)
                break
            accepted.append(epoch)
            contexts.append(actx)
        return cls(app, config, accepted, contexts, rejected)

    @classmethod
    def from_bundle(
        cls,
        path: str,
        app: Application,
        config: AuditConfig | None = None,
    ) -> Timeline:
        """Build a timeline from a saved bundle, over the epochs
        ``repro audit`` reads from it."""
        with BundleReader.open(path) as reader:
            return cls.from_epochs(app, reader.epochs(),
                                   reader.initial_state, config)

    # -- index construction ------------------------------------------------

    def _index_epoch(self, epoch: int, shard: EpochSlice) -> None:
        trace = shard.trace
        reports = shard.reports
        responses = trace.responses()
        for rid in trace.request_ids():
            response = responses.get(rid)
            self.entries[rid] = RequestEntry(
                rid=rid,
                epoch=epoch,
                groups=(),
                chunk=None,
                op_count=reports.op_counts.get(rid, 0),
                aborted=(response is not None
                         and response.abort_info is not None),
            )
        tags: dict[str, list[str]] = {}
        for tag, rids in reports.groups.items():
            for rid in rids:
                tags.setdefault(rid, []).append(tag)
        for rid, rid_tags in tags.items():
            entry = self.entries.get(rid)
            if entry is not None and entry.epoch == epoch:
                entry.groups = tuple(sorted(rid_tags))
        for obj, log in reports.op_logs.items():
            for index, record in enumerate(log):
                entry = self.entries.get(record.rid)
                if entry is None or entry.epoch != epoch:
                    continue
                seq = index + 1
                lo, hi = entry.ops.get(obj, (seq, seq))
                entry.ops[obj] = (min(lo, seq), max(hi, seq))
                entry._counts[obj] = entry._counts.get(obj, 0) + 1
        try:
            plan = plan_chunks(
                reports, trace.requests(),
                max_group_size=self.config.max_group_size,
                app=self.app,
                plan_hints=self.config.plan_hints,
                strict=self.config.strict,
            )
        except AuditReject as reject:
            self.chunk_plans[epoch] = None
            self.plan_errors[epoch] = reject
            return
        self.chunk_plans[epoch] = plan
        for chunk_index, chunk in enumerate(plan):
            for rid in chunk:
                entry = self.entries.get(rid)
                if (entry is not None and entry.epoch == epoch
                        and entry.chunk is None):
                    entry.chunk = chunk_index

    # -- lookups -----------------------------------------------------------

    @property
    def epoch_count(self) -> int:
        return len(self.shards)

    def entry(self, rid: str) -> RequestEntry:
        entry = self.entries.get(rid)
        if entry is None:
            hint = ""
            if self.prepass_rejected is not None:
                epoch, reason, detail = self.prepass_rejected
                hint = (f" (timeline truncated: epoch {epoch} prepass "
                        f"rejected: {getattr(reason, 'value', reason)})")
            raise UnknownRequest(f"unknown request id {rid!r}{hint}")
        return entry

    def context(self, epoch: int) -> AuditContext:
        """The epoch's primed audit context (stores built, state
        chained from every earlier epoch)."""
        return self.contexts[epoch]

    def shard(self, epoch: int) -> EpochSlice:
        return self.shards[epoch]

    def chunk_plan(self, epoch: int) -> list[list[str]]:
        plan = self.chunk_plans.get(epoch)
        if plan is None:
            raise self.plan_errors[epoch]
        return plan

    def request_records(self, epoch: int, rid: str):
        """``(obj, seq, OpRecord)`` triples of one request's logged
        operations in its epoch, in per-object log order."""
        by_rid = self._records_by_rid.get(epoch)
        if by_rid is None:
            by_rid = {}
            for obj, log in self.shards[epoch].reports.op_logs.items():
                for index, record in enumerate(log):
                    by_rid.setdefault(record.rid, []).append(
                        (obj, index + 1, record)
                    )
            self._records_by_rid[epoch] = by_rid
        return by_rid.get(rid, [])

    def response_order(self, epoch: int) -> dict[str, int]:
        """rid -> ordinal of its RESPONSE event within the epoch trace
        (the observation order as-of-request cutoffs are defined by)."""
        order = self._resp_order.get(epoch)
        if order is None:
            order = {}
            for event in self.shards[epoch].trace:
                if event.is_response:
                    order[event.rid] = len(order)
            self._resp_order[epoch] = order
        return order

    def cutoff_seq(self, epoch: int, rid: str, obj: str) -> int:
        """Highest log sequence of ``obj`` written by any request whose
        response was observed no later than ``rid``'s.

        This is the "state as of request R" boundary: R's own
        operations are included, and so are those of every request that
        completed before R did; requests still in flight when R's
        response left the server are excluded.  Returns 0 when no such
        record exists.
        """
        key = (epoch, obj)
        index = self._cutoffs.get(key)
        if index is None:
            order = self.response_order(epoch)
            log = self.shards[epoch].reports.op_logs.get(obj, [])
            unordered = len(order) + 1  # logs by rids with no response
            pairs = sorted(
                (order.get(record.rid, unordered), position + 1)
                for position, record in enumerate(log)
            )
            orders = [pair[0] for pair in pairs]
            prefix_max: list[int] = []
            best = 0
            for _, seq in pairs:
                best = max(best, seq)
                prefix_max.append(best)
            index = (orders, prefix_max)
            self._cutoffs[key] = index
        orders, prefix_max = index
        target = self.response_order(epoch).get(rid)
        if target is None:
            return 0
        pos = bisect.bisect_right(orders, target)
        return prefix_max[pos - 1] if pos else 0
