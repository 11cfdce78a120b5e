"""The auditing service API: :class:`Auditor` and :class:`AuditSession`.

The paper's deployment is *continuous* (§4.1): the server cuts its
execution into epochs at quiescent points, the verifier audits epoch N
while the server records epoch N+1, and only migrated state crosses
epoch boundaries.  This module is that verifier:

* :class:`Auditor` binds the trusted program and a validated
  :class:`~repro.core.config.AuditConfig`.  :meth:`Auditor.audit` is one
  pipeline pass over one epoch (``ssco_audit`` is its kwargs
  shorthand); :meth:`Auditor.session` opens an **incremental epoch
  session** and :meth:`Auditor.audit_epochs` drives one over any
  iterable of epoch slices.  These are the only audit entry points.
* :class:`AuditSession` is the one epoch driver.  It consumes one epoch
  at a time: :meth:`~AuditSession.feed_epoch` audits a (trace slice,
  reports slice) pair against the state migrated out of the previous
  epoch and returns a per-epoch :class:`EpochResult`;
  :meth:`~AuditSession.close` returns the merged
  :class:`~repro.core.pipeline.AuditResult`.
* The session takes its epochs as given.  Where an epoch ends is the
  recorder's decision (``Executor(epoch_size=...)`` drains and marks
  it); the slices come from ``ExecutionResult.epochs()`` in memory,
  ``BundleReader.epochs()`` from a file and
  ``RemoteBundleReader.epochs()`` from a socket, and nothing on this
  side re-cuts them.
* With a **pool** — the one the session is handed (``session(state,
  pool=...)``: anything with ``width``, ``run(payload: bytes)``,
  ``serial_fallbacks`` and ``close()``), or the
  :class:`~repro.core.epochpool.EpochPool` it opens for itself when
  ``config.epoch_workers > 1`` — the chain is unrolled: at feed time
  only the cheap, serial part runs — the cross-epoch checks and the
  redo-only **state precompute**
  (:func:`~repro.core.pipeline.state_precompute_pipeline`), which
  migrates the next epoch's initial state without re-executing anything
  — and the epoch's full audit is encoded, there, as one work unit and
  handed to the pool as bytes.  Several epochs audit concurrently;
  results are merged strictly in feed order, so the per-epoch results
  and the merged outcome are bit-identical to the serial session
  (epochs after the first rejection come back *skipped* and their
  speculative audits are discarded).

Soundness across epochs: the session chains each epoch's §4.5 migrated
state into the next (acceptance is inductive, as for contiguous audit
epochs), and threads the ``uniqid()``-uniqueness plausibility check's
state across feeds so the §4.6 whole-stream check is preserved.  After a
rejected epoch the chain is broken and every further feed returns a
*skipped* result carrying the original verdict.  In concurrent mode the
prepass state an epoch audits against is speculative: it is derived from
the earlier epochs' logs by the same verifier code the full audit runs,
and it is only *certified* at the in-order merge
(:meth:`AuditSession._merge_next_entry`), which reaches epoch *k*'s
outcome only after every earlier epoch's full audit accepted those logs.

The streaming front end lives in :mod:`repro.io`:
``BundleReader.epochs(follow=True)`` tails a live JSONL bundle and
yields exactly the slices :meth:`~AuditSession.feed_epoch` consumes.
"""

from __future__ import annotations

import threading
import time as _time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.common.errors import RejectReason
from repro.core.config import AuditConfig
from repro.core.epochpool import EpochPool
from repro.core.epochwork import (
    UNPICKLABLE,
    encode_work_unit,
    epoch_worker_config,
    run_epoch_inline,
)
from repro.core.pipeline import (
    AuditContext,
    AuditPipeline,
    AuditResult,
    default_pipeline,
    prepass_epoch,
)
from repro.server.app import Application, InitialState
from repro.server.reports import Reports
from repro.trace.trace import Trace


@dataclass
class EpochResult:
    """Outcome of auditing one epoch inside a session."""

    #: Zero-based feed position.
    index: int
    accepted: bool
    reason: RejectReason | None = None
    detail: str = ""
    #: Requests / events in this epoch's slice.
    requests: int = 0
    events: int = 0
    #: Phase timers and stats of this epoch's pipeline pass (same keys
    #: as a one-shot :class:`~repro.core.pipeline.AuditResult`).
    phases: dict[str, float] = field(default_factory=dict)
    stats: dict[str, object] = field(default_factory=dict)
    #: rid -> produced body for this epoch.
    produced: dict[str, str] = field(default_factory=dict)
    #: True when the epoch was never audited because an earlier epoch
    #: already rejected (the chain's state is untrusted from there on).
    skipped: bool = False

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.accepted


class PendingEpoch:
    """Handle for a submitted epoch; :meth:`result` blocks.

    The handle resolves through the session's in-order merge, so the
    result a caller sees is always the *normalized* one — e.g.
    *skipped* when an earlier epoch's concurrent audit rejected.  On a
    serial session it is resolved from the start.
    """

    def __init__(self, index: int, resolver, done_fn):
        self.index = index
        self._resolver = resolver
        self._done_fn = done_fn

    def result(self, timeout: float | None = None) -> EpochResult:
        return self._resolver(timeout)

    def done(self) -> bool:
        return self._done_fn()


class AuditSession:
    """One continuous audit: epochs in, per-epoch verdicts out.

    Sessions are created by :meth:`Auditor.session` and consumed
    through :meth:`feed_epoch` (blocks for the epoch's result) or
    :meth:`submit_epoch` (returns a :class:`PendingEpoch`).  The
    session owns the chain state: the initial state it was opened with,
    then each accepted epoch's migrated state.  Use as a context manager
    to guarantee :meth:`close`.
    """

    def __init__(self, auditor: Auditor, initial_state: InitialState,
                 pool=None):
        self._auditor = auditor
        self._state = initial_state
        config = auditor.config
        #: What every epoch runs under: the chain always needs the
        #: next state.
        self._epoch_config = config.replace(migrate=True)
        # Concurrent epoch mode needs the stock phase structure (the
        # prepass stands in for specific phases, and a worker runs the
        # stock pipeline); custom pipelines keep the serial chain.
        if auditor.pipeline is not None and pool is not None:
            raise ValueError(
                "a custom pipeline audits its epochs serially; it "
                "cannot be handed a pool"
            )
        #: A pool the session opened is the session's to close; one it
        #: was handed is its caller's.
        self._owns_pool = (pool is None and auditor.pipeline is None
                           and config.epoch_workers > 1)
        if self._owns_pool:
            # One persistent process pool shared by every epoch of
            # this session.
            pool = EpochPool(config.epoch_workers)
        self._pool = pool
        self._threads: ThreadPoolExecutor | None = None
        if pool is not None:
            # Concurrent epoch mode: the cheap redo-only prepass chains
            # state serially at submit time and encodes each epoch's
            # full audit as a work unit; these threads only hand the
            # bytes to the pool and wait, so results can be merged back
            # strictly in feed order.
            self._threads = ThreadPoolExecutor(
                max_workers=pool.width,
                thread_name_prefix="audit-epoch",
            )
            self._worker_config = epoch_worker_config(self._epoch_config)
            #: Backpressure: submit_epoch blocks once this many primed
            #: epochs are in flight — deep enough to keep every worker
            #: busy while the next epochs prime, shallow enough that a
            #: stream cannot pin unbounded speculative work units.
            self._prepass_depth = 2 * pool.width
            self._precompute_seconds = 0.0
            #: Feed-order merge queue: ("skipped"|"crashed"|"rejected"|
            #: "audit", payload, requests, events) per fed epoch.
            self._entries: list[tuple] = []
            self._merged_upto = 0
            #: Speculative chain state (redo-only); ``_state`` remains
            #: the *certified* chain, advanced only at merge time.
            self._prepass_state = initial_state
            self._prepass_failed = False
            self._merge_lock = threading.RLock()
        self._seen_uniq: set = set()
        self._epochs: list[EpochResult] = []
        self._summaries: list[dict[str, object]] = []
        self._merged = AuditResult(accepted=False)
        self._audit_seconds = 0.0
        self._failure: EpochResult | None = None
        self._fed = 0
        self._closed = False
        self._final: AuditResult | None = None
        #: Latched first crash (a non-AuditReject exception from an
        #: epoch's audit).  Every later drain/close re-raises it — a
        #: session that crashed can never fall through to ACCEPTED.
        self._crash: BaseException | None = None

    # -- feeding ----------------------------------------------------------

    def feed_epoch(self, trace: Trace, reports: Reports) -> EpochResult:
        """Audit the next epoch of the stream; returns its result.

        The slice must be self-contained: a balanced trace segment cut
        at a quiescent point, with the reports restricted to its
        requests (exactly what ``BundleReader.epochs()`` or
        ``ExecutionResult.epochs()`` yield).
        """
        return self.submit_epoch(trace, reports).result()

    def submit_epoch(self, trace: Trace, reports: Reports) -> PendingEpoch:
        """Feed the next epoch and return its handle: serial sessions
        audit inline (the handle is already resolved), sessions with a
        pool prepass inline and dispatch to it, so the caller is free
        to ingest the next epoch meanwhile."""
        if self._closed:
            raise RuntimeError("audit session is closed")
        index = self._fed
        self._fed += 1
        if self._pool is not None:
            return self._submit_epoch_concurrent(index, trace, reports)
        try:
            epoch = self._audit_epoch(index, trace, reports)
        except Exception as crash:
            self._crash = crash  # close() must not report over it
            raise
        return PendingEpoch(index, lambda timeout=None: epoch, lambda: True)

    # -- the concurrent (epoch_workers) feed path -------------------------

    def _submit_epoch_concurrent(self, index: int, trace: Trace,
                                 reports: Reports) -> PendingEpoch:
        """Feed-order half of the concurrent mode.

        The parts that must run serially happen here, in the caller's
        thread: the cross-epoch checks (balance, the §4.6 uniqid
        seen-set) and the redo-only prepass that migrates the next
        epoch's initial state.  The heavy remainder goes to the epoch
        pool.  EpochResults are constructed at merge time, strictly in
        feed order, so verdicts and stats match the serial session even
        when a rejection is discovered after later epochs were fed.

        Backpressure: before priming another epoch, the speculative
        prepass is held back until fewer than ``2 * pool.width``
        primed epochs are in flight — a follow/connect session feeding
        faster than the pool audits blocks here instead of accumulating
        unbounded speculative state.
        """
        requests = len(trace.request_ids())
        events = len(trace)
        while True:
            with self._merge_lock:
                if (self._prepass_failed or self._failure is not None
                        or len(self._entries) - self._merged_upto
                        < self._prepass_depth):
                    break
                oldest = self._merged_upto
            # Settle (and release) the oldest in-flight epoch before
            # priming more; the wait happens outside the merge lock.
            self._resolve(oldest)
        with self._merge_lock:
            if self._prepass_failed or self._failure is not None:
                self._entries.append(("skipped", None, requests, events))
            else:
                try:
                    entry = self._prepass_epoch(trace, reports, requests,
                                                events)
                except BaseException as crash:
                    # Keep the merge queue aligned with epoch indexes: a
                    # crashed prepass still occupies its slot, and the
                    # crash resurfaces at merge/close time too (a
                    # session must never report ACCEPTED over an epoch
                    # whose audit crashed).
                    self._prepass_failed = True
                    self._entries.append(("crashed", crash, requests,
                                          events))
                    raise
                self._entries.append(entry)
        return PendingEpoch(
            index,
            resolver=lambda timeout=None: self._resolve(index, timeout),
            done_fn=lambda: self._entry_done(index),
        )

    def _prepass_epoch(self, trace: Trace, reports: Reports,
                       requests: int, events: int) -> tuple:
        """One epoch's serial half; returns its merge-queue entry."""
        epoch_state = self._prepass_state
        prepass_start = _time.perf_counter()
        pre = prepass_epoch(self._auditor.app, trace, reports, epoch_state,
                            self._epoch_config, self._seen_uniq).result
        self._precompute_seconds += _time.perf_counter() - prepass_start
        if not pre.accepted:
            # The full audit would reject at the same check with the
            # same reason — the prepass *is* that prefix of it — so its
            # result already carries the epoch's verdict and stats.
            self._prepass_failed = True
            return ("rejected", pre, requests, events)
        self._prepass_state = pre.next_initial
        # Whole-epoch work unit, encoded here — by the one thread that
        # builds and reads these objects — so the pool's threads only
        # ever hold bytes.  The primed context's stores are released
        # (the worker rebuilds its own from the pickled slices); only
        # the migrated chain state extracted above is kept.
        unit = (self._auditor.app, trace, reports, epoch_state,
                self._worker_config)
        try:
            payload = encode_work_unit(*unit)
        except UNPICKLABLE:
            # Nothing a worker could be sent: audited here, now.
            self._pool.serial_fallbacks += 1
            future: Future = Future()
            future.set_result(run_epoch_inline(*unit))
        else:
            future = self._threads.submit(self._pool.run, payload)
        return ("audit", (future, pre.next_initial), requests, events)

    def _resolve(self, index: int,
                 timeout: float | None = None) -> EpochResult:
        """Merge entries in feed order up to ``index``; returns its
        normalized :class:`EpochResult`.

        Pool futures are waited on *outside* the merge lock, so feeding
        and ``done()`` polls stay responsive while an epoch audits; the
        merges themselves happen under the lock.  ``timeout`` is an
        overall deadline for the whole call, not per predecessor epoch.
        """
        deadline = (None if timeout is None
                    else _time.monotonic() + timeout)
        while True:
            with self._merge_lock:
                if index < self._merged_upto:
                    return self._epochs[index]
                kind, payload = self._entries[self._merged_upto][:2]
                if (self._failure is not None or kind != "audit"
                        or payload[0].done()):
                    self._merge_next_entry()
                    continue
                future = payload[0]
            remaining = (None if deadline is None
                         else deadline - _time.monotonic())
            try:
                # Lock-free wait; raises TimeoutError past the deadline.
                # The merge happens under the lock on the next loop turn
                # (re-checked — another thread may have merged it first).
                future.exception(remaining)
            except CancelledError:
                # An earlier epoch rejected and cancelled this one; the
                # next turn takes the skipped path.
                pass

    def _entry_done(self, index: int) -> bool:
        """True only when ``result()`` would not block: every entry up
        to ``index`` must be mergeable without waiting (after a
        recorded failure, merging never waits — later audits are
        cancelled, not joined)."""
        with self._merge_lock:
            if index < self._merged_upto:
                return True
            if self._failure is not None:
                return True
            for position in range(self._merged_upto, index + 1):
                kind, payload = self._entries[position][:2]
                if kind == "audit" and not payload[0].done():
                    return False
            return True

    def _merge_next_entry(self) -> None:
        """Merge the next queued epoch (lock held by the caller; any
        pool future involved is already done)."""
        index = self._merged_upto
        kind, payload, requests, events = self._entries[index]
        if self._failure is not None:
            # Everything after the first rejection mirrors the serial
            # session's *skipped* results; a speculative audit that is
            # already running is discarded unseen.
            if kind == "audit":
                future, _ = payload
                future.cancel()
                future.add_done_callback(
                    lambda f: f.cancelled() or f.exception()
                )
            self._epochs.append(EpochResult(
                index=index,
                accepted=False,
                reason=self._failure.reason,
                detail=f"skipped: epoch {self._failure.index} already "
                       f"rejected ({self._failure.detail})",
                requests=requests,
                events=events,
                skipped=True,
            ))
        elif kind == "crashed":
            # Re-raise the feed-time crash (see _submit_epoch_concurrent)
            # so close()/_drain can never report ACCEPTED past it.
            raise payload
        else:  # "rejected" (a prepass verdict) or "audit" (pool future)
            if kind == "audit":
                future, next_state = payload
                result = future.result()
            else:
                result, next_state = payload, None
            epoch = EpochResult(
                index=index,
                accepted=result.accepted,
                reason=result.reason,
                detail=result.detail,
                requests=requests,
                events=events,
                phases=result.phases,
                stats=result.stats,
                produced=result.produced,
            )
            self._epochs.append(epoch)
            _merge_shard_result(self._merged, result)
            self._summaries.append(_epoch_summary(epoch))
            self._audit_seconds += result.phases.get("total", 0.0)
            if not epoch.accepted:
                self._failure = epoch
                self._merged.produced = {}
            else:
                # Certify the prepass state: this epoch's full audit
                # validated the very logs the prepass migrated.
                self._state = next_state
        # Release the merged entry's payload (future + migrated-state
        # snapshot): a long follow session must hold one chain state,
        # not one per epoch.  ("crashed" entries never reach this line
        # — they re-raise above and keep their exception.)
        self._entries[index] = (kind, None, requests, events)
        self._merged_upto += 1

    # -- the per-epoch audit (single-threaded by construction) ------------

    def _audit_epoch(self, index: int, trace: Trace,
                     reports: Reports) -> EpochResult:
        started = _time.perf_counter()
        try:
            return self._audit_epoch_inner(index, trace, reports)
        finally:
            # Time actually spent auditing — unlike wall-clock since
            # session start, this excludes waiting for epochs to arrive
            # (a follow session is mostly waiting).
            self._audit_seconds += _time.perf_counter() - started

    def _audit_epoch_inner(self, index: int, trace: Trace,
                           reports: Reports) -> EpochResult:
        if self._failure is not None:
            epoch = EpochResult(
                index=index,
                accepted=False,
                reason=self._failure.reason,
                detail=f"skipped: epoch {self._failure.index} already "
                       f"rejected ({self._failure.detail})",
                requests=len(trace.request_ids()),
                events=len(trace),
                skipped=True,
            )
            self._epochs.append(epoch)
            return epoch

        # The pipeline's trace check gets the whole stream's uniqid()
        # values: only that shared set catches one duplicated *across*
        # epochs.
        actx = AuditContext(self._auditor.app, trace, reports,
                            self._state, self._epoch_config,
                            self._seen_uniq)
        pipeline = self._auditor.pipeline or default_pipeline()
        result = pipeline.run(actx)
        epoch = EpochResult(
            index=index,
            accepted=result.accepted,
            reason=result.reason,
            detail=result.detail,
            requests=len(trace.request_ids()),
            events=len(trace),
            phases=result.phases,
            stats=result.stats,
            produced=result.produced,
        )
        self._record(epoch, result)
        return epoch

    def _record(self, epoch: EpochResult, result: AuditResult) -> None:
        self._epochs.append(epoch)
        _merge_shard_result(self._merged, result)
        self._summaries.append(_epoch_summary(epoch))
        if not epoch.accepted:
            self._failure = epoch
            self._merged.produced = {}
            return
        if result.next_initial is None:
            raise ValueError(
                "audit session needs a MigratePhase in the pipeline "
                "to chain epoch state"
            )
        self._state = result.next_initial

    # -- lifecycle --------------------------------------------------------

    @property
    def current_state(self) -> InitialState:
        """The state the *next* epoch will be audited against (the last
        accepted epoch's migrated state)."""
        self._drain()
        return self._state

    @property
    def epochs(self) -> list[EpochResult]:
        """Per-epoch results so far (feed order)."""
        self._drain()
        return list(self._epochs)

    @property
    def rejected(self) -> bool:
        self._drain()
        return self._failure is not None

    def rejection_settled(self) -> bool:
        """True once a rejection has been merged.  Never waits: it
        merges the epochs whose audits have already finished and looks.
        A feeder that stops on it reads no epoch it has no use for."""
        if self._pool is not None:
            while (self._failure is None
                   and self._merged_upto < len(self._entries)
                   and self._entry_done(self._merged_upto)):
                self._resolve(self._merged_upto)
        return self._failure is not None

    def _drain(self) -> None:
        """Wait for queued epochs to finish, re-raising any unexpected
        exception an epoch's audit hit (rejections are results, not
        exceptions — only genuine crashes surface here).  A crash is
        latched: every later drain/close re-raises it, so a crashed
        session can never fall through to an ACCEPTED verdict.  In
        ``epoch_workers`` mode this performs the in-order merge of
        every fed epoch."""
        if self._crash is not None:
            raise self._crash
        try:
            self._drain_inner()
        except Exception as crash:
            self._crash = crash
            raise
        # KeyboardInterrupt/SystemExit raised in the *waiting* thread
        # propagate un-latched: no epoch audit crashed, and a later
        # drain can still deliver the real verdict.

    def _drain_inner(self) -> None:
        if self._closed or self._pool is None:
            return
        while True:
            with self._merge_lock:
                total = len(self._entries)
                if self._merged_upto >= total:
                    return
            self._resolve(total - 1)

    def close(self) -> AuditResult:
        """Finish the session and return the merged result.

        The merged result has the shape of one pipeline pass over the
        concatenated stream: summed phase timers and stats, per-epoch
        summaries under ``stats["shards"]`` (``stats["shard_count"]``
        of them: the epochs *audited*, not those fed after a
        rejection), the union of produced bodies, and — when the config
        asks for ``migrate`` — the final chained state in
        ``next_initial``.  ``phases["total"]`` is the
        summed per-epoch audit time, *not* wall-clock since the session
        opened (a follow session spends most of its life waiting for
        epochs).  Idempotent.
        """
        if self._final is not None:
            return self._final
        try:
            self._drain()
        finally:
            if self._threads is not None:
                self._threads.shutdown(wait=True)
            if self._owns_pool:
                self._pool.close()
            self._closed = True
        merged = self._merged
        if self._pool is not None:
            # The workers re-time their own phases, so the parent-side
            # prepass is extra work the per-epoch results do not carry.
            merged.phases["state_precompute"] = self._precompute_seconds
        merged.accepted = self._failure is None
        if self._failure is not None:
            merged.reason = self._failure.reason
            merged.detail = self._failure.detail
        elif self._auditor.config.migrate:
            merged.next_initial = self._state
        merged.stats["shard_count"] = len(self._summaries)
        merged.stats["shards"] = self._summaries
        merged.phases["total"] = self._audit_seconds
        self._final = merged
        return merged

    #: ``result()`` is the reading most callers expect at the end.
    result = close

    def __enter__(self) -> AuditSession:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class Auditor:
    """A long-lived audit service for one application.

    ``Auditor(app, config)`` binds the trusted program to a validated
    :class:`~repro.core.config.AuditConfig` (keyword knobs build one:
    ``Auditor(app, workers=4, backend="interp")``).

    * :meth:`audit` — one pipeline pass over one epoch (``ssco_audit``
      is the kwargs shorthand);
    * :meth:`session` — incremental epoch-by-epoch auditing;
    * :meth:`audit_epochs` — drive a session over any iterable of epoch
      slices (``execution.epochs()``,
      ``BundleReader.epochs(follow=True)``, ...).

    A custom :class:`~repro.core.pipeline.AuditPipeline` may replace the
    stock phase sequence; sessions require it to keep a ``MigratePhase``
    (state must chain).
    """

    def __init__(
        self,
        app: Application,
        config: AuditConfig | None = None,
        pipeline: AuditPipeline | None = None,
        **knobs,
    ):
        if config is not None and knobs:
            raise ValueError(
                "pass either a config object or keyword knobs, not both"
            )
        self.app = app
        self.config = config or AuditConfig(**knobs)
        self.pipeline = pipeline

    def audit(
        self,
        trace: Trace,
        reports: Reports,
        initial_state: InitialState,
    ) -> AuditResult:
        """Audit one epoch: a single pass of the (stock or
        caller-supplied) pipeline over the inputs, whole."""
        actx = AuditContext(self.app, trace, reports, initial_state,
                            self.config)
        return (self.pipeline or default_pipeline()).run(actx)

    def session(self, initial_state: InitialState,
                pool=None) -> AuditSession:
        """Open an incremental epoch session starting from
        ``initial_state`` (the verifier's trusted state at stream start,
        §4.1).

        ``pool`` is where the epochs' full audits run, concurrently:
        ``pool.run(payload: bytes)`` blocks for one work unit's
        :class:`~repro.core.pipeline.AuditResult`, ``pool.width`` is
        how many it runs at once, ``pool.serial_fallbacks`` counts the
        units that ran in this process instead.  It stays the caller's
        to ``close()``.  Without one the session opens — and closes —
        an :class:`~repro.core.epochpool.EpochPool` of
        ``config.epoch_workers`` processes when that is more than one,
        and is the serial chain otherwise."""
        return AuditSession(self, initial_state, pool)

    def audit_epochs(
        self,
        epochs: Iterable,
        initial_state: InitialState,
        pool=None,
    ) -> AuditResult:
        """Feed the epoch slices of ``epochs`` through a session
        (``pool``: see :meth:`session`).

        Items may be ``(trace, reports)`` pairs or objects with
        ``.trace`` / ``.reports`` attributes
        (:class:`~repro.server.reports.EpochSlice`).  Once a rejection
        has settled the iterable is left where it is: nothing after a
        rejected epoch is audited, so nothing after it is read.
        With a pool the epochs audit concurrently (only the redo-only
        state prepass runs between submissions) and are merged back in
        feed order; the session itself bounds in-flight primed epochs
        to ``2 * pool.width``, so a long stream never holds more than a
        bounded number of speculative work units in memory.  Returns
        the merged result.
        """
        with self.session(initial_state, pool) as session:
            for item in epochs:
                if isinstance(item, tuple):
                    trace, reports = item
                else:
                    trace, reports = item.trace, item.reports
                # Enqueues on sessions with a pool (the iterable keeps
                # ingesting while earlier epochs audit, subject to the
                # session's prepass backpressure); inline on serial
                # ones.
                session.submit_epoch(trace, reports)
                if session.rejection_settled():
                    break
            return session.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Auditor app={self.app.name!r} "
                f"{self.config.describe()}>")


#: Numeric stats that sum across epochs; list-valued ones concatenate.
_SUMMED_STATS = (
    "graph_nodes", "graph_edges", "db_queries_issued", "dedup_hits",
    "dedup_misses", "versioned_db_bytes", "versioned_db_versions",
    "redo_statements", "groups", "grouped_requests", "fallback_requests",
    "divergences", "steps", "multi_steps", "multi_slots", "multi_classes",
)


def _epoch_summary(epoch: EpochResult) -> dict[str, object]:
    """One ``stats["shards"]`` entry.  Every epoch that was audited has
    one — an epoch a cross-epoch check rejected too, with no groups and
    no re-execution time — so the first entry that is not ``accepted``
    names the rejecting epoch; skipped epochs have none."""
    return {
        "shard": epoch.index,
        "requests": epoch.requests,
        "events": epoch.events,
        "accepted": epoch.accepted,
        "reexec_seconds": epoch.phases.get("reexec", 0.0),
        "groups": epoch.stats.get("groups", 0),
    }


def _merge_shard_result(merged: AuditResult, result: AuditResult) -> None:
    for key, seconds in result.phases.items():
        if key != "total":
            merged.phases[key] = merged.phases.get(key, 0.0) + seconds
    for key in _SUMMED_STATS:
        if key in result.stats:
            merged.stats[key] = (
                merged.stats.get(key, 0) + result.stats[key]
            )
    if "group_alphas" in result.stats:
        merged.stats.setdefault("group_alphas", []).extend(
            result.stats["group_alphas"]
        )
    merged.produced.update(result.produced)
