"""The auditing service API: :class:`Auditor` and :class:`AuditSession`.

The paper's deployment is *continuous* (§4.1): the server cuts its
execution into epochs at quiescent points, the verifier audits epoch N
while the server records epoch N+1, and only migrated state crosses
epoch boundaries.  This module is that verifier:

* :class:`Auditor` binds the trusted program and a validated
  :class:`~repro.core.config.AuditConfig`.  :meth:`Auditor.audit` is one
  pipeline pass over one epoch (``ssco_audit`` is its kwargs
  shorthand).  :meth:`Auditor.audit_epochs` is **the epoch loop** — the
  only one: it feeds any iterable of epoch slices through a session,
  tells ``on_epoch`` what settled, and owns the end of the stream (a
  settled rejection, or a record that does not decode: a
  ``malformed_bundle`` verdict).  :meth:`Auditor.audit_stream` hands it
  a reader's state record and epochs — what ``repro audit``,
  ``--follow``, ``--connect`` and ``repro fuzz`` call.
  :meth:`Auditor.session` opens a session to feed by hand.
* :class:`AuditSession` is one feed-ordered queue of epochs.  It takes
  them as given — where an epoch ends is the recorder's decision
  (``Executor(epoch_size=...)``), and nothing on this side re-cuts the
  slices ``ExecutionResult.epochs()``, ``BundleReader.epochs()`` or
  ``RemoteBundleReader.epochs()`` yield.  Without a pool an entry is
  resolved as it is fed, by the full pipeline.  With one — handed in
  by the caller (``session(state, pool=...)``: anything with
  ``width``, ``run(payload: bytes)`` and ``serial_fallbacks``, such as
  a :class:`~repro.fleet.FleetCoordinator`) — only the cheap, serial
  part runs at feed time (the cross-epoch checks and the redo-only **state
  precompute**, :func:`~repro.core.pipeline.state_precompute_pipeline`,
  which migrates the next epoch's initial state without re-executing
  anything) and the full audit travels to the pool as bytes.  Either
  way entries are merged strictly in feed order, in one place, so
  per-epoch results and the merged outcome are bit-identical.

Soundness across epochs: the session chains each epoch's §4.5 migrated
state into the next (acceptance is inductive), and threads the
``uniqid()`` plausibility check's state across feeds so the §4.6
whole-stream check is preserved.  After a rejected epoch the chain is
broken: every further epoch comes back *skipped*, carrying the original
verdict, and a speculative audit of it is discarded.  With a pool the
state an epoch audits against is speculative — derived from the earlier
epochs' logs by the same verifier code the full audit runs — and only
*certified* at the in-order merge
(:meth:`AuditSession._merge_next_entry`), which reaches epoch *k* only
after every earlier epoch's full audit accepted those logs.
"""

from __future__ import annotations

import threading
import time as _time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.common.collector import collector_scope
from repro.common.errors import MalformedBundle, RejectReason
from repro.core.config import AuditConfig
from repro.core.epochwork import encode_work_unit, epoch_worker_config
from repro.core.pipeline import (
    AuditContext,
    AuditPipeline,
    AuditResult,
    default_pipeline,
    prepass_epoch,
)
from repro.core.profile import work_ratio
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

    A session is one feed-ordered queue.  Every fed epoch is an entry:
    a future of its :class:`~repro.core.pipeline.AuditResult` and the
    state it migrates.  Without a pool the entry is resolved on the
    spot, by the full pipeline; with one, the redo-only prepass chains
    the state and the full audit is dispatched.  Either way
    :meth:`_merge_next_entry` is where an entry becomes an
    :class:`EpochResult`, strictly in feed order.
    """

    def __init__(self, auditor: Auditor, initial_state: InitialState,
                 pool=None, on_epoch=None):
        self._auditor = auditor
        #: The *certified* chain state, advanced only at merge time.
        self._state = initial_state
        #: The chain state at the feeding end — what the next fed epoch
        #: audits against.  With a pool it runs ahead of ``_state`` on
        #: the prepass's word (speculative until the merge).
        self._fed_state = initial_state
        #: Set once an epoch rejected (or crashed) as it was fed: every
        #: later feed is skipped without being looked at.
        self._feed_broken = False
        self._on_epoch = on_epoch
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
        self._pool = pool
        #: What close() releases: the epoch threads, never the pool,
        #: which stays its caller's.
        self._threads = None
        if pool is None:
            #: Backpressure: submit_epoch first settles the oldest
            #: entries until fewer than this many are unmerged.  Here
            #: every entry is resolved as it is fed, so the session
            #: holds one result and one chain state at a time.
            self._depth = 1
        else:
            # These threads only hand a work unit's bytes to the pool
            # and wait, so results can be merged back in feed order.
            self._threads = ThreadPoolExecutor(
                max_workers=pool.width, thread_name_prefix="audit-epoch")
            self._worker_config = epoch_worker_config(self._epoch_config)
            # Deep enough to keep every worker busy while the next
            # epochs prime, shallow enough that a stream cannot pin
            # unbounded speculative work units.
            self._depth = 2 * pool.width
        #: The queue: (future of the epoch's AuditResult — ``None`` for
        #: an epoch skipped at feed time —, the state it migrates,
        #: requests, events) per fed epoch; merged entries keep only
        #: the counts.
        self._entries: list[tuple] = []
        self._merged_upto = 0
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
        """Feed the next epoch and return its handle.

        The parts that must run serially happen here, in the caller's
        thread: without a pool that is the epoch's whole audit (the
        handle is already resolved); with one, the cross-epoch checks
        (balance, the §4.6 uniqid seen-set) and the redo-only prepass
        that migrates the next epoch's initial state, after which the
        caller is free to ingest the next epoch while the pool audits.
        EpochResults are constructed at merge time, strictly in feed
        order, so verdicts and stats are the same either way, even when
        a rejection is discovered after later epochs were fed.

        Backpressure: before starting another epoch, the oldest entries
        are settled until fewer than ``2 * pool.width`` are in flight —
        a follow/connect session feeding faster than the pool audits
        blocks here instead of accumulating unbounded speculative state.
        """
        if self._closed:
            raise RuntimeError("audit session is closed")
        index = self._fed
        self._fed += 1
        requests = len(trace.request_ids())
        events = len(trace)
        while True:
            with self._merge_lock:
                if (self._feed_broken or self._failure is not None
                        or len(self._entries) - self._merged_upto
                        < self._depth):
                    break
                oldest = self._merged_upto
            # Settle (and release) the oldest in-flight epoch before
            # starting more; the wait happens outside the merge lock.
            self._resolve(oldest)
        crash = None
        with self._merge_lock:
            future = next_state = None  # skipped, unless:
            if not self._feed_broken and self._failure is None:
                # (Chosen here, not kept as a bound method: the session
                # must not be a reference cycle — back-to-back audits
                # would each wait for the collector to free their
                # epochs' results and chain state.)
                start = (self._audit_here if self._pool is None
                         else self._prepass_and_dispatch)
                try:
                    future, next_state = start(trace, reports)
                except BaseException as exc:
                    # Keep the queue aligned with epoch indexes: a
                    # crashed feed still occupies its slot, and the
                    # crash resurfaces at merge/close time too (a
                    # session must never report ACCEPTED over an epoch
                    # whose audit crashed).
                    crash = exc
                    future = Future()
                    future.set_exception(crash)
                if next_state is None:  # rejected here, or crashed
                    self._feed_broken = True
                else:
                    self._fed_state = next_state
            self._entries.append((future, next_state, requests, events))
        if crash is not None:
            raise crash
        return PendingEpoch(
            index,
            resolver=lambda timeout=None: self._resolve(index, timeout),
            done_fn=lambda: self._entry_done(index),
        )

    # -- how an entry is started: (future of its result, next state) ------

    def _audit_here(self, trace: Trace, reports: Reports) -> tuple:
        """No pool: the epoch's whole audit, here and now."""
        # The pipeline's trace check gets the whole stream's uniqid()
        # values: only that shared set catches one duplicated *across*
        # epochs.
        actx = AuditContext(self._auditor.app, trace, reports,
                            self._fed_state, self._epoch_config,
                            self._seen_uniq)
        result = (self._auditor.pipeline or default_pipeline()).run(actx)
        if result.accepted and result.next_initial is None:
            raise ValueError(
                "audit session needs a MigratePhase in the pipeline "
                "to chain epoch state"
            )
        return _ready(result), result.next_initial

    def _prepass_and_dispatch(self, trace: Trace,
                              reports: Reports) -> tuple:
        """A pool: the epoch's serial half here, the rest dispatched."""
        epoch_state = self._fed_state
        prepass_start = _time.perf_counter()
        pre = prepass_epoch(self._auditor.app, trace, reports, epoch_state,
                            self._epoch_config, self._seen_uniq).result
        # The workers re-time their own phases, so the parent-side
        # prepass is extra work the per-epoch results do not carry.
        phases = self._merged.phases
        phases["state_precompute"] = (
            phases.get("state_precompute", 0.0)
            + _time.perf_counter() - prepass_start)
        if not pre.accepted:
            # The full audit would reject at the same check with the
            # same reason — the prepass *is* that prefix of it — so its
            # result already carries the epoch's verdict and stats.
            return _ready(pre), None
        # Whole-epoch work unit, encoded here — by the one thread that
        # builds and reads these objects — so the pool's threads only
        # ever hold bytes.  The primed context's stores are released
        # (the worker rebuilds its own from the unit's records); only
        # the migrated chain state is kept.
        payload = encode_work_unit(self._auditor.app, trace, reports,
                                   epoch_state, self._worker_config)
        return (self._threads.submit(self._pool.run, payload),
                pre.next_initial)

    # -- the in-order merge -----------------------------------------------

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
                future = self._entries[self._merged_upto][0]
                if (self._failure is not None or future is None
                        or future.done()):
                    self._merge_next_entry()
                    continue
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
            if index < self._merged_upto or self._failure is not None:
                return True
            return all(
                entry[0] is None or entry[0].done()
                for entry in self._entries[self._merged_upto:index + 1]
            )

    def _merge_next_entry(self) -> None:
        """Turn the next queued entry into its :class:`EpochResult`
        (lock held by the caller; the entry's future is done, or an
        earlier epoch rejected).  The one place a result is merged, the
        failure latched and the next state certified."""
        index = self._merged_upto
        future, next_state, requests, events = self._entries[index]
        if self._failure is not None:
            # Nothing after the first rejection is audited: the chain's
            # state is untrusted from there on.  A speculative audit
            # that is already running is discarded unseen.
            if future is not None:
                future.cancel()
                future.add_done_callback(
                    lambda f: f.cancelled() or f.exception()
                )
            epoch = EpochResult(
                index=index,
                accepted=False,
                reason=self._failure.reason,
                detail=f"skipped: epoch {self._failure.index} already "
                       f"rejected ({self._failure.detail})",
                requests=requests,
                events=events,
                skipped=True,
            )
        else:
            # Re-raises a crash — at feed time or in the pool — so
            # close()/_drain can never report ACCEPTED past it.
            result = future.result()
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
            _merge_shard_result(self._merged, result)
            self._summaries.append(_epoch_summary(epoch))
            # Time actually spent auditing — unlike wall-clock since
            # session start, this excludes waiting for epochs to arrive
            # (a follow session is mostly waiting).
            self._audit_seconds += result.phases.get("total", 0.0)
            if not epoch.accepted:
                self._failure = epoch
                self._merged.produced = {}
            else:
                # Certify the state: this epoch's full audit validated
                # the very logs it was migrated from.
                self._state = next_state
        self._epochs.append(epoch)
        # Release the merged entry's future and migrated-state
        # snapshot: a long follow session must hold one chain state,
        # not one per epoch.
        self._entries[index] = (None, None, requests, events)
        self._merged_upto += 1
        if self._on_epoch is not None and not epoch.skipped:
            self._on_epoch(epoch)

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
        while (self._failure is None
               and self._merged_upto < len(self._entries)
               and self._entry_done(self._merged_upto)):
            self._resolve(self._merged_upto)
        return self._failure is not None

    def _drain(self) -> None:
        """Merge every fed epoch, waiting for those still auditing and
        re-raising any unexpected exception an epoch's audit hit
        (rejections are results, not exceptions — only genuine crashes
        surface here).  A crash is latched: every later drain/close
        re-raises it, so a crashed session can never fall through to an
        ACCEPTED verdict."""
        if self._crash is not None:
            raise self._crash
        try:
            while not self._closed:
                with self._merge_lock:
                    total = len(self._entries)
                    if self._merged_upto >= total:
                        break
                self._resolve(total - 1)
        except Exception as crash:
            self._crash = crash
            raise
        # KeyboardInterrupt/SystemExit raised in the *waiting* thread
        # propagate un-latched: no epoch audit crashed, and a later
        # drain can still deliver the real verdict.

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
                self._threads.shutdown()
            self._closed = True
        merged = self._merged
        merged.accepted = self._failure is None
        if self._failure is not None:
            merged.reason = self._failure.reason
            merged.detail = self._failure.detail
        elif self._auditor.config.migrate:
            merged.next_initial = self._state
        merged.stats["shard_count"] = len(self._summaries)
        merged.stats["work_ratio"] = work_ratio(
            merged.stats.get("group_alphas", []))
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
    ``Auditor(app, strict=False, backend="interp")``).

    * :meth:`audit` — one pipeline pass over one epoch (``ssco_audit``
      is the kwargs shorthand);
    * :meth:`session` — incremental epoch-by-epoch auditing;
    * :meth:`audit_epochs` — the epoch loop: a session driven over any
      iterable of epoch slices (``execution.epochs()``,
      ``BundleReader.epochs(follow=True)``, ...);
    * :meth:`audit_stream` — that loop over what a reader reads, state
      record included.

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
        units that ran in this process instead — e.g. a
        :class:`~repro.fleet.FleetCoordinator`, or
        :func:`~repro.fleet.local_fleet`'s N local workers.  It stays
        the caller's to close.  Without one the session is the serial
        chain."""
        return AuditSession(self, initial_state, pool)

    @collector_scope()
    def audit_epochs(
        self,
        epochs: Iterable,
        initial_state: InitialState,
        pool=None,
        on_epoch=None,
    ) -> AuditResult:
        """The epoch loop: feed the slices of ``epochs`` through a
        session (``pool``: see :meth:`session`) and return the merged
        result.

        Items may be ``(trace, reports)`` pairs or objects with
        ``.trace`` / ``.reports`` attributes
        (:class:`~repro.server.reports.EpochSlice`).  ``on_epoch`` is
        called with the :class:`EpochResult` of each epoch that was
        audited, once, in feed order, as it settles — never for a
        skipped one.

        The loop owns the end of the stream.  Once a rejection has
        settled the iterable is left where it is: nothing after a
        rejected epoch is audited, so nothing after it is read.  When
        the iterable raises :class:`~repro.common.errors.MalformedBundle`
        — a reader met a record that does not decode — the epochs
        before it settle and the result is ``REJECTED:
        malformed_bundle``, unless one of them already rejected.
        With a pool the epochs audit concurrently (only the redo-only
        state prepass runs between submissions) and are merged back in
        feed order; the session itself bounds in-flight primed epochs
        to ``2 * pool.width``, so a long stream never holds more than a
        bounded number of speculative work units in memory.
        """
        with AuditSession(self, initial_state, pool, on_epoch) as session:
            try:
                for item in epochs:
                    if isinstance(item, tuple):
                        trace, reports = item
                    else:
                        trace, reports = item.trace, item.reports
                    session.submit_epoch(trace, reports)
                    if session.rejection_settled():
                        break
            except MalformedBundle as exc:
                result = session.close()  # the epochs before it settle
                return (malformed_verdict(exc, result) if result.accepted
                        else result)
            return session.close()

    def audit_stream(self, reader, pool=None, on_epoch=None,
                     **reading) -> AuditResult:
        """Audit what ``reader`` reads — its state record, then its
        epochs through :meth:`audit_epochs` — whatever it reads from: a
        :class:`~repro.io.BundleReader` (``reading``: its ``follow`` /
        ``idle_timeout``) or a :class:`~repro.net.RemoteBundleReader`.
        The one road from a reader to a verdict: a state record that
        does not decode is ``malformed_bundle`` like any other."""
        try:
            initial_state = reader.read_initial_state(**reading)
        except MalformedBundle as exc:
            return malformed_verdict(exc)
        return self.audit_epochs(reader.epochs(**reading), initial_state,
                                 pool, on_epoch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Auditor app={self.app.name!r} "
                f"{self.config.describe()}>")


def _ready(result: AuditResult) -> Future:
    """A queue entry whose verdict is already in."""
    future: Future = Future()
    future.set_result(result)
    return future


def malformed_verdict(exc: MalformedBundle,
                      result: AuditResult | None = None) -> AuditResult:
    """``REJECTED: malformed_bundle`` — over ``result``, the merged
    outcome of the epochs that settled before the record that does not
    decode, or over none (no epoch was read).  The evidence is the
    executor's word (§3): one that does not decode does not verify."""
    if result is None:
        result = AuditResult(
            accepted=False, phases={"total": 0.0},
            stats={"shard_count": 0, "shards": [], "work_ratio": 1.0})
    result.accepted = False
    result.reason = RejectReason.MALFORMED_BUNDLE
    result.detail = str(exc)
    result.produced = {}
    result.next_initial = None
    return result


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
