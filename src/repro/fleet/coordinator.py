"""The fleet coordinator: the one pool epochs run on elsewhere.

:class:`FleetCoordinator` is what a caller hands an audit session
(``Auditor.session(state, pool=coordinator)``) — serving workers on
this host (:func:`~repro.fleet.local.local_fleet`), on others, or both:
``run`` blocks for one encoded epoch work unit's
:class:`~repro.core.pipeline.AuditResult`, ``width`` is how many the
session keeps in flight, ``close`` tears the fleet down, and
``serial_fallbacks`` counts epochs that ran locally.
Because the session already merges results strictly in feed order,
bounds the speculative prepass, and drains in-flight epochs
after a REJECT, the coordinator inherits the whole single-host merge
discipline for free — it only changes *where* an epoch executes.

Dispatch contract (one driver thread per in-flight epoch):

* a worker is checked out *exclusively* for one epoch — its socket
  carries exactly one ``WORK`` frame, then ``HEARTBEAT`` frames
  (liveness, resetting the miss window) until the ``RESULT`` arrives;
* **heartbeat miss** (no frame for ``heartbeat_timeout``), **task
  deadline** (``task_timeout`` exceeded overall), disconnect, or a
  protocol violation (a ``RESULT`` for another epoch, or one
  ``AuditResult.from_json`` refuses) drops the worker and
  **re-dispatches** the epoch to the next idle worker;
* a worker-side crash (``RESULT`` with ``ok: false``) is an
  infrastructure failure, never a verdict: the epoch re-runs locally
  (reproducing any genuine deterministic crash) and the worker —
  which is alive and honest about its failure — returns to the pool;
* with no live workers (none joined, or all dead), the coordinator
  itself is the last-resort worker: the epoch runs serially inline;
* ``redundancy >= 2`` dispatches each epoch to that many workers and
  cross-checks the verdicts (accepted/reason/detail/bodies/stats); a
  disagreement is treated like an infrastructure failure — the local
  inline run arbitrates.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading

from repro.common.clock import Deadline
from repro.core.epochwork import (
    decode_result_frame,
    encode_work_frame,
    run_work_unit,
)
from repro.net.protocol import (
    FLAG_FLEET,
    HEARTBEAT,
    HELLO,
    RESULT,
    WORK,
    WORKER_BYE,
    WORKER_HELLO,
    FrameSocket,
    ProtocolError,
    TransportError,
    encode_frame_payload,
    parse_endpoint,
)

__all__ = ["FleetCoordinator"]

#: Seconds a joining worker has to send its ``WORKER_HELLO`` frame.
HANDSHAKE_TIMEOUT = 10.0


class _WorkerLost(Exception):
    """The worker can no longer be trusted with work (disconnect,
    heartbeat miss, deadline, protocol violation): drop it and
    re-dispatch the epoch."""


class _WorkerFailed(Exception):
    """The worker reported it could not *execute* the work unit
    (``ok: false``): the worker stays, the epoch re-runs locally."""


class _RemoteWorker:
    __slots__ = ("name", "fsock", "dead")

    def __init__(self, name: str, fsock: FrameSocket):
        self.name = name
        self.fsock = fsock
        self.dead = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_RemoteWorker {self.name} dead={self.dead}>"


class FleetCoordinator:
    """Listen for fleet workers and fan epoch work units out to them.

    ``listen`` is ``HOST:PORT`` (port 0 binds an ephemeral port, see
    :attr:`endpoint`).  ``min_workers``: wait for this many registered
    workers before dispatching the first epoch (0 dispatches to whoever
    has joined; with no workers at all, epochs run locally).
    ``task_timeout``: overall per-epoch deadline on a worker, past
    which the straggler is dropped and its epoch re-dispatched
    (``None`` relies on heartbeat-miss detection alone).
    ``redundancy``: dispatch each epoch to this many workers and
    cross-check their verdicts (1 disables).  ``width``: epochs the
    session keeps in flight — never fewer than two, nor than
    ``min_workers``, so every worker the run waits for can hold one.

    Thread-safe: the epoch driver calls :meth:`run` from several epoch
    threads at once; each call checks out one idle worker (or runs
    inline as the last resort).
    """

    def __init__(self, listen: str, *, min_workers: int = 0,
                 task_timeout: float | None = None,
                 redundancy: int = 1,
                 heartbeat_timeout: float | None = 30.0,
                 join_timeout: float | None = 60.0,
                 width: int = 2):
        host, port = parse_endpoint(listen)
        self.min_workers = max(0, int(min_workers))
        self.width = max(int(width), self.min_workers, 2)
        self.task_timeout = task_timeout
        self.redundancy = max(1, int(redundancy))
        self.heartbeat_timeout = heartbeat_timeout
        self.join_timeout = join_timeout

        self._cond = threading.Condition()
        self._workers: list[_RemoteWorker] = []
        self._idle: queue.Queue[_RemoteWorker] = queue.Queue()
        self._closed = False
        self._epoch_ids = itertools.count()

        #: Epochs that ran serially in the coordinator process (the
        #: last-resort worker).
        self.serial_fallbacks = 0
        #: Epochs whose verdict came back over the wire.
        self.remote_epochs = 0
        #: Epoch dispatches abandoned on a dead/straggling worker and
        #: requeued (each increment is one lost worker attempt).
        self.redispatches = 0
        #: Workers that ever completed registration.
        self.workers_joined = 0
        #: ``ok: false`` RESULTs (worker-side crashes, not verdicts).
        self.worker_failures = 0
        #: Redundant dispatches that produced >= 2 comparable verdicts.
        self.cross_checks = 0
        #: Cross-checks whose verdicts disagreed (locally arbitrated).
        self.cross_check_mismatches = 0

        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            server.bind((host, port))
            server.listen(16)
        except OSError:
            server.close()
            raise
        server.settimeout(0.2)
        self._server = server
        self.host, self.port = server.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fleet-accept", daemon=True)
        self._accept_thread.start()

    @property
    def endpoint(self) -> str:
        """The actually-bound ``HOST:PORT`` (resolves port 0)."""
        return f"{self.host}:{self.port}"

    # -- worker registration ----------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                with self._cond:
                    if self._closed:
                        return
                continue
            except OSError:
                return
            threading.Thread(target=self._handshake, args=(conn,),
                             name="fleet-join", daemon=True).start()

    def _handshake(self, conn: socket.socket) -> None:
        fsock = FrameSocket(conn)
        try:
            deadline = Deadline(HANDSHAKE_TIMEOUT)
            flags = fsock.recv_preamble(deadline)
            if not flags & FLAG_FLEET:
                raise ProtocolError("peer does not speak fleet frames")
            kind, obj = fsock.recv_frame(deadline)
            if kind != WORKER_HELLO:
                raise ProtocolError(
                    f"expected WORKER_HELLO, got kind {kind:#x}")
            name = ""
            if isinstance(obj, dict):
                name = str(obj.get("name") or "")
            fsock.send_preamble(FLAG_FLEET)
            fsock.send_frame(HELLO, {"role": "fleet-coordinator"})
            fsock.settimeout(None)
        except (TransportError, ProtocolError, ValueError):
            fsock.close()
            return
        with self._cond:
            if self._closed:
                self._say_goodbye(fsock)
                return
            self.workers_joined += 1
            worker = _RemoteWorker(name or f"worker-{self.workers_joined}",
                                   fsock)
            self._workers.append(worker)
            self._cond.notify_all()
        self._idle.put(worker)

    def _await_min_workers(self) -> None:
        if self.min_workers <= 0:
            return
        deadline = Deadline(self.join_timeout)
        with self._cond:
            while (self.workers_joined < self.min_workers
                   and not self._closed and not deadline.expired()):
                # Short slices so close() and the join timeout are both
                # observed promptly.
                self._cond.wait(timeout=0.1)

    # -- worker checkout --------------------------------------------------

    def _live_workers(self) -> int:
        with self._cond:
            return sum(1 for w in self._workers if not w.dead)

    def _checkout(self) -> _RemoteWorker | None:
        """Block until an idle worker is available; ``None`` once no
        live worker remains (the caller runs the epoch inline)."""
        while True:
            if self._live_workers() == 0:
                return None
            try:
                worker = self._idle.get(timeout=0.05)
            except queue.Empty:
                with self._cond:
                    if self._closed:
                        return None
                continue
            if worker.dead:
                continue
            return worker

    def _checkout_nowait(self) -> _RemoteWorker | None:
        while True:
            try:
                worker = self._idle.get_nowait()
            except queue.Empty:
                return None
            if not worker.dead:
                return worker

    def _checkin(self, worker: _RemoteWorker) -> None:
        if worker.dead:
            return
        with self._cond:
            closed = self._closed
        if closed:
            return
        self._idle.put(worker)

    def _discard(self, worker: _RemoteWorker) -> None:
        with self._cond:
            worker.dead = True
            if worker in self._workers:
                self._workers.remove(worker)
        worker.fsock.close()

    # -- the pool contract (width / run / serial_fallbacks / close) -------

    def run(self, payload: bytes):
        """Audit one encoded epoch work unit somewhere in the fleet;
        blocks for the result.  Never raises on infrastructure failure
        — dead and straggling workers re-dispatch, and the coordinator
        itself is the last-resort worker."""
        with self._cond:
            if self._closed:
                raise RuntimeError("fleet coordinator is closed")
        self._await_min_workers()
        epoch = next(self._epoch_ids)
        if self.redundancy > 1:
            result = self._run_redundant(epoch, payload)
        else:
            result = self._run_remote(epoch, payload)
        if result is None:
            self.serial_fallbacks += 1
            return run_work_unit(payload)
        self.remote_epochs += 1
        return result

    def _run_remote(self, epoch: int, payload: bytes):
        """Dispatch with re-dispatch-on-loss; ``None`` means "run it
        locally" (no workers, or a surviving worker reported a crash)."""
        while True:
            worker = self._checkout()
            if worker is None:
                return None
            try:
                result = self._dispatch(worker, epoch, payload)
            except _WorkerLost:
                self._discard(worker)
                self.redispatches += 1
                continue
            except _WorkerFailed:
                self.worker_failures += 1
                self._checkin(worker)
                return None
            self._checkin(worker)
            return result

    def _run_redundant(self, epoch: int, payload: bytes):
        """Dispatch one epoch to up to ``redundancy`` workers and
        cross-check the verdicts.  Degrades gracefully: fewer idle
        workers → fewer replicas; a disagreement returns ``None`` so
        the local inline run arbitrates."""
        primary = self._checkout()
        if primary is None:
            return None
        replicas = [primary]
        while len(replicas) < self.redundancy:
            extra = self._checkout_nowait()
            if extra is None:
                break
            replicas.append(extra)

        outcomes: list[tuple | None] = [None] * len(replicas)

        def _one(slot: int, worker: _RemoteWorker) -> None:
            try:
                outcomes[slot] = ("ok", self._dispatch(worker, epoch,
                                                       payload))
            except _WorkerLost:
                outcomes[slot] = ("lost", None)
            except _WorkerFailed:
                outcomes[slot] = ("failed", None)

        threads = [threading.Thread(target=_one, args=(slot, worker),
                                    name="fleet-replica", daemon=True)
                   for slot, worker in enumerate(replicas[1:], start=1)]
        for thread in threads:
            thread.start()
        _one(0, replicas[0])
        for thread in threads:
            thread.join()

        results = []
        lost = False
        for (state, result), worker in zip(outcomes, replicas):
            if state == "ok":
                self._checkin(worker)
                results.append(result)
            elif state == "lost":
                self._discard(worker)
                self.redispatches += 1
                lost = True
            else:
                self.worker_failures += 1
                self._checkin(worker)
        if not results:
            # Every replica died: this is the straggler-requeue path.
            # Every replica merely crashed: local re-run arbitrates.
            return self._run_remote(epoch, payload) if lost else None
        if len(results) >= 2:
            self.cross_checks += 1
            if not self._results_agree(results[0], results[1]):
                self.cross_check_mismatches += 1
                return None
        return results[0]

    @staticmethod
    def _results_agree(a, b) -> bool:
        """Agreement on the whole verdict object but its phases, which
        are wall-clock timings."""
        return {**a.to_json(), "phases": 0} == {**b.to_json(), "phases": 0}

    def _dispatch(self, worker: _RemoteWorker, epoch: int, payload: bytes):
        """One WORK → (HEARTBEAT...) → RESULT round trip on a worker
        held exclusively by this thread."""
        task = Deadline(self.task_timeout)
        try:
            worker.fsock.send_raw(encode_frame_payload(
                WORK, encode_work_frame(epoch, payload)))
            while True:
                step = self.heartbeat_timeout
                remaining = task.remaining()
                if remaining is not None:
                    if remaining <= 0:
                        raise _WorkerLost(
                            f"{worker.name}: task deadline exceeded")
                    step = (remaining if step is None
                            else min(step, remaining))
                kind, obj = worker.fsock.recv_frame(Deadline(step))
                if kind == HEARTBEAT:
                    # Liveness: the worker is computing.  The *task*
                    # deadline keeps ticking — heartbeats prove life,
                    # not progress, so a straggler still gets requeued.
                    continue
                if kind == RESULT:
                    try:
                        repoch, ok, result, error = decode_result_frame(obj)
                    except ValueError as exc:
                        raise _WorkerLost(
                            f"{worker.name}: bad RESULT: {exc}") from exc
                    if repoch != epoch:
                        raise _WorkerLost(
                            f"{worker.name}: RESULT for epoch {repoch}, "
                            f"expected {epoch}")
                    if not ok:
                        raise _WorkerFailed(error or "worker crash")
                    return result
                if kind == WORKER_BYE:
                    raise _WorkerLost(f"{worker.name}: worker left")
                raise _WorkerLost(
                    f"{worker.name}: unexpected frame kind {kind:#x}")
        except (TransportError, ProtocolError) as exc:
            # IdleTimeout (a TransportError) is the heartbeat miss.
            raise _WorkerLost(f"{worker.name}: {exc}") from exc

    # -- lifecycle --------------------------------------------------------

    @staticmethod
    def _say_goodbye(fsock: FrameSocket) -> None:
        try:
            fsock.send_frame(WORKER_BYE, {})
        except TransportError:
            pass
        fsock.close()

    def close(self) -> None:
        """Dismiss the fleet.  Idempotent; callers must have drained
        their in-flight epochs first (the drivers do)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
            self._cond.notify_all()
        try:
            self._server.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5)
        # Anything still parked in the idle queue is also in `workers`;
        # drain the queue so no thread can check a closed worker out.
        while True:
            try:
                self._idle.get_nowait()
            except queue.Empty:
                break
        for worker in workers:
            worker.dead = True
            self._say_goodbye(worker.fsock)

    def __enter__(self) -> FleetCoordinator:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FleetCoordinator {self.endpoint} "
                f"joined={self.workers_joined} "
                f"remote={self.remote_epochs} "
                f"fallbacks={self.serial_fallbacks}>")
