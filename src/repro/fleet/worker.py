"""The fleet worker daemon: join a coordinator, audit epochs, repeat.

``repro worker --join HOST:PORT`` runs one :class:`FleetWorker`: it
connects (with retry — workers are routinely launched before the
coordinator binds), registers with ``WORKER_HELLO`` behind the
``FLAG_FLEET`` capability bit, then serves ``WORK`` frames until the
coordinator says ``WORKER_BYE`` or disconnects.

Each work unit is the payload an audit session encodes for its pool,
decoded and audited by the same code the coordinator's own fallback
runs (:mod:`repro.core.epochwork`): the stock pipeline, the serial
chunk plan, any backend registered in the worker's process.  The worker needs no workload definition
of its own — the application's sources travel inside the payload.

While an epoch runs, a background thread streams ``HEARTBEAT`` frames
so the coordinator can tell "slow" from "dead".  A crash — a unit that
does not decode included — is reported as ``RESULT ok: false``, an
infrastructure failure for the coordinator to re-run locally, never a
verdict.  A pipeline REJECT is a result, with the partial stats the
pipeline accumulated before rejecting.
"""

from __future__ import annotations

import os
import threading

from repro.common.clock import Deadline
from repro.core.epochwork import (
    decode_work_frame,
    decode_work_unit,
    encode_error_frame,
    encode_result_frame,
    run_epoch_inline,
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
    connect_endpoint,
    parse_endpoint,
)

__all__ = ["FleetWorker"]


class FleetWorker:
    """One worker process's client side of the fleet protocol."""

    def __init__(self, endpoint: str, *, name: str | None = None,
                 heartbeat_interval: float = 2.0,
                 connect_timeout: float | None = 30.0,
                 handshake_timeout: float = 10.0):
        host, port = parse_endpoint(endpoint)
        if port <= 0:
            raise ValueError(f"cannot join port {port}; need a bound port")
        self.host = host
        self.port = port
        self.name = name or f"{os.uname().nodename}-{os.getpid()}"
        self.heartbeat_interval = max(0.05, float(heartbeat_interval))
        self.connect_timeout = connect_timeout
        self.handshake_timeout = handshake_timeout
        #: Epochs executed to a verdict (ACCEPT *or* REJECT).
        self.epochs_run = 0
        #: Epochs that crashed (reported as ``ok: false``).
        self.epochs_failed = 0
        self._busy = threading.Event()
        self._stop = threading.Event()
        self._send_lock = threading.Lock()

    # -- joining ----------------------------------------------------------

    def _connect(self) -> FrameSocket:
        """TCP-connect with retry (the coordinator may not have bound
        yet), then register.  Raises :class:`TransportError` once the
        connect deadline expires."""
        deadline = Deadline(self.connect_timeout)
        while True:
            try:
                fsock = connect_endpoint(self.host, self.port, timeout=1.0)
                break
            except TransportError:
                if deadline.expired():
                    raise
                deadline.sleep(0.1)
        try:
            fsock.send_preamble(FLAG_FLEET)
            fsock.send_frame(WORKER_HELLO,
                             {"name": self.name, "pid": os.getpid()})
            hs = Deadline(self.handshake_timeout)
            flags = fsock.recv_preamble(hs)
            if not flags & FLAG_FLEET:
                raise ProtocolError(
                    "coordinator does not speak fleet frames")
            kind, _obj = fsock.recv_frame(hs)
            if kind != HELLO:
                raise ProtocolError(f"expected HELLO, got kind {kind:#x}")
            fsock.settimeout(None)
        except (TransportError, ProtocolError):
            fsock.close()
            raise
        return fsock

    # -- serving ----------------------------------------------------------

    def _heartbeat_loop(self, fsock: FrameSocket) -> None:
        while not self._stop.is_set():
            if not self._busy.wait(timeout=0.2):
                continue
            with self._send_lock:
                # Re-checked under the lock: never send a heartbeat
                # after the RESULT for the epoch it was proving.
                if self._stop.is_set() or not self._busy.is_set():
                    continue
                try:
                    fsock.send_frame(HEARTBEAT, {})
                except TransportError:
                    return
            self._stop.wait(self.heartbeat_interval)

    def _serve(self, fsock: FrameSocket) -> None:
        heartbeats = threading.Thread(target=self._heartbeat_loop,
                                      args=(fsock,),
                                      name="fleet-heartbeat", daemon=True)
        heartbeats.start()
        try:
            while True:
                try:
                    kind, obj = fsock.recv_frame(Deadline(None))
                except (TransportError, ProtocolError):
                    return  # coordinator gone: the daemon's natural end
                if kind == WORKER_BYE:
                    return
                if kind == HEARTBEAT:
                    continue
                if kind != WORK:
                    return  # a peer this confused gets no more epochs
                try:
                    epoch, unit = decode_work_frame(obj)
                except ValueError:
                    return
                self._busy.set()
                try:
                    try:
                        result = run_epoch_inline(*decode_work_unit(unit))
                        body = encode_result_frame(epoch, result)
                    except Exception as exc:
                        # A crash, not a verdict: the coordinator
                        # re-runs the epoch locally.  (AuditReject
                        # never reaches here — the pipeline converts
                        # it into a REJECT *result* with partial
                        # stats, shipped through the branch above.)
                        self.epochs_failed += 1
                        body = encode_error_frame(
                            epoch, f"{type(exc).__name__}: {exc}")
                    else:
                        self.epochs_run += 1
                finally:
                    self._busy.clear()
                try:
                    with self._send_lock:
                        fsock.send_frame(RESULT, body)
                except TransportError:
                    return
        finally:
            self._stop.set()
            heartbeats.join(timeout=5)

    def run(self) -> int:
        """Join, serve until dismissed or disconnected, and return the
        number of epochs executed to a verdict."""
        fsock = self._connect()
        try:
            self._serve(fsock)
        finally:
            self._stop.set()
            fsock.close()
        return self.epochs_run

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FleetWorker {self.name} -> {self.host}:{self.port} "
                f"run={self.epochs_run} failed={self.epochs_failed}>")
