"""Auditor-side live audit transport: :class:`RemoteBundleReader`.

The reader connects to a :class:`~repro.net.publisher.BundlePublisher`
and exposes the *exact* iterator contract of the file-based
:class:`~repro.io.BundleReader`: :meth:`read_initial_state` /
:attr:`initial_state` and :meth:`epochs` yielding
:class:`~repro.server.reports.EpochSlice` objects — so an
:class:`~repro.core.auditor.AuditSession` (serial or handed a pool)
audits a network stream with zero changes to :mod:`repro.core`:

.. code-block:: python

    reader = RemoteBundleReader("recorder.example:9000")
    auditor = Auditor(app, config)
    with auditor.session(reader.initial_state) as session:
        for epoch in reader.epochs():
            session.feed_epoch(epoch.trace, epoch.reports)

**Resume semantics.**  The reader counts epochs it has *fully yielded*.
On a mid-epoch disconnect it reconnects (up to ``reconnect`` times,
``reconnect_delay`` apart) and subscribes from that count — the
publisher replays the interrupted epoch from its spool, the reader
discards the partial slice it was accumulating, and the stream
continues with no epoch lost, duplicated, or torn.  The verdict stream
is therefore bit-identical to reading the same bundle from a file.

**Timeouts.**  ``connect_timeout`` bounds the initial connect plus
handshake (connection-refused is retried until the deadline — the
auditor may start before the recorder, the same startup race
``BundleReader.open(follow=True)`` tolerates).  ``idle_timeout`` is the
giving-up bound of :meth:`epochs`: after that long without a frame the
iterator ends, exactly like the file reader's follow mode (``None``
waits for the publisher's ``end`` record indefinitely).  Corrupt frames
(bad CRC, absurd length) raise
:class:`~repro.net.protocol.ProtocolError` — evidence-stream
corruption is never silently skipped.  A record the wire delivered
intact but that does not decode raises what the file reader raises for
it, :class:`~repro.common.errors.MalformedBundle`: both feed one
:class:`~repro.io.EpochAccumulator`.
"""

from __future__ import annotations

import time
from collections.abc import Iterator

from repro.common.clock import Deadline
from repro.io import (
    FORMAT_VERSION,
    JSONL_FORMAT,
    EpochAccumulator,
    ends_stream,
)
from repro.net.protocol import (
    ERROR,
    HEARTBEAT,
    HELLO,
    RECORD_BATCH,
    SUBSCRIBE,
    FrameSocket,
    IdleTimeout,
    ProtocolError,
    TransportError,
    connect_endpoint,
    parse_endpoint,
)
from repro.server.app import InitialState
from repro.server.reports import EpochSlice

#: "argument not given" marker (an explicit ``idle_timeout=None`` means
#: "wait forever", like the file reader's follow mode).
_UNSET = object()

#: In-band marker yielded by the record stream after a reconnect: the
#: publisher is replaying the interrupted epoch from its start, so the
#: consumer must discard its partial accumulators.
RESYNC = object()


class RemoteBundleReader:
    """Stream a live audit bundle from a remote publisher.

    ``RemoteBundleReader("host:9000")`` or
    ``RemoteBundleReader("host", 9000)``.  The constructor connects and
    completes the handshake eagerly, so a wrong endpoint or a non-repro
    peer raises immediately (:class:`TransportError` /
    :class:`ProtocolError`), mirroring ``BundleReader``'s eager header
    parse.  Use as a context manager, or call :meth:`close`.
    """

    def __init__(
        self,
        endpoint: str,
        port: int | None = None,
        connect_timeout: float | None = 5.0,
        idle_timeout: float | None = 30.0,
        reconnect: int = 3,
        reconnect_delay: float = 0.1,
        rcvbuf: int | None = None,
    ):
        if port is None:
            self._host, self._port = parse_endpoint(endpoint)
        else:
            self._host, self._port = endpoint, int(port)
        if self._port < 1:
            raise ValueError(
                f"cannot connect to port {self._port} (need 1-65535)"
            )
        if reconnect < 0:
            raise ValueError(f"reconnect must be >= 0, got {reconnect!r}")
        self._connect_timeout = connect_timeout
        self._idle_timeout = idle_timeout
        self._reconnect = reconnect
        self._reconnect_delay = reconnect_delay
        self._rcvbuf = rcvbuf
        self.header: dict | None = None
        self._fsock: FrameSocket | None = None
        self._bytes_prev_connections = 0
        #: Epochs fully yielded — the resume position after a disconnect.
        self._epochs_done = 0
        #: Where this connection's records are decoded, whichever
        #: method asked for them (a reconnect starts a fresh one).
        self._accumulator = EpochAccumulator()
        self._ended = False
        self._closed = False
        self._connect()

    @property
    def endpoint(self) -> str:
        host = (f"[{self._host}]" if ":" in self._host
                else self._host)
        return f"{host}:{self._port}"

    # -- connection management --------------------------------------------

    def _connect(self) -> None:
        """Dial, subscribe from ``_epochs_done``, validate the HELLO.

        Connection-refused is retried until ``connect_timeout`` — the
        recorder may not be listening yet (startup race) or may be
        restarting (resume race).
        """
        if self._fsock is not None and not self._fsock.closed:
            self._fsock.close()
        if self._fsock is not None:
            # Bank the dead connection's byte count exactly once (a
            # failed reconnect retries _connect with _fsock unchanged).
            self._bytes_prev_connections += self._fsock.bytes_received
            self._fsock.bytes_received = 0
        deadline = Deadline(self._connect_timeout)
        while True:
            try:
                fsock = connect_endpoint(self._host, self._port,
                                         deadline.remaining(),
                                         rcvbuf=self._rcvbuf)
                break
            except TransportError:
                if deadline.expired():
                    raise
                deadline.sleep(0.1)
        try:
            fsock.send_preamble()
            fsock.send_frame(SUBSCRIBE,
                             {"from_epoch": self._epochs_done})
            fsock.recv_preamble(deadline)
            kind, payload = fsock.recv_frame(deadline)
        except (TransportError, ProtocolError):
            fsock.close()
            raise
        if kind == ERROR:
            fsock.close()
            detail = (payload or {}).get("error", "unknown error")
            raise ProtocolError(
                f"publisher at {self.endpoint} refused the "
                f"subscription: {detail}"
            )
        if kind != HELLO or not isinstance(payload, dict) or (
            payload.get("format") != JSONL_FORMAT
        ):
            fsock.close()
            raise ProtocolError(
                f"peer at {self.endpoint} is not a {JSONL_FORMAT} "
                f"publisher"
            )
        if payload.get("version") != FORMAT_VERSION:
            fsock.close()
            # ProtocolError (a ValueError) so the CLI's stream error
            # handling and the resume path both see it uniformly.
            raise ProtocolError(
                f"unsupported audit-bundle format version "
                f"{payload.get('version')!r} (expected {FORMAT_VERSION})"
            )
        self.header = payload
        self._fsock = fsock

    # -- record stream ----------------------------------------------------

    def _records(self,
                 idle_timeout: float | None) -> Iterator[object]:
        """Bundle record dicts, with :data:`RESYNC` markers after
        reconnects.  Ends on the publisher's ``end`` record or after
        ``idle_timeout`` without data; raises :class:`TransportError`
        when the connection breaks and every resume attempt fails."""
        if self._ended or self._closed:
            return
        failures = 0
        deadline = Deadline(idle_timeout)
        while True:
            try:
                # Re-armed at every attempt: the idle timeout bounds the
                # wait *for a frame*, so time the consumer spends
                # auditing between generator resumptions never counts as
                # stream idleness (buffered epochs must not be dropped
                # under a slow audit — the file reader consumes
                # available data regardless of its deadline too).
                kind, payload = self._fsock.recv_frame(
                    deadline.restart())
            except IdleTimeout:
                # A quiet stream, not a broken one: give up waiting,
                # exactly like the file reader's follow mode.
                return
            except TransportError as exc:
                if self._closed:
                    return
                if failures >= self._reconnect:
                    raise TransportError(
                        f"stream from {self.endpoint} lost after epoch "
                        f"{self._epochs_done} ({self._reconnect} resume "
                        f"attempt(s) failed): {exc}"
                    ) from exc
                failures += 1
                time.sleep(self._reconnect_delay)
                try:
                    self._fsock.close()
                    self._connect()
                except TransportError:
                    continue  # next recv fails fast; retries remain
                yield RESYNC
                continue
            if kind == HEARTBEAT:
                # Keepalive while the recorder has nothing to publish
                # (receiving it already re-armed the idle deadline).
                continue
            if kind == ERROR:
                raise ProtocolError(
                    f"publisher error: "
                    f"{(payload or {}).get('error', 'unknown')}"
                )
            if kind != RECORD_BATCH:
                raise ProtocolError(
                    f"unexpected frame kind 0x{kind:02x} mid-stream"
                )
            if not isinstance(payload, list):
                raise ProtocolError(
                    "RECORD_BATCH payload is not a JSON array"
                )
            failures = 0
            for record in payload:
                if ends_stream(record):
                    self._ended = True
                    return
                yield record

    @property
    def wire_bytes_received(self) -> int:
        """Total bytes read off the wire across all connections of this
        reader (frames + preambles) — the transport benchmark divides
        this by events received to gate serialization bloat."""
        total = self._bytes_prev_connections
        if self._fsock is not None:
            total += self._fsock.bytes_received
        return total

    # -- the BundleReader contract ----------------------------------------

    @property
    def initial_state(self) -> InitialState:
        """The stream's initial state (reads ahead to the state record,
        which the publisher replays first on every connect)."""
        return self.read_initial_state()

    def read_initial_state(
        self,
        follow: bool = True,
        poll_interval: float = 0.05,
        idle_timeout: object = _UNSET,
    ) -> InitialState:
        """Read up to the state record and decode it, once; the next
        consumer (:meth:`epochs`) starts after it.
        ``follow`` and ``poll_interval`` exist for BundleReader
        signature compatibility — a socket stream always follows."""
        timeout = (self._idle_timeout if idle_timeout is _UNSET
                   else idle_timeout)
        if self._accumulator.initial_state is None:
            for record in self._records(timeout):
                if self._feed(record) is not None:
                    # A publisher sends the state record first, on
                    # every connection.
                    raise ProtocolError(
                        f"stream from {self.endpoint} closes an epoch "
                        f"before its state record"
                    )
                if self._accumulator.initial_state is not None:
                    break
        if self._accumulator.initial_state is None:
            raise ProtocolError(
                f"stream from {self.endpoint} has no initial state "
                f"record"
            )
        return self._accumulator.initial_state

    def _feed(self, record: object) -> EpochSlice | None:
        """One item of :meth:`_records` into the accumulator."""
        if record is RESYNC:
            # A new connection: the publisher replays the state record,
            # then the interrupted epoch from its start — the torn
            # accumulators are dropped with the connection they came
            # over.
            self._accumulator = EpochAccumulator(self._epochs_done)
            return None
        return self._accumulator.feed(record)

    def epochs(
        self,
        follow: bool = True,
        poll_interval: float = 0.05,
        idle_timeout: object = _UNSET,
    ) -> Iterator[EpochSlice]:
        """Yield the stream's epochs as independently auditable slices,
        each the moment its run is closed by the next ``epoch_mark`` (or
        the stream's ``end``) — the same contract as
        ``BundleReader.epochs(follow=True)`` on a segmented bundle.

        After a disconnect the partial epoch being accumulated is
        discarded and re-received from the publisher's spool, so the
        yielded slices are identical to an uninterrupted read.
        """
        timeout = (self._idle_timeout if idle_timeout is _UNSET
                   else idle_timeout)
        for record in self._records(timeout):
            epoch_slice = self._feed(record)
            if epoch_slice is not None:
                self._epochs_done += 1
                yield epoch_slice
        # Stream over (end record, or gave up on idleness): the trailing
        # slice is yielded even when torn, exactly like the file reader
        # — the audit rejecting an unbalanced slice is the loud signal
        # that the stream stopped mid-epoch.
        epoch_slice = self._accumulator.flush()
        if epoch_slice is not None:
            self._epochs_done += 1
            yield epoch_slice

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if self._fsock is not None:
                self._fsock.close()

    def __enter__(self) -> RemoteBundleReader:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
