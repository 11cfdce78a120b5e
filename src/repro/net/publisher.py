"""Recorder-side live audit transport: :class:`BundlePublisher`.

The paper's deployment ships the evidence stream — trace, op reports,
initial state — from the recording server to a verifier that runs
elsewhere (§4.1).  :class:`BundlePublisher` is that shipping layer: it
exposes the same record-level API as :class:`repro.io.BundleWriter`
(``write_state`` / ``write_event`` / ``write_epoch_mark`` /
``write_reports`` / ``write_epoch`` / ``write_end``) and fans every
record out to any number of TCP subscribers as a framed-JSONL stream
(:mod:`repro.net.protocol`), optionally mirroring to a wrapped
:class:`~repro.io.BundleWriter` so the on-disk bundle and the wire
stream stay bit-identical.

Three properties matter for a live deployment:

* **late connect / resume** — the publisher spools the stream as
  epoch-aligned *runs* (an epoch's events + reports + the closing
  ``epoch_mark`` or ``end`` record).  A subscriber's ``SUBSCRIBE``
  frame names the epoch it wants to start from; the publisher replays
  the initial-state record plus every spooled run from that epoch, then
  splices the subscriber into the live broadcast — atomically, under
  the spool lock, so no record is lost or duplicated.  ``spool_epochs``
  turns the spool into a ring: only the most recent N sealed runs are
  kept, and a resume from an evicted epoch gets an ``ERROR`` frame.
* **backpressure** — each subscriber owns a bounded queue of
  ``max_lag`` encoded frames.  When a consumer lags, ``write_*`` blocks
  (``stall_timeout=None``) — backpressure reaches the recorder — or
  drops the laggard after ``stall_timeout`` seconds (the default: 30);
  a dropped auditor reconnects and resumes from the spool.  Publisher
  memory is therefore bounded by ``spool + max_lag × subscribers``,
  never by the slowest consumer.
* **single writer** — like :class:`~repro.io.BundleWriter`, the
  ``write_*`` methods are meant for one recording thread; fan-out and
  per-subscriber sending happen on internal threads.
* **batching** — records are JSON-encoded once on arrival and shipped
  :data:`BATCH_RECORDS` / :data:`BATCH_BYTES` at a time as
  ``RECORD_BATCH`` frames, the one frame a record travels in.  An
  epoch seal always flushes, so batching never delays an auditable
  slice.
* **zero re-encode replay** — :meth:`write_record_payload` publishes an
  already-encoded record line verbatim (its kind sniffed from the
  leading bytes), so replaying the recorder's persisted evidence bundle
  to remote auditors costs framing, not serialization.
"""

from __future__ import annotations

import queue
import socket
import threading
from collections import deque

from repro.common.clock import Deadline
from repro.io import (
    FORMAT_VERSION,
    JSONL_FORMAT,
    SEGMENTED_LAYOUT,
    BundleWriter,
    end_record,
    epoch_mark_record,
    event_record,
    iter_report_records,
    record_kind,
    state_record,
)
from repro.net.protocol import (
    ERROR,
    HEARTBEAT,
    HELLO,
    SUBSCRIBE,
    FrameSocket,
    ProtocolError,
    TransportError,
    address_family,
    encode_batch_frame,
    encode_frame,
    encode_json,
    parse_endpoint,
)
from repro.server.app import InitialState
from repro.server.reports import Reports
from repro.trace.events import Event
from repro.trace.trace import Trace

#: Sentinel closing a subscriber's queue (sent after the last frame).
_DONE = None


#: Wire batching: pending records (JSON-encoded once, on arrival) ship
#: as one ``RECORD_BATCH`` frame once there are this many of them, or
#: this many payload bytes.  An epoch seal (mark/end) always flushes,
#: so nothing an auditor could act on is ever delayed — auditable
#: slices close on marks.
BATCH_RECORDS = 64
BATCH_BYTES = 256 * 1024

#: Seconds an attaching auditor has to send its ``SUBSCRIBE`` frame.
HANDSHAKE_TIMEOUT = 10.0
#: Pending connections the listening socket queues.
LISTEN_BACKLOG = 16


class _Subscriber:
    """One attached auditor: a framed socket, a bounded frame queue,
    and the sender thread that drains it."""

    def __init__(self, fsock: FrameSocket, max_lag: int, seq_floor: int):
        self.fsock = fsock
        self.queue: queue.Queue = queue.Queue(maxsize=max_lag)
        self.closed = False
        self.drained = threading.Event()
        #: First flush sequence number this subscriber must receive
        #: from the live broadcast — everything before it was already
        #: delivered in the attach snapshot.
        self.seq_floor = seq_floor

    def offer(self, frame: bytes | None,
              stall_timeout: float | None) -> bool:
        """Enqueue with backpressure; False when the subscriber is (or
        becomes) dead.  ``stall_timeout=None`` blocks until space."""
        deadline = Deadline(stall_timeout)
        while not self.closed:
            try:
                self.queue.put(frame, timeout=0.05)
                return True
            except queue.Full:
                if deadline.expired():
                    return False
        return False

    def kick(self) -> None:
        """Drop the subscriber (lagging consumer, shutdown, or a test's
        simulated network failure).  Safe from any thread; unblocks a
        producer stuck in :meth:`offer` and the sender thread alike."""
        self.closed = True
        self.fsock.close()
        while True:  # free queue space so a blocked offer() can see closed
            try:
                self.queue.get_nowait()
            except queue.Empty:
                break
        try:
            self.queue.put_nowait(_DONE)
        except queue.Full:  # pragma: no cover - queue was just drained
            pass


class BundlePublisher:
    """Serve a live audit bundle to remote auditors over TCP.

    ``listen`` is ``"HOST:PORT"`` (port 0 binds an ephemeral port; the
    bound address is ``publisher.endpoint``).  See the module docstring
    for the spool/backpressure model.  Use as a context manager, or
    call :meth:`close`.
    """

    def __init__(
        self,
        listen: str = "127.0.0.1:0",
        writer: BundleWriter | None = None,
        spool_epochs: int | None = None,
        max_lag: int = 256,
        stall_timeout: float | None = 30.0,
        sndbuf: int | None = None,
        heartbeat_interval: float | None = 5.0,
    ):
        if spool_epochs is not None and spool_epochs < 1:
            raise ValueError(
                f"spool_epochs must be >= 1 (or None for unbounded), "
                f"got {spool_epochs!r}"
            )
        if max_lag < 1:
            raise ValueError(f"max_lag must be >= 1, got {max_lag!r}")
        host, port = parse_endpoint(listen)
        self.writer = writer
        self._spool_epochs = spool_epochs
        self.max_lag = max_lag
        self.stall_timeout = stall_timeout
        #: Cap on each subscriber socket's SO_SNDBUF: together with
        #: ``max_lag`` this bounds the bytes a lagging consumer can pin
        #: on the publisher (kernel buffer + queued frames).
        self.sndbuf = sndbuf

        #: Mirrors BundleWriter's bookkeeping.
        self.position = 0

        self._lock = threading.Lock()
        self._subscribers: list[_Subscriber] = []
        self._ever_connected = 0
        self._drained_count = 0
        self._state_frame: bytes | None = None
        #: Sealed epoch runs: (epoch index, [encoded frames]).
        self._runs: deque[tuple[int, list[bytes]]] = deque()
        self._first_epoch = 0
        self._current: list[bytes] = []
        self._current_epoch = 0
        self._current_has_events = False
        #: Records awaiting a flush, as per-record JSON encodings (the
        #: only serialization they ever get), plus their byte total.
        self._pending: list[bytes] = []
        self._pending_bytes = 0
        #: Flushed frames not yet broadcast, as (seq, frame).  The
        #: recorder thread drains this at its next _publish, preserving
        #: per-subscriber FIFO order even when an attach forced the
        #: flush.
        self._unsent: list[tuple[int, bytes]] = []
        self._seq = 0
        self._ended = False
        self._closing = False

        self._server = socket.socket(address_family(host),
                                     socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(LISTEN_BACKLOG)
        self._server.settimeout(0.2)
        self.host, self.port = self._server.getsockname()[:2]
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="publisher-accept", daemon=True
        )
        self._accept_thread.start()
        #: Keepalive for auditors that attach before the recorder has
        #: anything to publish (a long recording run): a no-op frame
        #: every ``heartbeat_interval`` seconds resets their idle
        #: deadline.  ``None``/0 disables.
        self.heartbeat_interval = heartbeat_interval
        self._heartbeat_thread: threading.Thread | None = None
        if heartbeat_interval:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop, name="publisher-heartbeat",
                daemon=True,
            )
            self._heartbeat_thread.start()

    @property
    def endpoint(self) -> str:
        """The bound ``HOST:PORT`` (resolves port 0), in the exact form
        :func:`~repro.net.protocol.parse_endpoint` accepts — IPv6 hosts
        come back bracketed (``[::1]:9000``)."""
        host = f"[{self.host}]" if ":" in self.host else self.host
        return f"{host}:{self.port}"

    @property
    def ended(self) -> bool:
        return self._ended

    # -- the BundleWriter-shaped record API -------------------------------

    def write_state(self, initial_state: InitialState) -> None:
        self._publish(state_record(initial_state))

    def write_event(self, event: Event) -> None:
        self._publish(event_record(event))
        self.position += 1

    def write_epoch_mark(self) -> None:
        """Record a quiescent cut at the current position; seals the
        current epoch run."""
        self._publish(epoch_mark_record(self.position))

    def write_reports(self, reports: Reports) -> None:
        for record in iter_report_records(reports):
            self._publish(record)

    def write_epoch(self, trace: Trace, reports: Reports) -> None:
        """One self-contained epoch run, exactly like
        :meth:`BundleWriter.write_epoch` (the opening mark for every
        epoch after the first, the slice's events, its reports)."""
        if self.position > 0:
            self.write_epoch_mark()
        for event in trace:
            self.write_event(event)
        self.write_reports(reports)

    def write_end(self) -> None:
        """Mark the stream complete; subscribers drain and disconnect."""
        self._publish(end_record(self.position))

    def write_record_payload(self, payload: bytes,
                             kind: str | None = None) -> None:
        """Publish one **already-encoded** record — a line of the
        recorder's on-disk JSONL bundle — without decoding or
        re-serializing it.

        This is the zero-copy splice from evidence file to wire: the
        recorder pays the JSON encode once when it persists the bundle,
        and replaying that bundle to remote auditors costs only the
        framing.  ``kind`` skips the prefix sniff when the caller
        already knows it.  The bundle header line has no kind and must
        not be published (the ``HELLO`` frame carries its contents);
        passing it raises ``ValueError``.  A wrapped ``--out`` mirror
        writer receives the same bytes as one appended line
        (``BundleWriter.write_payload_line``) — the mirror and the
        wire share one encoding.
        """
        payload = payload.rstrip(b"\r\n")
        if kind is None:
            kind = record_kind(payload)
        if kind is None:
            raise ValueError(
                "record payload has no kind (the bundle header line is "
                "carried by HELLO, not republished)"
            )
        self._publish_payload(kind, payload)
        if kind == "event":
            self.position += 1

    # -- spool + broadcast ------------------------------------------------

    def _publish(self, record: dict) -> None:
        self._publish_payload(record.get("kind"), encode_json(record))

    def _publish_payload(self, kind: str | None,
                         payload: bytes) -> None:
        if self.writer is not None:
            # The --out mirror gets the identical encoded bytes the
            # wire carries — one JSON encode per record, shared by
            # file and socket (mirror order is safe off-lock: only the
            # single recorder thread publishes).
            self.writer.write_payload_line(payload, kind=kind)
        with self._lock:
            if self._ended:
                raise RuntimeError("publisher stream already ended")
            if kind == "state":
                # The state record is every snapshot's first frame, so
                # it goes out at once, a batch of one; flush first to
                # keep stream order.
                self._flush_pending_locked()
                frame = encode_batch_frame((payload,))
                self._state_frame = frame
                self._unsent.append((self._seq, frame))
                self._seq += 1
            else:
                self._pending.append(payload)
                self._pending_bytes += len(payload)
                seal = False
                if kind == "event":
                    self._current_has_events = True
                elif kind == "epoch_mark" and self._current_has_events:
                    seal = True
                elif kind == "end":
                    seal = True
                if (seal
                        or len(self._pending) >= BATCH_RECORDS
                        or self._pending_bytes >= BATCH_BYTES):
                    self._flush_pending_locked()
                if seal:
                    self._seal_current_run()
                if kind == "end":
                    self._ended = True
            to_send = self._unsent
            self._unsent = []
            targets = list(self._subscribers)
        # Fan out off-lock: only the (single) recorder thread broadcasts,
        # so per-subscriber FIFO order is preserved, and a registration
        # racing this broadcast either sees the flush in its snapshot or
        # in its queue — never both, never neither (the seq floor set
        # under the lock in _attach decides; see _broadcast).
        self._broadcast(to_send, targets, self.stall_timeout,
                        final=kind == "end")

    def _flush_pending_locked(self) -> None:
        """Frame the pending records (lock held) as one
        ``RECORD_BATCH`` — the payloads were JSON-encoded on arrival
        and are spliced here, never re-serialized.  The frame lands in
        ``_current`` (for snapshot replay) and ``_unsent`` (for the
        live broadcast)."""
        if not self._pending:
            return
        frame = encode_batch_frame(self._pending)
        self._pending = []
        self._pending_bytes = 0
        self._current.append(frame)
        self._unsent.append((self._seq, frame))
        self._seq += 1

    def _broadcast(
        self,
        entries: list[tuple[int, bytes]],
        targets: list[_Subscriber],
        stall_timeout: float | None,
        final: bool = False,
    ) -> None:
        """Offer flushed frames to every subscriber (off-lock); each
        was encoded once and the subscribers share its bytes.  Entries
        below a subscriber's ``seq_floor`` were already delivered in
        its attach snapshot.
        """
        for sub in targets:
            ok = all(sub.offer(frame, stall_timeout)
                     for seq, frame in entries if seq >= sub.seq_floor)
            if not ok:
                self._drop(sub, lagging=True)
            elif final and not sub.offer(_DONE, stall_timeout):
                # Same laggard policy for the closing sentinel: the
                # recorder must never block past stall_timeout (the
                # kick delivers a sentinel of its own).
                self._drop(sub, lagging=True)

    def _seal_current_run(self) -> None:
        """Close the epoch run in flight (lock held); the sealing frame
        (mark/end) is its last element, so a replayed run reproduces
        the writer's byte stream exactly."""
        self._runs.append((self._current_epoch, self._current))
        self._current = []
        self._current_epoch += 1
        self._current_has_events = False
        while (self._spool_epochs is not None
               and len(self._runs) > self._spool_epochs):
            self._runs.popleft()
            self._first_epoch += 1

    def _snapshot(self, from_epoch: int) -> list[bytes]:
        """Replay frames for a subscriber starting at ``from_epoch``
        (lock held)."""
        frames: list[bytes] = []
        if self._state_frame is not None:
            frames.append(self._state_frame)
        for index, run in self._runs:
            if index >= from_epoch:
                frames.extend(run)
        if self._current_epoch >= from_epoch:
            frames.extend(self._current)
        return frames

    def _heartbeat_loop(self) -> None:
        """Best-effort keepalive: not spooled, never blocks the
        recorder, skipped for a subscriber whose queue is busy (real
        frames already prove liveness there)."""
        frame = encode_frame(HEARTBEAT, {})
        while not self._closing and not self._ended:
            Deadline(self.heartbeat_interval).sleep(
                self.heartbeat_interval)
            if self._closing or self._ended:
                return
            with self._lock:
                targets = list(self._subscribers)
            for sub in targets:
                if not sub.closed:
                    try:
                        sub.queue.put_nowait(frame)
                    except queue.Full:
                        pass  # lagging on real data; liveness is moot

    # -- subscriber lifecycle ---------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="publisher-send", daemon=True,
            )
            # Prune finished senders so a long-lived publisher with
            # reconnecting auditors doesn't accumulate dead threads.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        if self.sndbuf is not None:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                            self.sndbuf)
        fsock = FrameSocket(conn)
        try:
            deadline = Deadline(HANDSHAKE_TIMEOUT)
            fsock.recv_preamble(deadline)
            kind, payload = fsock.recv_frame(deadline)
            if kind != SUBSCRIBE or not isinstance(payload, dict):
                raise ProtocolError("expected a SUBSCRIBE frame")
            from_epoch = int(payload.get("from_epoch", 0))
        except (ProtocolError, TransportError, TypeError, ValueError):
            fsock.close()  # not a valid auditor; say nothing
            return
        sub, hello, snapshot, error = self._attach(from_epoch, fsock)
        # The handshake recv installed its deadline as the socket
        # timeout; the send loop must block as long as the backpressure
        # policy says, not ~HANDSHAKE_TIMEOUT per sendall.
        fsock.settimeout(None)
        try:
            fsock.send_preamble()
            if error is not None:
                fsock.send_frame(ERROR, {"error": error})
                return
            fsock.send_frame(HELLO, hello)
            fsock.send_frames(snapshot)
            done = False
            while not done:
                item = sub.queue.get()
                # Coalesce the queue backlog into one vectored send:
                # a consumer that fell behind catches up in a few
                # syscalls instead of one sendall per frame.
                frames: list[bytes] = []
                while True:
                    if item is _DONE:
                        done = True
                        break
                    frames.append(item)
                    if len(frames) >= 64:
                        break
                    try:
                        item = sub.queue.get_nowait()
                    except queue.Empty:
                        break
                if frames:
                    fsock.send_frames(frames)
            # Drained means "received the complete stream": the
            # sentinel only counts when the end record actually
            # went out (close() without write_end also sends a
            # sentinel, and that must never read as success).
            if not sub.closed and self._ended:
                sub.drained.set()
                with self._lock:
                    self._drained_count += 1
        except TransportError:
            pass  # consumer went away; it may reconnect and resume
        finally:
            if sub is not None:
                self._drop(sub, lagging=False)
            fsock.close()

    def _attach(self, from_epoch: int, fsock: FrameSocket):
        """Register a subscriber atomically with a replay snapshot.

        Flushes the pending batch first, so the snapshot contains every
        record published so far; the subscriber's ``seq_floor`` then
        fences the live broadcast to strictly newer flushes (the
        attach-flushed entries reach *existing* subscribers via
        ``_unsent`` at the recorder's next publish)."""
        with self._lock:
            if from_epoch < self._first_epoch:
                return None, None, None, (
                    f"epoch {from_epoch} already evicted from the spool "
                    f"(oldest available: {self._first_epoch})"
                )
            if from_epoch > self._current_epoch:
                return None, None, None, (
                    f"epoch {from_epoch} not yet published "
                    f"(next epoch: {self._current_epoch})"
                )
            self._flush_pending_locked()
            hello = {
                "format": JSONL_FORMAT,
                "version": FORMAT_VERSION,
                "layout": SEGMENTED_LAYOUT,
                "from_epoch": from_epoch,
                "spool_start": self._first_epoch,
                "ended": self._ended,
            }
            snapshot = self._snapshot(from_epoch)
            sub = _Subscriber(fsock, self.max_lag, seq_floor=self._seq)
            self._subscribers.append(sub)
            self._ever_connected += 1
            if self._ended:
                sub.queue.put(_DONE)
            return sub, hello, snapshot, None

    def _drop(self, sub: _Subscriber, lagging: bool) -> None:
        sub.kick()
        with self._lock:
            if sub in self._subscribers:
                self._subscribers.remove(sub)

    def kick_subscribers(self) -> int:
        """Force-disconnect every attached auditor (operational reset;
        tests use it to simulate a network failure).  The spool is
        untouched — auditors reconnect and resume."""
        with self._lock:
            subs = list(self._subscribers)
        for sub in subs:
            self._drop(sub, lagging=False)
        return len(subs)

    def wait_drained(self, timeout: float | None = None,
                     min_subscribers: int = 1) -> bool:
        """Block until at least ``min_subscribers`` auditors have
        received the complete stream (through the ``end`` record), or
        ``timeout`` elapses.  Meaningful after :meth:`write_end`."""
        deadline = Deadline(timeout)
        while True:
            with self._lock:
                if (self._drained_count >= min_subscribers
                        and all(sub.drained.is_set() or sub.closed
                                for sub in self._subscribers)):
                    return True
            if deadline.expired():
                return False
            deadline.sleep(0.05)

    def close(self) -> None:
        """Stop accepting, disconnect subscribers, release the port."""
        if self._closing:
            return
        self._closing = True
        try:
            self._server.close()
        except OSError:  # pragma: no cover - defensive
            pass
        with self._lock:
            if not self._ended:
                self._flush_pending_locked()
            to_send = self._unsent
            self._unsent = []
            subs = list(self._subscribers)
        if to_send:
            # Last-gasp delivery of anything still buffered (a close
            # without write_end); bounded stall so a dead consumer
            # cannot wedge shutdown.
            self._broadcast(to_send, subs, stall_timeout=0.5)
        for sub in subs:
            sub.offer(_DONE, 0.0) or sub.kick()
        self._accept_thread.join(timeout=2.0)
        for thread in self._threads:
            thread.join(timeout=2.0)
        for sub in subs:
            sub.kick()

    def __enter__(self) -> BundlePublisher:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
