"""The framed-JSONL wire protocol of the live audit transport.

The file-based streaming bundle is a sequence of JSON records, one per
line (:mod:`repro.io`).  Over a socket the same records travel in
**frames** — a line has no integrity story on a network, a frame does:

.. code-block:: text

    frame   := kind (1 byte) | length (4 bytes, big-endian) | payload | crc
    payload := `length` bytes of UTF-8 JSON
    crc     := CRC-32 of (kind byte + payload), 4 bytes big-endian

Every connection opens with an 8-byte preamble ``b"SSCO" + version +
flags`` (two big-endian uint16s), sent by both sides, so a foreign
client (or a stale peer speaking a future protocol) is rejected before
any JSON is parsed.  Frame kinds:

* ``HELLO`` — server → client; the bundle header (format, version,
  layout) plus the granted resume position (``from_epoch``) and the
  oldest epoch still in the publisher's spool (``spool_start``);
* ``SUBSCRIBE`` — client → server; ``{"from_epoch": N}`` asks for
  replay from epoch ``N`` (0 on first connect, the count of fully
  consumed epochs on a resume);
* ``RECORD_BATCH`` — server → client; a JSON *array* of bundle
  records (each identical to a JSONL line's dict: ``state`` /
  ``event`` / ``epoch_mark`` / report kinds / ``end``), in stream
  order — one frame header + CRC amortized over many records, a batch
  of one for a record that must not wait.  It is the only frame a
  record travels in: kind ``0x03``, the one-record ``RECORD`` frame it
  replaced, is retired and fails loud as "unknown frame kind";
* ``ERROR`` — server → client; ``{"error": msg}``, e.g. a resume from
  an epoch the spool has already evicted;
* ``WORKER_HELLO`` / ``WORKER_BYE`` — fleet worker ↔ coordinator;
  registration (``{"name": ..., "pid": ...}``) and orderly departure
  (see :mod:`repro.fleet`);
* ``WORK`` — coordinator → worker; ``{"epoch": N, "unit": {...}}``,
  the JSON work unit an audit session hands its pool
  (:mod:`repro.core.epochwork`);
* ``RESULT`` — worker → coordinator; the epoch's ``repro audit
  --json`` verdict (``{"epoch": N, "ok": true, "result": {...}}``), or
  ``ok: false`` with an ``error`` string for a crash that is an
  infrastructure failure, never a verdict.

The preamble's ``flags`` field is the capability negotiation: bit 1
(:data:`FLAG_FLEET`) means "I speak the fleet work-dispatch frames"
(``WORK`` / ``RESULT`` / ``WORKER_HELLO`` / ``WORKER_BYE``, with
``HEARTBEAT`` reused for worker liveness); bit 0, which once
negotiated ``RECORD_BATCH``, is retired and not reused.  Flags a peer
does not know are ignored, so capabilities extend the protocol without
a version bump (the version field stays reserved for breaking changes
to the frame format itself).

A frame whose CRC does not match its payload, whose length field is
absurd, or that ends mid-payload is *rejected*: :class:`ProtocolError`
for corruption (fail loud — the evidence stream must not be silently
mangled), :class:`TransportError` for truncation/disconnect (the
client's resume machinery handles those).
"""

from __future__ import annotations

import json
import socket
import struct
import zlib

from repro.common.clock import Deadline

#: Connection preamble: magic + protocol version + flags.
MAGIC = b"SSCO"
PROTOCOL_VERSION = 1
_PREAMBLE = struct.Struct("!4sHH")
PREAMBLE = _PREAMBLE.pack(MAGIC, PROTOCOL_VERSION, 0)

#: Preamble capability flags.  A peer sets a bit to say "I accept
#: this"; unknown bits are ignored (that is what makes them
#: capabilities and not a version bump).  Bit 0 (0x0001, the retired
#: RECORD_BATCH negotiation) is not reused.
FLAG_FLEET = 0x0002  # speaks the fleet work-dispatch frames

_HEADER = struct.Struct("!BI")   # kind, payload length
_TRAILER = struct.Struct("!I")   # crc32(kind byte + payload)

#: Frame kinds (0x03, the retired one-record RECORD, is not reused).
HELLO = 0x01
SUBSCRIBE = 0x02
ERROR = 0x04
#: Server → client no-op: proves the stream is alive while the
#: recorder has nothing to publish yet (e.g. an auditor that attached
#: before a long recording run finished).  Receivers reset their idle
#: deadline and otherwise ignore it.
HEARTBEAT = 0x05
#: Server → client; a JSON array of records in stream order — the one
#: frame bundle records travel in.
RECORD_BATCH = 0x06
#: Fleet dispatch (peers advertising FLAG_FLEET; see repro.fleet):
#: coordinator → worker, one epoch work unit.
WORK = 0x07
#: Worker → coordinator, the epoch's AuditResult.to_json() (or a crash
#: report with ok=false — an infrastructure failure, never a verdict).
RESULT = 0x08
#: Worker → coordinator registration, sent right after the preamble.
WORKER_HELLO = 0x09
#: Orderly departure, either direction; the peer stops dispatching.
WORKER_BYE = 0x0A

_KNOWN_KINDS = frozenset({HELLO, SUBSCRIBE, ERROR, HEARTBEAT,
                          RECORD_BATCH, WORK, RESULT, WORKER_HELLO,
                          WORKER_BYE})

#: Frames per sendmsg() call in :meth:`FrameSocket.send_frames` —
#: comfortably under every platform's IOV_MAX (POSIX floor is 16,
#: Linux is 1024).
_SENDMSG_FRAMES = 16

#: :class:`FrameSocket` caches the timeout it last installed on the
#: raw socket (``settimeout`` is not free, and receive loops would
#: otherwise reinstall a near-identical deadline once per recv).  This
#: sentinel marks "never installed / externally changed".
_TIMEOUT_UNKNOWN = object()

#: Upper bound on a frame payload; a length beyond this is corruption,
#: not a big record (the op-log chunking in repro.io bounds real
#: records far below it).
MAX_FRAME_PAYLOAD = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """The peer sent bytes that violate the frame format (bad magic,
    unknown kind, CRC mismatch, absurd length, malformed JSON)."""


class TransportError(ConnectionError):
    """The connection died mid-stream (truncated frame, peer reset,
    send/recv failure)."""


class IdleTimeout(TransportError):
    """No data arrived within the idle deadline.  The peer may simply
    have nothing to say (a quiet recorder between epochs) — callers
    treat this as "give up waiting", not as a broken connection."""


def parse_endpoint(text: str) -> tuple[str, int]:
    """``"HOST:PORT"`` → ``(host, port)``; raises :class:`ValueError`
    with the offending text on anything else.  Port 0 is allowed (bind
    to an ephemeral port); callers that *connect* should require > 0.
    """
    if not isinstance(text, str) or ":" not in text:
        raise ValueError(
            f"endpoint must look like HOST:PORT, got {text!r}"
        )
    host, _, port_text = text.rpartition(":")
    bracketed = host.startswith("[") and host.endswith("]")
    if bracketed:
        host = host[1:-1]  # [::1]:9000
    if not host:
        raise ValueError(
            f"endpoint must name a host, got {text!r}"
        )
    if ":" in host and not bracketed:
        # "::1" would silently misparse as host "::" port 1.
        raise ValueError(
            f"IPv6 endpoints need brackets, like [::1]:9000; "
            f"got {text!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"endpoint port must be an integer, got {text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(
            f"endpoint port must be in [0, 65535], got {port}"
        )
    return host, port


def address_family(host: str) -> int:
    """The socket family for a host accepted by
    :func:`parse_endpoint` (an IPv6 literal contains colons)."""
    return socket.AF_INET6 if ":" in host else socket.AF_INET


def _frame_crc(kind: int, payload) -> int:
    # Incremental CRC over the kind byte then the payload: no
    # ``bytes([kind]) + payload`` copy of the (possibly large) payload.
    return zlib.crc32(payload, zlib.crc32(bytes((kind,)))) & 0xFFFFFFFF


def encode_json(obj: object) -> bytes:
    """The canonical JSON encoding of one record (compact separators)."""
    return json.dumps(obj, separators=(",", ":")).encode()


def encode_frame(kind: int, payload_obj: object) -> bytes:
    """One wire frame for ``payload_obj`` (JSON-encoded)."""
    return encode_frame_payload(kind, encode_json(payload_obj))


def encode_frame_payload(kind: int, payload: bytes) -> bytes:
    """One wire frame around an already-JSON-encoded ``payload``.

    This is the batching fast path: the publisher JSON-encodes each
    record exactly once and splices the encodings into a
    ``RECORD_BATCH`` payload with ``b",".join`` — no re-serialization
    per subscriber.
    """
    crc = _frame_crc(kind, payload)
    return b"".join((
        _HEADER.pack(kind, len(payload)), payload, _TRAILER.pack(crc)
    ))


def encode_batch_frame(payloads) -> bytes:
    """A ``RECORD_BATCH`` frame from per-record JSON encodings.

    ``payloads`` is a sequence of ``encode_json(record)`` results;
    joining them with commas inside brackets *is* the JSON array — the
    records are never parsed or re-encoded here.
    """
    return encode_frame_payload(
        RECORD_BATCH, b"[" + b",".join(payloads) + b"]"
    )


def decode_frame(data: bytes) -> tuple[int, object, int]:
    """Decode one frame from the head of ``data``; returns
    ``(kind, payload_obj, bytes_consumed)``.

    Raises :class:`ProtocolError` on corruption and
    :class:`TransportError` when ``data`` ends mid-frame (the caller
    should read more bytes or treat it as a disconnect).
    """
    if len(data) < _HEADER.size:
        raise TransportError("truncated frame header")
    kind, length = _HEADER.unpack_from(data)
    _check_header(kind, length)
    end = _HEADER.size + length + _TRAILER.size
    if len(data) < end:
        raise TransportError("truncated frame payload")
    payload = data[_HEADER.size:_HEADER.size + length]
    (crc,) = _TRAILER.unpack_from(data, _HEADER.size + length)
    return kind, _verify(kind, payload, crc), end


def _check_header(kind: int, length: int) -> None:
    if kind not in _KNOWN_KINDS:
        raise ProtocolError(f"unknown frame kind 0x{kind:02x}")
    if length > MAX_FRAME_PAYLOAD:
        raise ProtocolError(
            f"frame payload of {length} bytes exceeds the "
            f"{MAX_FRAME_PAYLOAD}-byte bound (corrupt length field?)"
        )


def _verify(kind: int, payload, crc: int) -> object:
    """CRC-check then parse; ``payload`` may be bytes or a memoryview
    over the receive buffer (the CRC runs on it in place — the only
    copy is the one ``json`` needs anyway)."""
    expected = _frame_crc(kind, payload)
    if crc != expected:
        raise ProtocolError(
            f"frame CRC mismatch (got 0x{crc:08x}, "
            f"expected 0x{expected:08x})"
        )
    try:
        return json.loads(bytes(payload).decode())
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise ProtocolError(f"frame payload is not JSON: {exc}") from None


class FrameSocket:
    """A socket that speaks preamble + frames.

    Thin and blocking by design: the publisher gives every subscriber
    its own sender thread, and the client reads its one stream.  All
    receive methods take a :class:`~repro.common.clock.Deadline`, the
    same helper the file-follow reader polls with.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buffer = bytearray()  # append is amortized O(1)
        self._pos = 0               # consumed prefix of _buffer
        self._timeout_installed: object = _TIMEOUT_UNKNOWN
        self._closed = False
        #: Wire-byte counters (frames + preambles, both directions) —
        #: the transport benchmark's ``wire_bytes_per_event`` metric
        #: reads these.
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- sending ----------------------------------------------------------

    def send_preamble(self, flags: int = 0) -> None:
        # OSError -> TransportError, like frames.
        self.send_raw(PREAMBLE if not flags else
                      _PREAMBLE.pack(MAGIC, PROTOCOL_VERSION, flags))

    def send_frame(self, kind: int, payload_obj: object) -> None:
        self.send_raw(encode_frame(kind, payload_obj))

    def send_raw(self, frame: bytes) -> None:
        """Send pre-encoded frame bytes (the publisher encodes each
        record once and fans the bytes out to every subscriber)."""
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        self.bytes_sent += len(frame)

    def send_frames(self, frames) -> None:
        """Vectored send of several pre-encoded frames: one
        ``sendmsg()`` per :data:`_SENDMSG_FRAMES` frames instead of one
        syscall (and one kernel copy boundary) per frame.  The
        publisher's sender thread drains its whole queue backlog
        through this."""
        if not frames:
            return
        if len(frames) == 1 or not hasattr(self._sock, "sendmsg"):
            for frame in frames:  # pragma: no cover - sendmsg is POSIX
                self.send_raw(frame)
            return
        views = [memoryview(f) for f in frames]
        total = sum(len(f) for f in frames)
        try:
            start = 0
            while start < len(views):
                sent = self._sock.sendmsg(
                    views[start:start + _SENDMSG_FRAMES])
                # sendmsg may stop short; resume mid-frame without
                # copying by re-slicing the memoryview.
                while sent:
                    head = views[start]
                    if sent >= len(head):
                        sent -= len(head)
                        start += 1
                    else:
                        views[start] = head[sent:]
                        sent = 0
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        self.bytes_sent += total

    # -- receiving --------------------------------------------------------

    def _recv_exact(self, count: int, deadline: Deadline):
        """Return a memoryview over the next ``count`` buffered bytes.

        The view is valid only until the next ``_recv_exact`` call
        (which may compact or grow the buffer); callers consume it
        immediately.  Compared to slicing ``bytes`` off the front of
        the buffer per field, this parses frames with zero copies —
        the consumed prefix is dropped at most once per refill instead
        of three times per frame.
        """
        buffer = self._buffer
        pos = self._pos
        if pos and (len(buffer) == pos or pos >= 65536):
            try:
                del buffer[:pos]
            except BufferError:  # pragma: no cover - defensive
                # A caller's view is still alive (e.g. kept by an
                # exception traceback); skip compaction this round.
                pass
            else:
                self._pos = pos = 0
        while len(buffer) - pos < count:
            remaining = deadline.remaining()
            if remaining is not None and remaining <= 0:
                raise IdleTimeout(
                    f"no data for {deadline.timeout}s (idle deadline)"
                )
            self._install_timeout(remaining)
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                # The installed timeout may lag the deadline slightly;
                # the loop head re-checks and raises IdleTimeout only
                # when the deadline has truly expired.
                continue
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
            if not chunk:
                raise TransportError("connection closed by peer")
            buffer += chunk
            self.bytes_received += len(chunk)
            # Bytes are progress: the idle deadline means "no data",
            # so a large frame trickling over a slow link must never
            # be misread as a mid-frame stall.
            deadline.restart()
        self._pos = pos + count
        return memoryview(buffer)[pos:self._pos]

    def _install_timeout(self, remaining) -> None:
        """Put ``remaining`` on the raw socket, skipping the syscall
        when the installed timeout is already close enough: at least
        ``remaining`` (never time out early — a premature wake is just
        a wasted loop, but systematically undershooting would spin) and
        within 10% + 50ms of it (bounded overshoot, so an idle deadline
        fires at most fractionally late)."""
        current = self._timeout_installed
        if current is _TIMEOUT_UNKNOWN:
            pass
        elif remaining is None:
            if current is None:
                return
        elif (current is not None
                and remaining <= current <= remaining * 1.1 + 0.05):
            return
        self._sock.settimeout(remaining)
        self._timeout_installed = remaining

    def _buffered(self) -> int:
        return len(self._buffer) - self._pos

    def recv_preamble(self, deadline: Deadline) -> int:
        """Validate the peer's preamble; returns its capability flags."""
        magic, version, flags = _PREAMBLE.unpack(
            self._recv_exact(_PREAMBLE.size, deadline))
        if magic != MAGIC:
            raise ProtocolError(
                f"bad preamble magic {magic!r} (not a repro.net peer)"
            )
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {version} "
                f"(expected {PROTOCOL_VERSION})"
            )
        return flags

    def recv_frame(self, deadline: Deadline) -> tuple[int, object]:
        try:
            kind, length = _HEADER.unpack(
                self._recv_exact(_HEADER.size, deadline))
        except IdleTimeout:
            if self._buffered():
                raise TransportError(
                    "peer stalled mid-frame (partial header)"
                ) from None
            raise
        _check_header(kind, length)
        try:
            body = self._recv_exact(length + _TRAILER.size, deadline)
        except IdleTimeout as exc:
            # Past the header we are provably mid-frame: a stall here is
            # truncation (resume territory), never a quiet stream.
            raise TransportError(
                f"peer stalled mid-frame: {exc}"
            ) from None
        try:
            (crc,) = _TRAILER.unpack_from(body, length)
            payload = _verify(kind, body[:length], crc)
        finally:
            body.release()  # let the next _recv_exact compact the buffer
        return kind, payload

    # -- lifecycle --------------------------------------------------------

    def settimeout(self, timeout: float | None) -> None:
        """Reset the raw socket timeout (``_recv_exact`` leaves the
        last deadline's remaining time installed; a sender loop that
        must block indefinitely clears it)."""
        self._sock.settimeout(timeout)
        self._timeout_installed = timeout

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    def __enter__(self) -> FrameSocket:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def connect_endpoint(host: str, port: int, timeout: float | None,
                     rcvbuf: int | None = None) -> FrameSocket:
    """TCP-connect and wrap; raises :class:`TransportError` on failure.

    ``rcvbuf`` caps ``SO_RCVBUF`` (set before connecting, so it bounds
    the advertised window): a small receive buffer makes a slow auditor
    exert backpressure on the publisher instead of letting the kernel
    sponge up megabytes of evidence stream.
    """
    sock = None
    try:
        if rcvbuf is None:
            sock = socket.create_connection((host, port),
                                            timeout=timeout)
        else:
            sock = socket.socket(address_family(host),
                                 socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
            sock.settimeout(timeout)
            sock.connect((host, port))
    except OSError as exc:
        if sock is not None:
            sock.close()
        raise TransportError(
            f"cannot connect to {host}:{port}: {exc}"
        ) from exc
    sock.settimeout(None)
    return FrameSocket(sock)
