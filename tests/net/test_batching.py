"""The batched wire (RECORD_BATCH): frame format, FLAG_BATCH capability
negotiation, legacy interop, and the bytes-per-event win.

The contract under test: batching changes *how many frames* carry the
record stream, never the records themselves — a legacy subscriber that
does not advertise FLAG_BATCH receives the identical stream as plain
RECORD frames, ``batch_records=1`` reproduces the unbatched wire, and a
malformed batch payload fails loud as a ProtocolError, never a silent
truncation.
"""

from __future__ import annotations

import itertools
import socket
import threading

import pytest

from repro.common.clock import Deadline
from repro.core import AuditConfig, Auditor
from repro.io import (
    FORMAT_VERSION,
    JSONL_FORMAT,
    SEGMENTED_LAYOUT,
    BundleWriter,
    record_kind,
    save_audit_bundle_segmented,
)
from repro.net import BundlePublisher, ProtocolError, RemoteBundleReader
from repro.net.protocol import (
    FLAG_BATCH,
    HEARTBEAT,
    HELLO,
    RECORD,
    RECORD_BATCH,
    SUBSCRIBE,
    FrameSocket,
    connect_endpoint,
    decode_frame,
    encode_batch_frame,
    encode_frame,
    encode_json,
    parse_endpoint,
)
from repro.server import Executor, RandomScheduler
from repro.server.nondet import NondetSource
from tests.conftest import counter_requests
from tests.net.test_transport import (
    _assert_equivalent,
    _file_audit,
    _publish,
    _shards,
)


@pytest.fixture
def epoch_execution(counter_app):
    executor = Executor(
        counter_app,
        scheduler=RandomScheduler(11),
        max_concurrency=4,
        nondet=NondetSource(seed=11),
        epoch_size=8,
    )
    execution = executor.serve(counter_requests(32))
    assert len(execution.epoch_marks) >= 2
    return execution


# -- the RECORD_BATCH frame format --------------------------------------------


def test_batch_frame_roundtrip():
    records = [{"kind": "event", "n": i, "pad": "x" * i}
               for i in range(7)]
    frame = encode_batch_frame([encode_json(r) for r in records])
    kind, decoded, consumed = decode_frame(frame)
    assert kind == RECORD_BATCH
    assert decoded == records
    assert consumed == len(frame)


def test_batch_of_one_is_still_an_array():
    frame = encode_batch_frame([encode_json({"kind": "end"})])
    kind, decoded, _ = decode_frame(frame)
    assert kind == RECORD_BATCH
    assert decoded == [{"kind": "end"}]


def test_batch_frame_crc_covers_the_spliced_payload():
    frame = bytearray(encode_batch_frame(
        [encode_json({"kind": "event", "n": n}) for n in range(3)]
    ))
    frame[len(frame) // 2] ^= 0xFF
    with pytest.raises(ProtocolError, match="CRC"):
        decode_frame(bytes(frame))


def test_preamble_flags_roundtrip():
    left_sock, right_sock = socket.socketpair()
    with FrameSocket(left_sock) as left, FrameSocket(right_sock) as right:
        left.send_preamble(FLAG_BATCH)
        assert right.recv_preamble(Deadline(5.0)) & FLAG_BATCH
        right.send_preamble()  # a legacy peer: no capability bits
        assert left.recv_preamble(Deadline(5.0)) == 0


def test_unknown_flag_bits_survive_the_preamble():
    # A future capability must reach old code (which masks the bits it
    # knows) instead of breaking the handshake.
    left_sock, right_sock = socket.socketpair()
    with FrameSocket(left_sock) as left, FrameSocket(right_sock) as right:
        left.send_preamble(FLAG_BATCH | 0x4000)
        flags = right.recv_preamble(Deadline(5.0))
        assert flags & FLAG_BATCH
        assert flags & 0x4000


def test_send_frames_is_byte_identical_to_sequential_sends():
    # Enough frames to exercise the _SENDMSG_FRAMES chunking and the
    # varying sizes that make partial-iov resumption plausible.
    frames = [encode_frame(RECORD, {"kind": "event", "n": n,
                                    "pad": "y" * (n * 13 % 97)})
              for n in range(50)]
    expected = b"".join(frames)
    left_sock, right_sock = socket.socketpair()
    with FrameSocket(left_sock) as left, FrameSocket(right_sock) as right:
        left.send_frames(frames)
        assert left.bytes_sent == len(expected)
        received = bytearray()
        right_sock.settimeout(5.0)
        while len(received) < len(expected):
            received += right_sock.recv(65536)
        assert bytes(received) == expected
        # And the same bytes parse back as the same frame sequence.
        offset = 0
        for frame in frames:
            kind, payload, consumed = decode_frame(bytes(received[offset:]))
            assert (kind, payload) == decode_frame(frame)[:2]
            offset += consumed
        assert offset == len(expected)


def test_byte_counters_track_the_wire():
    frame = encode_frame(RECORD, {"kind": "event", "n": 1})
    left_sock, right_sock = socket.socketpair()
    with FrameSocket(left_sock) as left, FrameSocket(right_sock) as right:
        left.send_frame(RECORD, {"kind": "event", "n": 1})
        assert left.bytes_sent == len(frame)
        assert right.recv_frame(Deadline(5.0))[0] == RECORD
        assert right.bytes_received == len(frame)


# -- capability negotiation + interop against a live publisher ----------------


def _handshake(endpoint, flags, from_epoch=0):
    """A hand-rolled subscriber (what an old auditor binary would do
    when ``flags=0``): returns the connected FrameSocket past HELLO."""
    host, port = parse_endpoint(endpoint)
    fsock = connect_endpoint(host, port, 5.0)
    try:
        fsock.send_preamble(flags)
        fsock.send_frame(SUBSCRIBE, {"from_epoch": from_epoch})
        deadline = Deadline(10.0)
        fsock.recv_preamble(deadline)
        kind, hello = fsock.recv_frame(deadline)
        assert kind == HELLO, (kind, hello)
    except BaseException:
        fsock.close()
        raise
    return fsock, hello


def _drain_records(fsock):
    """Collect (frame kind, record) pairs through the end record."""
    out = []
    while True:
        kind, payload = fsock.recv_frame(Deadline(10.0))
        if kind == HEARTBEAT:
            continue
        records = payload if kind == RECORD_BATCH else [payload]
        for record in records:
            out.append((kind, record))
            if record.get("kind") == "end":
                return out


def _publish_all(publisher, execution):
    """Publish the whole execution up front (the spool replays it to
    every late subscriber)."""
    publisher.write_state(execution.initial_state)
    for shard in _shards(execution):
        publisher.write_epoch(shard.trace, shard.reports)
    publisher.write_end()


def test_legacy_subscriber_gets_the_same_records_unbatched(
        epoch_execution):
    with BundlePublisher(batch_records=8, batch_bytes=1 << 20) \
            as publisher:
        _publish_all(publisher, epoch_execution)
        legacy_sock, legacy_hello = _handshake(publisher.endpoint, 0)
        with legacy_sock:
            legacy = _drain_records(legacy_sock)
        batch_sock, batch_hello = _handshake(publisher.endpoint,
                                             FLAG_BATCH)
        with batch_sock:
            batched = _drain_records(batch_sock)
    assert legacy_hello["batch"] is False
    assert batch_hello["batch"] is True
    # The legacy wire is RECORD-only; the batched wire actually batched.
    assert {kind for kind, _ in legacy} == {RECORD}
    assert RECORD_BATCH in {kind for kind, _ in batched}
    # Same records, same order — framing is the only difference.
    assert [r for _, r in legacy] == [r for _, r in batched]


def test_legacy_subscriber_interoperates_mid_stream(counter_app,
                                                    epoch_execution):
    """The live-broadcast explosion path (not just snapshot replay):
    a flags=0 subscriber attached *before* publishing begins."""
    shards = _shards(epoch_execution)
    with BundlePublisher(batch_records=8, batch_bytes=1 << 20) \
            as publisher:
        fsock, hello = _handshake(publisher.endpoint, 0)
        with fsock:
            thread = threading.Thread(
                target=_publish, args=(publisher, epoch_execution,
                                       shards))
            thread.start()
            try:
                live = _drain_records(fsock)
            finally:
                thread.join(timeout=30)
        _publish_all_reference = _handshake(publisher.endpoint,
                                            FLAG_BATCH)
        reference_sock, _ = _publish_all_reference
        with reference_sock:
            replayed = _drain_records(reference_sock)
    assert not thread.is_alive()
    assert {kind for kind, _ in live} == {RECORD}
    assert [r for _, r in live] == [r for _, r in replayed]


def test_batch_records_1_reproduces_the_unbatched_wire(epoch_execution):
    with BundlePublisher(batch_records=1) as publisher:
        _publish_all(publisher, epoch_execution)
        batch_sock, _ = _handshake(publisher.endpoint, FLAG_BATCH)
        with batch_sock:
            capable = _drain_records(batch_sock)
        legacy_sock, _ = _handshake(publisher.endpoint, 0)
        with legacy_sock:
            legacy = _drain_records(legacy_sock)
    # Even a batch-capable subscriber sees no RECORD_BATCH frames.
    assert capable == legacy
    assert {kind for kind, _ in capable} == {RECORD}


def test_small_batches_audit_identically_to_the_file(counter_app,
                                                     epoch_execution,
                                                     tmp_path):
    """Tiny batch bounds force flushes that do not line up with epoch
    seals; the yielded slices and verdict must not care."""
    reference = _file_audit(counter_app, epoch_execution, tmp_path)
    shards = _shards(epoch_execution)
    with BundlePublisher(batch_records=3, batch_bytes=512) as publisher:
        thread = threading.Thread(
            target=_publish, args=(publisher, epoch_execution, shards))
        thread.start()
        try:
            with RemoteBundleReader(publisher.endpoint,
                                    idle_timeout=20) as reader:
                remote = Auditor(counter_app, AuditConfig()).audit_epochs(
                    reader.epochs(), reader.initial_state
                )
        finally:
            thread.join(timeout=30)
    assert not thread.is_alive()
    _assert_equivalent(reference, remote)


def test_batching_reduces_wire_bytes_per_event(counter_app,
                                               epoch_execution):
    def measure(**knobs):
        with BundlePublisher(**knobs) as publisher:
            _publish_all(publisher, epoch_execution)
            with RemoteBundleReader(publisher.endpoint,
                                    idle_timeout=20) as reader:
                result = Auditor(counter_app, AuditConfig()).audit_epochs(
                    reader.epochs(), reader.initial_state
                )
                assert result.accepted
                return reader.wire_bytes_received
    unbatched = measure(batch_records=1)
    batched = measure(batch_records=64, batch_bytes=256 * 1024)
    assert 0 < batched < unbatched


# -- zero re-encode replay (write_record_payload) ------------------------------


def _save_bundle(execution, tmp_path):
    path = str(tmp_path / "replay_source.jsonl")
    save_audit_bundle_segmented(path, execution.trace,
                                execution.reports,
                                execution.initial_state,
                                execution.epoch_marks)
    return path


def test_record_kind_sniffs_without_parsing():
    # The writer's spelling (default separators) and the wire's
    # (compact) both resolve from the leading bytes.
    assert record_kind(b'{"kind": "event", "event": {}}') == "event"
    assert record_kind(
        encode_json({"kind": "epoch_mark", "events": 3})) == "epoch_mark"
    # A foreign producer that put "kind" later still resolves (parse).
    assert record_kind(b'{"events": 3, "kind": "end"}') == "end"
    # The bundle header has no kind; garbage is not a record.
    assert record_kind(b'{"format": "ssco-jsonl", "version": 1}') is None
    assert record_kind(b"not json") is None


def test_preencoded_bundle_replay_audits_identically(
        counter_app, epoch_execution, tmp_path):
    """Streaming the persisted bundle's raw lines through
    ``write_record_payload`` (never decoding them) must deliver the
    same audit as reading the bundle from disk."""
    reference = _file_audit(counter_app, epoch_execution, tmp_path)
    path = _save_bundle(epoch_execution, tmp_path)
    with BundlePublisher(batch_records=8) as publisher:

        def publish():
            with open(path, "rb") as fh:
                for line in fh:
                    kind = record_kind(line)
                    if kind is not None:  # skip the header line
                        publisher.write_record_payload(line, kind=kind)

        thread = threading.Thread(target=publish)
        thread.start()
        try:
            with RemoteBundleReader(publisher.endpoint,
                                    idle_timeout=20) as reader:
                remote = Auditor(counter_app, AuditConfig()).audit_epochs(
                    reader.epochs(), reader.initial_state
                )
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert publisher.ended
    _assert_equivalent(reference, remote)
    # The marks survive the raw-line path: the auditor's slices end
    # where the recorder drained.
    ends = itertools.accumulate(
        epoch["events"] for epoch in remote.stats["shards"])
    assert list(ends)[:-1] == list(epoch_execution.epoch_marks)


def test_preencoded_replay_reaches_legacy_subscribers(epoch_execution,
                                                      tmp_path):
    """Raw writer-spelled lines still explode cleanly into RECORD
    frames for a subscriber without the batch capability."""
    path = _save_bundle(epoch_execution, tmp_path)
    with BundlePublisher(batch_records=8) as publisher:
        with open(path, "rb") as fh:
            for line in fh:
                kind = record_kind(line)
                if kind is not None:
                    publisher.write_record_payload(line, kind=kind)
        legacy_sock, hello = _handshake(publisher.endpoint, 0)
        with legacy_sock:
            legacy = _drain_records(legacy_sock)
    assert hello["batch"] is False
    assert {kind for kind, _ in legacy} == {RECORD}
    assert sum(1 for _, r in legacy if r.get("kind") == "event") == \
        len(epoch_execution.trace)


def test_preencoded_rejects_header_and_mirrors_to_writer(tmp_path):
    with BundlePublisher() as publisher:
        with pytest.raises(ValueError, match="kind"):
            publisher.write_record_payload(
                b'{"format": "ssco-jsonl", "version": 1}')
    # A --out mirror writer receives the already-encoded bytes verbatim:
    # one encode shared by file and wire, no re-serialization.
    mirror = str(tmp_path / "mirror.jsonl")
    payload = encode_json({"kind": "event", "event": {"n": 1}})
    writer = BundleWriter(mirror)
    try:
        with BundlePublisher(writer=writer) as publisher:
            publisher.write_record_payload(payload)
    finally:
        writer.close()
    lines = open(mirror, "rb").read().splitlines()
    assert lines[-1] == payload.rstrip(b"\r\n")


# -- failure modes -------------------------------------------------------------


def test_non_array_batch_payload_is_a_protocol_error():
    """A RECORD_BATCH frame whose payload is not a JSON array must fail
    loud — never be silently skipped or misread as one record."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    endpoint = f"127.0.0.1:{server.getsockname()[1]}"

    def fake_publisher():
        conn, _ = server.accept()
        with FrameSocket(conn) as fsock:
            deadline = Deadline(5.0)
            fsock.recv_preamble(deadline)
            fsock.recv_frame(deadline)  # SUBSCRIBE
            fsock.settimeout(None)
            fsock.send_preamble(FLAG_BATCH)
            fsock.send_frame(HELLO, {
                "format": JSONL_FORMAT, "version": FORMAT_VERSION,
                "layout": SEGMENTED_LAYOUT, "from_epoch": 0,
                "spool_start": 0, "ended": False, "batch": True,
            })
            fsock.send_frame(RECORD_BATCH, {"kind": "event"})

    thread = threading.Thread(target=fake_publisher)
    thread.start()
    try:
        with RemoteBundleReader(endpoint, idle_timeout=5,
                                reconnect=0) as reader:
            with pytest.raises(ProtocolError, match="not a JSON array"):
                reader.read_initial_state()
    finally:
        thread.join(timeout=10)
        server.close()
    assert not thread.is_alive()
