"""The batched wire (RECORD_BATCH, the one frame a record travels in):
frame format, preamble flags, and the bytes-per-event win.

The contract under test: batching changes *how many frames* carry the
record stream, never the records themselves — whatever the batch
bounds (``publisher.BATCH_RECORDS`` / ``BATCH_BYTES``, module constants
these tests patch) the auditor reads the same slices, and a malformed
batch payload fails loud as a ProtocolError, never a silent truncation.
"""

from __future__ import annotations

import itertools
import socket
import threading

import pytest

from repro.bench import run_online_phase
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
from repro.net import publisher as publisher_mod
from repro.net.protocol import (
    FLAG_FLEET,
    HELLO,
    RECORD_BATCH,
    FrameSocket,
    decode_frame,
    encode_batch_frame,
    encode_frame,
    encode_json,
)
from repro.server import Executor, RandomScheduler
from repro.server.nondet import NondetSource
from repro.workloads import wiki_workload
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
        left.send_preamble(FLAG_FLEET)
        assert right.recv_preamble(Deadline(5.0)) & FLAG_FLEET
        right.send_preamble()  # no capability bits
        assert left.recv_preamble(Deadline(5.0)) == 0


def test_unknown_flag_bits_survive_the_preamble():
    # A future capability must reach old code (which masks the bits it
    # knows) instead of breaking the handshake.
    left_sock, right_sock = socket.socketpair()
    with FrameSocket(left_sock) as left, FrameSocket(right_sock) as right:
        left.send_preamble(FLAG_FLEET | 0x4000)
        flags = right.recv_preamble(Deadline(5.0))
        assert flags & FLAG_FLEET
        assert flags & 0x4000


def test_send_frames_is_byte_identical_to_sequential_sends():
    # Enough frames to exercise the _SENDMSG_FRAMES chunking and the
    # varying sizes that make partial-iov resumption plausible.
    frames = [encode_frame(RECORD_BATCH, [{"kind": "event", "n": n,
                                           "pad": "y" * (n * 13 % 97)}])
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
    frame = encode_frame(RECORD_BATCH, [{"kind": "event", "n": 1}])
    left_sock, right_sock = socket.socketpair()
    with FrameSocket(left_sock) as left, FrameSocket(right_sock) as right:
        left.send_frame(RECORD_BATCH, [{"kind": "event", "n": 1}])
        assert left.bytes_sent == len(frame)
        assert right.recv_frame(Deadline(5.0))[0] == RECORD_BATCH
        assert right.bytes_received == len(frame)


# -- batch bounds against a live publisher ------------------------------------


def _publish_all(publisher, execution):
    """Publish the whole execution up front (the spool replays it to
    every late subscriber)."""
    publisher.write_state(execution.initial_state)
    for shard in _shards(execution):
        publisher.write_epoch(shard.trace, shard.reports)
    publisher.write_end()


def _batch_bounds(monkeypatch, records, payload_bytes=256 * 1024):
    monkeypatch.setattr(publisher_mod, "BATCH_RECORDS", records)
    monkeypatch.setattr(publisher_mod, "BATCH_BYTES", payload_bytes)


def test_small_batches_audit_identically_to_the_file(counter_app,
                                                     epoch_execution,
                                                     tmp_path,
                                                     monkeypatch):
    """Tiny batch bounds force flushes that do not line up with epoch
    seals; the yielded slices and verdict must not care."""
    reference = _file_audit(counter_app, epoch_execution, tmp_path)
    shards = _shards(epoch_execution)
    _batch_bounds(monkeypatch, 3, 512)
    with BundlePublisher() as publisher:
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
                                               epoch_execution,
                                               monkeypatch):
    def measure(records):
        _batch_bounds(monkeypatch, records)
        with BundlePublisher() as publisher:
            _publish_all(publisher, epoch_execution)
            with RemoteBundleReader(publisher.endpoint,
                                    idle_timeout=20) as reader:
                result = Auditor(counter_app, AuditConfig()).audit_epochs(
                    reader.epochs(), reader.initial_state
                )
                assert result.accepted
                return reader.wire_bytes_received
    one_by_one = measure(1)
    batched = measure(64)
    assert 0 < batched < one_by_one


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
        counter_app, epoch_execution, tmp_path, monkeypatch):
    """Streaming the persisted bundle's raw lines through
    ``write_record_payload`` (never decoding them) must deliver the
    same audit as reading the bundle from disk."""
    reference = _file_audit(counter_app, epoch_execution, tmp_path)
    path = _save_bundle(epoch_execution, tmp_path)
    _batch_bounds(monkeypatch, 8)
    with BundlePublisher() as publisher:

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


def test_wire_bytes_of_a_wiki_bundle_are_pinned(tmp_path):
    """The wire encoding, as an exact count: a 2,000-request wiki
    bundle in epochs of 50, its raw lines replayed through
    ``write_record_payload`` under the default batch bounds, crosses the
    socket as 3,019,413 bytes for its 4,000 events (754.9 B/event;
    3,572,574 before the report records became format v2's positional
    rows).  A change to the frame format, the batching or the record
    lines moves it.  The bundle is published before the auditor attaches: an attach
    mid-stream flushes the pending batch early and its HELLO says
    ``"ended": false``, so a concurrent replay's count depends on when
    the auditor connected."""
    execution = run_online_phase(wiki_workload(scale=0.1), seed=1,
                                 epoch_size=50)
    path = _save_bundle(execution, tmp_path)
    with BundlePublisher() as publisher:
        with open(path, "rb") as fh:
            for line in fh:
                kind = record_kind(line)
                if kind is not None:  # skip the header line
                    publisher.write_record_payload(line, kind=kind)
        with RemoteBundleReader(publisher.endpoint,
                                idle_timeout=30) as reader:
            reader.read_initial_state()
            events = sum(len(epoch.trace) for epoch in reader.epochs())
            assert (events, reader.wire_bytes_received) == (4000,
                                                            3_019_413)


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
            fsock.send_preamble()
            fsock.send_frame(HELLO, {
                "format": JSONL_FORMAT, "version": FORMAT_VERSION,
                "layout": SEGMENTED_LAYOUT, "from_epoch": 0,
                "spool_start": 0, "ended": False,
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
