"""The framed-JSONL wire format (repro.net.protocol)."""

from __future__ import annotations

import pytest

from repro.net.protocol import (
    HELLO,
    MAX_FRAME_PAYLOAD,
    RECORD_BATCH,
    ProtocolError,
    TransportError,
    decode_frame,
    encode_frame,
    parse_endpoint,
)


# -- endpoints ----------------------------------------------------------------


def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_endpoint("recorder.example:0") == ("recorder.example", 0)
    assert parse_endpoint("[::1]:80") == ("::1", 80)


@pytest.mark.parametrize("bad", [
    "nohost", "host:", "host:abc", "host:-1", "host:70000", ":9000", 9000,
    "::1",  # port-less IPv6 literal must not misparse as ("::", 1)
])
def test_parse_endpoint_rejects(bad):
    with pytest.raises(ValueError):
        parse_endpoint(bad)


# -- frames -------------------------------------------------------------------


def test_frame_roundtrip():
    payload = [{"kind": "event", "event": {"x": [1, 2, "three"]}}]
    frame = encode_frame(RECORD_BATCH, payload)
    kind, decoded, consumed = decode_frame(frame)
    assert kind == RECORD_BATCH
    assert decoded == payload
    assert consumed == len(frame)


def test_frame_roundtrip_with_trailing_bytes():
    frame = encode_frame(HELLO, {"a": 1})
    kind, decoded, consumed = decode_frame(frame + b"garbage-after")
    assert kind == HELLO and decoded == {"a": 1}
    assert consumed == len(frame)


def test_bad_crc_rejected():
    frame = bytearray(encode_frame(RECORD_BATCH,
                                   [{"kind": "end", "events": 3}]))
    frame[7] ^= 0xFF  # flip a payload byte; CRC no longer matches
    with pytest.raises(ProtocolError, match="CRC"):
        decode_frame(bytes(frame))


def test_corrupted_kind_rejected():
    frame = bytearray(encode_frame(RECORD_BATCH, [{"kind": "end"}]))
    # 0x03 is the retired one-record RECORD: as unknown as any other.
    for kind in (0x7F, 0x03):
        frame[0] = kind
        with pytest.raises(ProtocolError, match="unknown frame kind"):
            decode_frame(bytes(frame))


def test_absurd_length_rejected():
    import struct

    header = struct.pack("!BI", RECORD_BATCH, MAX_FRAME_PAYLOAD + 1)
    with pytest.raises(ProtocolError, match="exceeds"):
        decode_frame(header + b"\x00" * 64)


def test_torn_frame_is_transport_error():
    frame = encode_frame(RECORD_BATCH, [{"kind": "end", "events": 0}])
    for cut in (0, 3, len(frame) - 1):
        with pytest.raises(TransportError, match="truncated"):
            decode_frame(frame[:cut])


def test_mid_frame_stall_is_truncation_not_idleness():
    """A peer that goes quiet halfway through a frame is truncating the
    stream (resume territory), not idling between records."""
    import socket

    from repro.common.clock import Deadline
    from repro.net.protocol import FrameSocket, IdleTimeout

    left, right = socket.socketpair()
    try:
        reader = FrameSocket(right)
        # Quiet at a frame boundary: a plain idle timeout.
        with pytest.raises(IdleTimeout):
            reader.recv_frame(Deadline(0.05))
        # Quiet mid-frame: truncation, surfaced as TransportError (and
        # never as the IdleTimeout subclass).
        frame = encode_frame(RECORD_BATCH, [{"kind": "end", "events": 0}])
        left.sendall(frame[:len(frame) - 2])
        try:
            reader.recv_frame(Deadline(0.05))
        except IdleTimeout:  # pragma: no cover - the bug this guards
            pytest.fail("mid-frame stall reported as idleness")
        except TransportError as exc:
            assert "mid-frame" in str(exc)
        else:  # pragma: no cover
            pytest.fail("truncated frame not detected")
    finally:
        left.close()
        right.close()


def test_non_json_payload_rejected():
    import struct
    import zlib

    payload = b"\xff\xfenot json"
    crc = zlib.crc32(bytes([RECORD_BATCH]) + payload) & 0xFFFFFFFF
    frame = (struct.pack("!BI", RECORD_BATCH, len(payload)) + payload
             + struct.pack("!I", crc))
    with pytest.raises(ProtocolError, match="not JSON"):
        decode_frame(frame)
