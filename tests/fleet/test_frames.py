"""The fleet wire vocabulary: FLAG_FLEET, WORK/RESULT/WORKER_HELLO/
WORKER_BYE frame kinds, and the epoch work-unit codec shared with the
local process pool (:mod:`repro.core.epochwork`)."""

from __future__ import annotations

import pickle

import pytest

from repro.core.epochwork import (
    decode_result_frame,
    decode_work_frame,
    decode_work_unit,
    encode_error_frame,
    encode_result_frame,
    encode_work_frame,
    encode_work_unit,
    epoch_worker_config,
)
from repro.core.config import AuditConfig
from repro.core.pipeline import AuditResult
from repro.net.protocol import (
    FLAG_FLEET,
    RESULT,
    WORK,
    WORKER_BYE,
    WORKER_HELLO,
    decode_frame,
    encode_frame,
)


def test_flag_fleet_is_its_own_capability_bit():
    # Bit 0 negotiated RECORD_BATCH once; it is retired, never reused.
    assert FLAG_FLEET != 0
    assert FLAG_FLEET & 0x0001 == 0


def test_fleet_frame_kinds_are_distinct_and_known():
    kinds = {WORK, RESULT, WORKER_HELLO, WORKER_BYE}
    assert len(kinds) == 4
    for kind in kinds:
        # encode/decode accepts them — they are registered wire kinds,
        # not ProtocolError bait.
        decoded_kind, obj, consumed = decode_frame(
            encode_frame(kind, {"x": 1}))
        assert decoded_kind == kind
        assert obj == {"x": 1}
        assert consumed > 0


def test_work_frame_roundtrip_carries_raw_payload_bytes():
    payload = pickle.dumps(("anything", [1, 2, 3]))
    frame = encode_work_frame(7, payload)
    # The frame body is plain JSON — it must survive the wire codec.
    _, obj, _ = decode_frame(encode_frame(WORK, frame))
    epoch, decoded = decode_work_frame(obj)
    assert epoch == 7
    assert decoded == payload


@pytest.mark.parametrize("bad", [
    "not a dict",
    {},
    {"epoch": "seven", "unit": ""},
    {"epoch": 1},
    {"epoch": 1, "unit": "!!! not base64 !!!"},
    {"epoch": 1, "unit": 42},
])
def test_work_frame_decode_rejects_malformed_bodies(bad):
    with pytest.raises(ValueError):
        decode_work_frame(bad)


def test_result_frame_roundtrip_preserves_the_audit_result():
    result = AuditResult(accepted=False, detail="boom",
                         stats={"groups": 3, "fallback_requests": 2},
                         produced={"r1": "body"})
    frame = encode_result_frame(5, result)
    _, obj, _ = decode_frame(encode_frame(RESULT, frame))
    epoch, ok, decoded, error = decode_result_frame(obj)
    assert (epoch, ok, error) == (5, True, None)
    assert decoded.accepted is False
    assert decoded.detail == "boom"
    # Partial stats survive the wire — a remote REJECT reports the same
    # accounting as a local one, never silently zeroed.
    assert decoded.stats == {"groups": 3, "fallback_requests": 2}
    assert decoded.produced == {"r1": "body"}


def test_error_frame_roundtrip():
    frame = encode_error_frame(9, "RuntimeError: worker exploded")
    epoch, ok, result, error = decode_result_frame(frame)
    assert (epoch, ok, result) == (9, False, None)
    assert "exploded" in error


@pytest.mark.parametrize("bad", [
    "nope",
    {"epoch": 1, "ok": True},
    {"epoch": 1, "ok": True, "result": "@@@"},
    {"epoch": "x", "ok": True, "result": ""},
])
def test_result_frame_decode_rejects_malformed_bodies(bad):
    with pytest.raises(ValueError):
        decode_result_frame(bad)


def test_error_body_without_detail_still_decodes():
    epoch, ok, result, error = decode_result_frame({"epoch": 2,
                                                    "ok": False})
    assert (epoch, ok, result, error) == (2, False, None, "unknown")


def test_work_unit_roundtrips_through_pickle_codec():
    """What crosses the process / host boundary is the validated
    AuditConfig itself: epoch workers and migrate cleared, the rest
    preserved (the chunk plan must follow it bit for bit)."""
    cfg = AuditConfig(strict=False, max_group_size=3, epoch_workers=2,
                      migrate=True, backend="interp")
    unit = encode_work_unit("app", "trace", "reports", "state",
                            epoch_worker_config(cfg))
    app, trace, reports, state, config = decode_work_unit(unit)
    assert (app, trace, reports, state) == ("app", "trace", "reports",
                                            "state")
    assert isinstance(config, AuditConfig)
    assert config == AuditConfig(strict=False, max_group_size=3,
                                 backend="interp")
    assert config.validate() is config
