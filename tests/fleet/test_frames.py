"""The fleet wire vocabulary: FLAG_FLEET, WORK/RESULT/WORKER_HELLO/
WORKER_BYE frame kinds, and the epoch work-unit codec shared with the
local process pool (:mod:`repro.core.epochwork`)."""

from __future__ import annotations

import json

import pytest

from repro.common.errors import RejectReason
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
    encode_frame_payload,
)
from repro.server.reports import Reports
from repro.trace.trace import Trace


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
    payload = json.dumps({"app": {}, "records": [1, 2, 3]}).encode()
    body = encode_work_frame(7, payload)
    # The unit's bytes are spliced in as they are, never re-encoded.
    assert payload in body
    _, obj, _ = decode_frame(encode_frame_payload(WORK, body))
    epoch, unit = decode_work_frame(obj)
    assert epoch == 7
    assert unit == json.loads(payload)


@pytest.mark.parametrize("bad", [
    "not a dict",
    {},
    {"epoch": "seven", "unit": ""},
    {"epoch": 1},
    {"epoch": 1, "unit": "!!! not an object !!!"},
    {"epoch": 1, "unit": 42},
])
def test_work_frame_decode_rejects_malformed_bodies(bad):
    with pytest.raises(ValueError):
        decode_work_frame(bad)


def test_result_frame_roundtrip_preserves_the_audit_result():
    result = AuditResult(accepted=False,
                         reason=RejectReason.OUTPUT_MISMATCH,
                         detail="boom",
                         phases={"reexec": 0.25, "total": 0.5},
                         stats={"groups": 3, "fallback_requests": 2,
                                "group_alphas": [(2, 0.5, 7)]},
                         produced={"r1": "body"})
    frame = encode_result_frame(5, result)
    _, obj, _ = decode_frame(encode_frame(RESULT, frame))
    epoch, ok, decoded, error = decode_result_frame(obj)
    assert (epoch, ok, error) == (5, True, None)
    # Partial stats survive the wire — a remote REJECT reports the same
    # accounting as a local one, never silently zeroed — and the
    # group alphas are tuples again.
    assert decoded == result
    assert obj["result"]["verdict"] == "REJECTED"
    assert obj["result"]["reason"] == "output_mismatch"


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


def _result_json(**changes) -> dict:
    good = AuditResult(accepted=True, phases={"total": 0.1},
                       stats={"groups": 1, "group_alphas": [(1, 1.0, 4)]},
                       produced={"r1": "ok"}).to_json()
    return {**good, **changes}


@pytest.mark.parametrize("changes", [
    {"accepted": "yes"},
    {"accepted": False},  # the verdict still says ACCEPTED
    {"verdict": "REJECTED", "accepted": False, "reason": "no_such_reason"},
    {"reason": "output_mismatch"},  # a reason on an ACCEPTED verdict
    {"detail": None},
    {"stats": []},
    {"stats": {"groups": "3"}},
    {"stats": {"group_alphas": [[1, 2]]}},
    {"phases": {"total": "fast"}},
    {"produced": {"r1": 7}},
    {"epochs": {}},
    {"rejecting_epoch": "0"},
    {"extra": 1},
])
def test_result_from_json_refuses_what_it_did_not_write(changes):
    """A worker's answer is type-checked field by field; anything the
    verdict schema does not describe is a ValueError, never a verdict."""
    assert AuditResult.from_json(_result_json()).accepted
    with pytest.raises(ValueError):
        AuditResult.from_json(_result_json(**changes))


def test_error_body_without_detail_still_decodes():
    epoch, ok, result, error = decode_result_frame({"epoch": 2,
                                                    "ok": False})
    assert (epoch, ok, result, error) == (2, False, None, "unknown")


def test_work_unit_roundtrips_through_the_bundle_codec(counter_app,
                                                       honest_run):
    """What crosses the process / host boundary is one epoch in the
    bundle's records, the app as its sources and the validated
    AuditConfig: migrate cleared, the rest preserved (the chunk plan
    must follow it bit for bit)."""
    cfg = AuditConfig(strict=False, max_group_size=3, migrate=True,
                      backend="interp")
    unit = encode_work_unit(counter_app, honest_run.trace,
                            honest_run.reports, honest_run.initial_state,
                            epoch_worker_config(cfg))
    app, trace, reports, state, config = decode_work_unit(json.loads(unit))
    assert app.sources == counter_app.sources
    assert app.scripts.keys() == counter_app.scripts.keys()
    assert isinstance(trace, Trace) and isinstance(reports, Reports)
    assert len(trace) == len(honest_run.trace)
    assert reports.op_counts == honest_run.reports.op_counts
    assert state.kv == honest_run.initial_state.kv
    assert isinstance(config, AuditConfig)
    assert config == AuditConfig(strict=False, max_group_size=3,
                                 backend="interp")
    assert config.validate() is config
    # One parsed program per process: the next unit of the same app
    # reuses it (and so its compile caches).
    again = decode_work_unit(json.loads(unit))[0]
    assert again is app


@pytest.mark.parametrize("mangle", [
    lambda unit: [],
    lambda unit: {**unit, "records": {}},
    lambda unit: {**unit, "records": unit["records"][1:]},  # no state
    lambda unit: {**unit, "records": [*unit["records"],
                                      {"kind": "epoch_mark", "events": 1},
                                      unit["records"][1]]},
    lambda unit: {**unit, "records": [*unit["records"], {"kind": "end",
                                                         "events": 0}]},
    lambda unit: {**unit, "app": {**unit["app"], "sources": {"a": 1}}},
    lambda unit: {**unit, "config": {"workers": 2}},
    lambda unit: {**unit, "extra": True},
])
def test_a_unit_that_is_not_one_epoch_does_not_decode(counter_app,
                                                      honest_run, mangle):
    unit = json.loads(encode_work_unit(
        counter_app, honest_run.trace, honest_run.reports,
        honest_run.initial_state, AuditConfig()))
    with pytest.raises(ValueError):
        decode_work_unit(mangle(unit))
