"""Serialization round-trips: the audit verdict must be identical whether
the verifier runs on live objects or on a bundle written to disk and
read back."""

from __future__ import annotations

import json

import pytest

from repro.core import ssco_audit
from repro.io import (
    BundleReader,
    save_audit_bundle_segmented,
    state_from_json,
    state_to_json,
)
from repro.server import Application, Executor
from repro.server.faulty import tamper_response
from repro.trace.events import Request


def roundtrip(tmp_path, trace, reports, initial_state, epoch_marks=()):
    """(trace, reports, initial_state, marks) through a bundle file."""
    path = str(tmp_path / "bundle.jsonl")
    save_audit_bundle_segmented(path, trace, reports, initial_state,
                                epoch_marks)
    with BundleReader(path) as reader:
        return reader.read_all()


def test_trace_roundtrip(honest_run, tmp_path):
    restored, _, _, _ = roundtrip(tmp_path, honest_run.trace,
                                  honest_run.reports,
                                  honest_run.initial_state)
    assert len(restored) == len(honest_run.trace)
    for a, b in zip(restored, honest_run.trace):
        assert a.kind == b.kind and a.rid == b.rid
        assert a.payload == b.payload


def test_reports_roundtrip(honest_run, tmp_path):
    _, restored, _, _ = roundtrip(tmp_path, honest_run.trace,
                                  honest_run.reports,
                                  honest_run.initial_state)
    assert restored.groups == honest_run.reports.groups
    assert restored.op_counts == honest_run.reports.op_counts
    assert restored.op_logs == honest_run.reports.op_logs
    assert restored.nondet == honest_run.reports.nondet


def test_state_roundtrip(honest_run):
    data = json.loads(json.dumps(state_to_json(honest_run.initial_state)))
    restored = state_from_json(data)
    original = honest_run.initial_state
    assert restored.kv == original.kv
    assert restored.registers == original.registers
    for name, table in original.db_engine.tables.items():
        twin = restored.db_engine.tables[name]
        assert twin.rows == table.rows
        assert twin.auto_counter == table.auto_counter
        assert twin.columns == table.columns


def test_audit_verdict_survives_roundtrip(counter_app, honest_run,
                                          tmp_path):
    trace, reports, initial, _ = roundtrip(
        tmp_path, honest_run.trace, honest_run.reports,
        honest_run.initial_state)
    live = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                      honest_run.initial_state)
    reloaded = ssco_audit(counter_app, trace, reports, initial)
    assert live.accepted and reloaded.accepted
    assert live.produced == reloaded.produced


def test_tampered_bundle_still_rejected(counter_app, honest_run,
                                        tmp_path):
    trace, reports, initial, _ = roundtrip(
        tmp_path,
        tamper_response(honest_run.trace, "r000", "forged"),
        honest_run.reports,
        honest_run.initial_state,
    )
    assert not ssco_audit(counter_app, trace, reports, initial).accepted


def test_externals_roundtrip(tmp_path):
    app = Application.from_sources("m", {
        "s.php": "send_email('a@b.c', 'subj', 'body'); echo 'ok';",
    })
    run = Executor(app).serve([Request("r1", "s.php")])
    restored, reports, _, _ = roundtrip(tmp_path, run.trace, run.reports,
                                        run.initial_state)
    externals = restored.externals()["r1"]
    assert externals[0].service == "email"
    assert externals[0].content == ("a@b.c", "subj", "body")
    assert ssco_audit(app, restored, reports, run.initial_state).accepted


def test_frozen_array_values_roundtrip(tmp_path):
    """Session arrays stored in registers are nested frozen tuples; the
    tagged encoding must preserve them exactly (tuples, not lists)."""
    app = Application.from_sources("m", {
        "s.php": """
$s = session_get();
if (is_null($s)) { $s = ['n' => 0, 'tags' => ['a', 'b']]; }
$s['n'] = $s['n'] + 1;
session_put($s);
echo $s['n'];
""",
    })
    run = Executor(app).serve([
        Request("r1", "s.php", cookies={"sess": "u"}),
        Request("r2", "s.php", cookies={"sess": "u"}),
    ])
    _, restored, _, _ = roundtrip(tmp_path, run.trace, run.reports,
                                  run.initial_state)
    log = restored.op_logs["reg:sess:u"]
    assert log == run.reports.op_logs["reg:sess:u"]
    # And the reloaded reports still audit.
    assert ssco_audit(app, run.trace, restored,
                      run.initial_state).accepted


def test_version_check(tmp_path):
    with pytest.raises(ValueError, match="version 99"):
        state_from_json({"version": 99, "tables": {}, "kv": {},
                         "registers": {}})
    path = tmp_path / "future.jsonl"
    path.write_text('{"format": "ssco-jsonl", "version": null, '
                    '"layout": "segmented"}\n')
    with pytest.raises(ValueError, match="version None"):
        BundleReader(str(path))


def test_bundle_file_is_plain_json(honest_run, tmp_path):
    """One JSON object per line: a header naming format, version and
    layout, then records that each lead with their kind."""
    path = str(tmp_path / "bundle.jsonl")
    save_audit_bundle_segmented(path, honest_run.trace, honest_run.reports,
                                honest_run.initial_state)
    with open(path) as fh:
        header, *records = [json.loads(line) for line in fh]
    assert header == {"format": "ssco-jsonl", "version": 2,
                      "layout": "segmented"}
    assert [r["kind"] for r in records[:1] + records[-1:]] == [
        "state", "end"]
    assert all(next(iter(record)) == "kind" for record in records)
