"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import json
import os
import pathlib
import re

import pytest

from repro.__main__ import build_parser, main
from repro.core.reexec import BACKENDS
from tests.conftest import untimed


def _forge_first_body(bundle: str) -> None:
    """Tamper the first non-empty response body of a recorded bundle."""
    with open(bundle) as fh:
        records = [json.loads(line) for line in fh]
    for record in records:
        entry = record.get("event", {})
        if "response" in entry and entry["response"]["body"]:
            entry["response"]["body"] = "forged!"
            break
    with open(bundle, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


def test_demo_accepts(capsys):
    code = main(["demo", "--workload", "forum", "--scale", "0.005"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ACCEPTED" in out
    assert "speedup" in out
    # classes=<multi_classes>/<multi_slots> beside alpha=: what is left
    # of the per-request SIMD work once requests that agree share it.
    classes, slots = map(int, re.search(
        r" alpha=\S+ classes=(\d+)/(\d+) ", out).groups())
    assert 0 < classes < slots


def test_record_then_audit(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", "--workload", "wiki", "--scale", "0.005",
                 "--out", bundle]) == 0
    assert main(["audit", bundle, "--workload", "wiki",
                 "--scale", "0.005", "--baseline"]) == 0
    out = capsys.readouterr().out
    assert "ACCEPTED" in out
    assert "simple re-execution baseline: ACCEPTED" in out


@pytest.mark.parametrize("epoch_size", [None, 20])
def test_record_audit_round_trip_reports_recorded_epochs(tmp_path, capsys,
                                                         epoch_size):
    """``record`` writes the one layout and ``audit`` follows its
    epochs: ``shard_count`` is the number of epochs recorded, whether
    or not the file is still being followed or a baseline is asked."""
    bundle = str(tmp_path / "bundle.jsonl")
    wiki = ["--workload", "wiki", "--scale", "0.005"]
    drain = ["--epoch-size", str(epoch_size)] if epoch_size else []
    assert main(["record", *wiki, *drain, "--out", bundle]) == 0
    wrote = capsys.readouterr().out.splitlines()[-1]
    recorded = int(wrote.split(" epoch(s)")[0].split()[-1])
    assert recorded == 1 if epoch_size is None else recorded > 1
    for extra in ([], ["--follow"], ["--baseline"],
                  ["--follow", "--baseline"]):
        assert main(["audit", bundle, *wiki, "--json", *extra]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["shard_count"] == recorded
        assert len(payload["epochs"]) == recorded
        assert ("baseline" in payload) == ("--baseline" in extra)
        if "baseline" in payload:
            assert payload["baseline"]["accepted"] is True


def test_record_has_no_format_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as usage:
        main(["record", "--workload", "wiki", "--scale", "0.005",
              "--format", "json", "--out", str(tmp_path / "b")])
    assert usage.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_audit_rejects_tampered_bundle(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.jsonl")
    main(["record", "--workload", "wiki", "--scale", "0.005",
          "--out", bundle])
    _forge_first_body(bundle)
    code = main(["audit", bundle, "--workload", "wiki",
                 "--scale", "0.005"])
    assert code == 1
    assert "REJECTED" in capsys.readouterr().out


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["demo", "--workload", "nope"])


def test_demo_parallel_and_epochs(capsys):
    code = main(["demo", "--workload", "forum", "--scale", "0.005",
                 "--epoch-workers", "2", "--epoch-size", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ACCEPTED" in out
    assert "shards=" in out


def test_record_jsonl_then_sharded_parallel_audit(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", "--workload", "wiki", "--scale", "0.005",
                 "--epoch-size", "20", "--out", bundle]) == 0
    assert main(["audit", bundle, "--workload", "wiki",
                 "--scale", "0.005", "--epoch-workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "ACCEPTED" in out
    assert "epoch 1: ACCEPTED" in out and "epoch(s)" in out


def test_audit_knob_passthrough(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.jsonl")
    main(["record", "--workload", "forum", "--scale", "0.005",
          "--out", bundle])
    assert main(["audit", bundle, "--workload", "forum",
                 "--scale", "0.005", "--no-strict", "--no-dedup",
                 "--no-collapse", "--max-group-size", "50"]) == 0
    assert "ACCEPTED" in capsys.readouterr().out


def test_audit_rejects_tampered_jsonl_bundle(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.jsonl")
    main(["record", "--workload", "wiki", "--scale", "0.005",
          "--epoch-size", "20", "--out", bundle])
    _forge_first_body(bundle)
    code = main(["audit", bundle, "--workload", "wiki",
                 "--scale", "0.005", "--epoch-workers", "2"])
    assert code == 1
    assert "REJECTED" in capsys.readouterr().out


# -- the AuditConfig-driven flag set ------------------------------------------


def test_audit_workers_flag_is_canonical(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.jsonl")
    main(["record", "--workload", "forum", "--scale", "0.005",
          "--out", bundle])
    assert main(["audit", bundle, "--workload", "forum",
                 "--scale", "0.005", "--epoch-workers", "2"]) == 0
    captured = capsys.readouterr()
    assert "epoch_workers=2" in captured.out
    assert "deprecated" not in captured.err


def test_removed_worker_aliases_are_rejected(tmp_path, capsys):
    """--epoch-workers is the one way to audit in parallel: the group
    pool's --workers, its old --parallel alias and audit's
    --concurrency alias are usage errors now."""
    bundle = str(tmp_path / "bundle.jsonl")
    main(["record", "--workload", "forum", "--scale", "0.005",
          "--out", bundle])
    for flag in ("--parallel", "--concurrency", "--workers"):
        with pytest.raises(SystemExit) as usage:
            main(["audit", bundle, "--workload", "forum",
                  "--scale", "0.005", flag, "2"])
        assert usage.value.code == 2
        assert flag in capsys.readouterr().err


def test_audit_backend_flag(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.jsonl")
    main(["record", "--workload", "forum", "--scale", "0.005",
          "--out", bundle])
    assert main(["audit", bundle, "--workload", "forum",
                 "--scale", "0.005", "--backend", "interp"]) == 0
    out = capsys.readouterr().out
    assert "backend=interp" in out
    assert "ACCEPTED" in out
    with pytest.raises(SystemExit):
        main(["audit", bundle, "--workload", "forum",
              "--scale", "0.005", "--backend", "bogus"])


def test_backend_flag_takes_exactly_the_backend_table():
    parser = build_parser()
    assert sorted(BACKENDS) == ["accinterp", "compinterp", "hybrid",
                                "interp"]
    for name in BACKENDS:
        assert parser.parse_args(
            ["audit", "bundle.jsonl", "--backend", name]).backend == name


def test_retired_planner_switch_is_an_unknown_flag(tmp_path, capsys):
    """The chunk plan takes no hints: the old switch is a usage error
    before the bundle is opened."""
    with pytest.raises(SystemExit) as usage:
        main(["audit", str(tmp_path / "never-opened.jsonl"),
              "--workload", "hotcrp", "--scale", "0.02", "--no-strict",
              "--plan-hints"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --plan-hints" in capsys.readouterr().err


def test_audit_epoch_workers(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", "--workload", "forum", "--scale", "0.005",
                 "--epoch-size", "20", "--out", bundle]) == 0
    assert main(["audit", bundle, "--workload", "forum",
                 "--scale", "0.005", "--epoch-workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "epoch_workers=2" in out
    assert "ACCEPTED" in out
    assert "epoch(s)" in out
    # Nonsense worker counts are rejected at the boundary.
    with pytest.raises(SystemExit):
        main(["audit", bundle, "--workload", "forum",
              "--scale", "0.005", "--epoch-workers", "0"])


#: The auditor's two epoch-boundary flags, gone with its right to choose
#: boundaries: the recorder cuts epochs, once.
STALE_EPOCH_FLAGS = (["--epoch-size", "20"], ["--epoch-cuts", "40,80"])


def test_stale_epoch_flags_are_usage_errors(tmp_path, capsys):
    """``--epoch-size`` belongs to the subcommands that record; on
    ``audit`` / ``query`` / ``explain`` it is an argparse error, like
    ``--epoch-cuts`` everywhere — with ``--follow`` / ``--connect`` too,
    and in ``--help``."""
    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", *FORUM, "--epoch-size", "20",
                 "--out", bundle]) == 0
    capsys.readouterr()
    commands = (["audit", bundle], ["audit", bundle, "--follow"],
                ["audit", "--connect", "127.0.0.1:1"],
                ["query", bundle, "kv:k", "--as-of", "0"],
                ["explain", bundle, "f000001"])
    for command in commands:
        for stale in STALE_EPOCH_FLAGS:
            with pytest.raises(SystemExit) as usage:
                main([*command, *FORUM, *stale])
            assert usage.value.code == 2, (command, stale)
            err = capsys.readouterr().err
            assert "unrecognized arguments" in err and stale[0] in err
        with pytest.raises(SystemExit):
            main([command[0], "--help"])
        text = capsys.readouterr().out
        # Where epochs run: a flag of the one command that audits them.
        assert ("--epoch-workers" in text) == (command[0] == "audit")
        assert "--epoch-size" not in text and "--epoch-cuts" not in text
    for command in ("demo", "record", "serve", "synth"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        assert "--epoch-size" in text and "--epoch-cuts" not in text
        assert "re-cut" not in text


def test_stale_epoch_keys_in_a_config_file_are_usage_errors(tmp_path,
                                                           capsys):
    """A saved audit config that still carries one of the two keys is
    refused by name (exit 2), not silently audited at the recorded
    epochs."""
    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", *FORUM, "--out", bundle]) == 0
    config = tmp_path / "audit.json"
    for flag, value in STALE_EPOCH_FLAGS:
        key = flag.lstrip("-").replace("-", "_")
        config.write_text(json.dumps({"strict": True, key: value}))
        for command in (["audit", bundle], ["audit", bundle, "--follow"],
                        ["explain", bundle, "f000001"]):
            capsys.readouterr()
            with pytest.raises(SystemExit) as usage:
                main([*command, *FORUM, "--config", str(config)])
            assert usage.value.code == 2, (command, key)
            assert f"unknown audit config keys: {key} " in \
                capsys.readouterr().err


def test_audit_config_file_with_flag_override(tmp_path, capsys):
    import json as _json

    bundle = str(tmp_path / "bundle.jsonl")
    config_path = str(tmp_path / "audit.json")
    main(["record", "--workload", "forum", "--scale", "0.005",
          "--out", bundle])
    with open(config_path, "w") as fh:
        _json.dump({"max_group_size": 50, "backend": "interp"}, fh)
    assert main(["audit", bundle, "--workload", "forum",
                 "--scale", "0.005", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "max_group=50" in out and "backend=interp" in out
    # An explicit flag overrides the file.
    assert main(["audit", bundle, "--workload", "forum",
                 "--scale", "0.005", "--config", config_path,
                 "--max-group-size", "40"]) == 0
    out = capsys.readouterr().out
    assert "max_group=40" in out and "backend=interp" in out
    # Typos in the file are an immediate CLI error.
    with open(config_path, "w") as fh:
        _json.dump({"workerz": 2}, fh)
    with pytest.raises(SystemExit):
        main(["audit", bundle, "--workload", "forum",
              "--scale", "0.005", "--config", config_path])


def test_record_segmented_then_audit_follow(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", "--workload", "wiki", "--scale", "0.005",
                 "--epoch-size", "20", "--out", bundle]) == 0
    assert main(["audit", bundle, "--workload", "wiki",
                 "--scale", "0.005", "--follow"]) == 0
    out = capsys.readouterr().out
    assert "epoch 0: ACCEPTED" in out
    assert "epoch(s)" in out


def test_audit_follow_rejects_tampered_epoch(tmp_path, capsys):
    import json as _json

    bundle = str(tmp_path / "bundle.jsonl")
    main(["record", "--workload", "wiki", "--scale", "0.005",
          "--epoch-size", "20", "--out", bundle])
    with open(bundle) as fh:
        lines = fh.readlines()
    for index, line in enumerate(lines):
        record = _json.loads(line)
        if record.get("kind") == "event" and "response" in record["event"]:
            if record["event"]["response"]["body"]:
                record["event"]["response"]["body"] = "forged!"
                lines[index] = _json.dumps(record) + "\n"
                break
    with open(bundle, "w") as fh:
        fh.writelines(lines)
    assert main(["audit", bundle, "--workload", "wiki",
                 "--scale", "0.005", "--follow"]) == 1
    out = capsys.readouterr().out
    assert "epoch 0: REJECTED" in out
    assert "REJECTED: output_mismatch" in out


#: Files that exist but are not segmented v1 bundles, and what the
#: verdict says was found in their place.
NOT_A_BUNDLE = {
    "legacy blob": (json.dumps({"version": 1, "trace": {
        "version": 1, "events": []}, "reports": {}, "initial_state": {}}),
        "legacy one-blob JSON bundle"),
    "tail-reports layout": (
        '{"format": "ssco-jsonl", "version": 1}\n'
        '{"kind": "epoch_mark", "events": 4}\n', "tail-reports layout"),
    "foreign": ("id,name\n1,widget\n", "starts with 'id,name"),
    "empty": ("", "is empty"),
}
FORUM = ["--workload", "forum", "--scale", "0.005"]


def test_audit_follow_requires_jsonl(tmp_path, capsys):
    """Every audit of a file — followed or not, text or ``--json`` —
    requires the one layout: anything else that exists is the
    executor's malformed word (REJECTED, exit 1, naming what was
    found), not a usage error and not a traceback."""
    bundle = str(tmp_path / "bundle")
    follow = ["--follow", "--follow-timeout", "0.05"]
    for what, (content, found) in NOT_A_BUNDLE.items():
        with open(bundle, "w") as fh:
            fh.write(content)
        for extra in ([], follow, ["--json"], follow + ["--json"]):
            assert main(["audit", bundle, *FORUM, *extra]) == 1, what
            captured = capsys.readouterr()
            assert captured.err == ""
            if "--json" in extra:
                payload = json.loads(captured.out)
                assert payload["reason"] == "malformed_bundle"
                assert found in payload["detail"], what
            else:
                assert captured.out.startswith(
                    "REJECTED: malformed_bundle: ValueError: not a "
                    "segmented ssco-jsonl bundle"), what
                assert found in captured.out and bundle in captured.out


def test_audit_unreadable_bundle_exits_2(tmp_path, capsys):
    """A path that cannot be read is the operator's mistake: one line
    on stderr and exit 2 on every road, never a traceback."""
    missing = str(tmp_path / "missing.jsonl")
    for extra in ([], ["--json"], ["--baseline"],
                  ["--follow", "--follow-timeout", "0.05"]):
        assert main(["audit", missing, *FORUM, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: cannot read bundle {missing}: ")
        assert len(captured.err.splitlines()) == 1
    assert main(["audit", str(tmp_path), *FORUM]) == 2  # a directory
    assert "cannot read bundle" in capsys.readouterr().err


def test_audit_flags_a_live_stream_cannot_honour_are_usage_errors(
        capsys):
    """--baseline re-reads a bundle file: on a socket stream, which
    leaves none behind, it is refused, not silently ignored.  (The other
    two flags a stream could not honour, the auditor-side re-cut, are
    gone from every audit: test_stale_epoch_flags_are_usage_errors.)"""
    with pytest.raises(SystemExit) as usage:
        main(["audit", "--connect", "127.0.0.1:1", "--baseline", *FORUM])
    assert usage.value.code == 2
    assert "--baseline" in capsys.readouterr().err


def test_audit_recut_and_baseline_are_honoured_on_a_file(tmp_path,
                                                         capsys):
    """On a file --baseline runs after the verdict, with --follow too,
    and changes nothing else in the payload.  (There is no re-cut to
    honour: the epochs are the recorder's, see
    test_stale_epoch_flags_are_usage_errors.)"""
    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", *FORUM, "--epoch-size", "20",
                 "--out", bundle]) == 0
    audit = ["audit", bundle, *FORUM, "--json"]

    def run(*extra):
        capsys.readouterr()
        assert main(audit + list(extra)) == 0
        return json.loads(capsys.readouterr().out)

    recorded = run()
    assert len(recorded["epochs"]) >= 3
    followed = run("--follow", "--baseline")
    assert followed["baseline"]["accepted"] is True
    assert untimed(followed, "baseline") == untimed(recorded)


def test_demo_accepts_workers_flag(capsys):
    code = main(["demo", "--workload", "forum", "--scale", "0.005",
                 "--epoch-workers", "2", "--epoch-size", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ACCEPTED" in out
    assert "epoch_workers=2" in out
    assert "shards=" in out


def test_audit_prepass_depth_and_epoch_threads(tmp_path, capsys):
    """--epoch-workers reaches the banner beside the config's
    describe() line; the removed --prepass-depth and --epoch-threads
    flags are usage errors naming the flag."""
    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", "--workload", "forum", "--scale", "0.005",
                 "--epoch-size", "20", "--out", bundle]) == 0
    assert main(["audit", bundle, "--workload", "forum",
                 "--scale", "0.005", "--epoch-workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "epoch_workers=2" in out
    assert "ACCEPTED" in out
    for removed in (["--prepass-depth", "2"], ["--epoch-threads"]):
        with pytest.raises(SystemExit) as usage:
            main(["audit", bundle, "--workload", "forum",
                  "--scale", "0.005", "--epoch-workers", "2", *removed])
        assert usage.value.code == 2
        assert removed[0] in capsys.readouterr().err


# -- untrusted report scalars --------------------------------------------------


def _forge_scalar(bundle: str, field: str, value) -> None:
    """Replace one op count (``field="count"``) or one op-log record's
    opnum (``field="opnum"``) in a recorded bundle."""
    def forge(record: dict) -> bool:
        if field == "count" and record.get("counts"):
            record["counts"][0] = value
            return True
        if field == "opnum" and record.get("kind") == "op_log":
            record["rows"][1] = value  # row 0: [rid_i, opnum, ...]
            return True
        return False

    with open(bundle) as fh:
        records = [json.loads(line) for line in fh]
    assert any(forge(record) for record in records)
    with open(bundle, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


@pytest.mark.parametrize("output", ["json", "text"])
@pytest.mark.parametrize("field", ["count", "opnum"])
@pytest.mark.parametrize("value", ["3", 2.5, None, [1]])
def test_audit_rejects_non_integer_report_scalars(tmp_path, capsys,
                                                  output, field, value):
    """A count or an opnum that is not an integer is the executor's
    malformed word: ``repro audit`` answers REJECTED (exit 1) and says
    what it found, as text and as ``--json`` — it does not die of a
    TypeError."""
    bundle = str(tmp_path / "bundle")
    assert main(["record", "--workload", "forum", "--scale", "0.005",
                 "--epoch-size", "20", "--out", bundle]) == 0
    _forge_scalar(bundle, field, value)
    audit = ["audit", bundle, "--workload", "forum", "--scale", "0.005"]
    capsys.readouterr()
    assert main(audit + ["--json"] * (output == "json")) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    if output == "json":
        payload = json.loads(captured.out)
        assert payload["verdict"] == "REJECTED" and not payload["accepted"]
        assert payload["reason"] == "malformed_bundle"
        assert repr(value) in payload["detail"]
        return
    what = "op count" if field == "count" else "opnum"
    banner, verdict = captured.out.splitlines()
    assert banner.startswith(f"auditing {bundle} against ")
    assert verdict.startswith("REJECTED: malformed_bundle: ValueError")
    assert what in verdict and repr(value) in verdict
    assert "not an integer" in verdict


def _with_rid(kind: str, rid) -> list[str]:
    """The cart fixture's lines, the first ``kind`` record naming
    ``rid`` where it names a request."""
    with open(FIXTURE) as fh:  # the cart fixture, defined below
        lines = fh.readlines()
    for at, line in enumerate(lines):
        record = json.loads(line)
        if record.get("kind") != kind:
            continue
        if kind == "event":
            payload = [v for v in record["event"].values()
                       if isinstance(v, dict)][0]
            payload["rid"] = rid
        else:
            record["rids"][0] = rid
        lines[at] = json.dumps(record) + "\n"
        return lines
    raise AssertionError(kind)


@pytest.mark.parametrize("rid", [["x"], {"x": 1}, 7])
@pytest.mark.parametrize("kind", ["event", "group", "op_log", "op_counts",
                                  "nondet"])
def test_audit_rejects_a_rid_that_is_not_a_string(tmp_path, capsys, kind,
                                                  rid):
    """Every record that names a request names it by a string: a rid
    that is a JSON array, object or number is the executor's malformed
    word (REJECTED: malformed_bundle, exit 1) — not an unhashable-type
    traceback from the checks that key maps by it."""
    bundle = tmp_path / "bundle.jsonl"
    bundle.write_text("".join(_with_rid(kind, rid)))
    capsys.readouterr()
    assert main(["audit", str(bundle), "--workload", "cart",
                 "--scale", "0.05", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["reason"] == "malformed_bundle"
    assert payload["detail"].startswith("ValueError: ")
    assert payload["detail"].endswith(", not a string")


def _with_request_field(field: str, value: object) -> list[str]:
    """The cart fixture's lines, the first request's ``field`` (``get``,
    ``post`` or ``cookies``) set to ``value``."""
    with open(FIXTURE) as fh:
        lines = fh.readlines()
    for at, line in enumerate(lines):
        record = json.loads(line)
        if record.get("kind") == "event" \
                and record["event"]["kind"] == "REQUEST":
            record["event"]["request"][field] = value
            lines[at] = json.dumps(record) + "\n"
            return lines
    raise AssertionError(field)


def _malformed_request_field(out: str, field: str) -> None:
    payload = json.loads(out)
    assert payload["reason"] == "malformed_bundle"
    assert payload["detail"].startswith(f"ValueError: request {field} ")
    assert payload["detail"].endswith(", not an object")


@pytest.mark.parametrize("field, value", [("get", [1]), ("post", "x"),
                                          ("cookies", 5)])
def test_audit_rejects_a_request_field_that_is_not_an_object(
        tmp_path, capsys, field, value):
    """A request's ``get`` / ``post`` / ``cookies`` is a JSON object:
    any other JSON value is the executor's malformed word (REJECTED:
    malformed_bundle, exit 1), whether or not the script reads it — not
    an ``AttributeError`` traceback out of the re-execution."""
    bundle = tmp_path / "bundle.jsonl"
    bundle.write_text("".join(_with_request_field(field, value)))
    capsys.readouterr()
    assert main(["audit", str(bundle), "--workload", "cart",
                 "--scale", "0.05", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    _malformed_request_field(captured.out, field)


def test_audit_connect_rejects_a_request_field_that_is_not_an_object(
        capsys):
    """The same refusal over ``audit --connect``."""
    from repro.io import record_kind
    from repro.net import BundlePublisher

    lines = [line.encode().rstrip(b"\n")
             for line in _with_request_field("get", [1])]
    with BundlePublisher(heartbeat_interval=None) as publisher:
        for line in lines[1:]:  # the publisher sends its own header
            publisher.write_record_payload(line, kind=record_kind(line))
        capsys.readouterr()
        code = main(["audit", "--connect", publisher.endpoint,
                     "--workload", "cart", "--scale", "0.05", "--json"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    _malformed_request_field(captured.out, "get")


#: A line nested far past the JSON decoder's recursion limit.
DEEP_LINE = "[" * 50_000 + "\n"


@pytest.mark.parametrize("road", ["file", "follow"])
def test_audit_a_record_nested_past_the_decoder(tmp_path, capsys, road):
    """A record line nesting 50,000 arrays is the executor's malformed
    word (REJECTED, exit 1), read whole or followed — not a traceback
    out of the decoder's recursion."""
    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", *FORUM, "--epoch-size", "20",
                 "--out", bundle]) == 0
    with open(bundle) as fh:
        lines = fh.readlines()
    with open(bundle, "w") as fh:
        fh.writelines(lines[:3] + [DEEP_LINE] + lines[3:])
    capsys.readouterr()
    follow = ["--follow", "--follow-timeout", "0.2"] if road == "follow" \
        else []
    assert main(["audit", bundle, *FORUM, *follow, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["reason"] == "malformed_bundle"
    assert payload["detail"] == "ValueError: record nests too deep to decode"


def _forge_later_epoch_count(bundle: str) -> None:
    """Make an op count of the bundle's *third* epoch a string."""
    with open(bundle) as fh:
        records = [json.loads(line) for line in fh]
    third = [r for r in records if r.get("kind") == "op_counts"][2]
    third["counts"][0] = "3"
    with open(bundle, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


@pytest.mark.parametrize("as_json", [False, True])
def test_audit_follow_rejects_a_malformed_record(tmp_path, capsys,
                                                 as_json):
    """A record that does not decode in the middle of a followed bundle
    is a verdict, reported after the epochs before it settled — not a
    traceback (a *torn* last line is still waited on, see test_io)."""
    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", "--workload", "forum", "--scale", "0.005",
                 "--epoch-size", "20", "--out", bundle]) == 0
    _forge_later_epoch_count(bundle)
    capsys.readouterr()
    audit = ["audit", bundle, "--workload", "forum", "--scale", "0.005",
             "--follow", "--follow-timeout", "0.2"]
    assert main(audit + (["--json"] if as_json else [])) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    if as_json:
        payload = json.loads(captured.out)
        # The full schema of any verdict: the two epochs that settled
        # before the record, and the epoch it belongs to.
        assert set(payload) == {
            "verdict", "accepted", "reason", "detail", "phases", "stats",
            "epochs", "rejecting_epoch"}
        assert (payload["verdict"], payload["accepted"], payload["reason"]
                ) == ("REJECTED", False, "malformed_bundle")
        assert payload["detail"].startswith("ValueError: ")
        assert "'3'" in payload["detail"]
        assert [(e["shard"], e["accepted"]) for e in payload["epochs"]] == [
            (0, True), (1, True)]
        assert payload["rejecting_epoch"] == 2
        assert payload["stats"]["shard_count"] == 2
        assert payload["stats"]["grouped_requests"] == sum(
            e["requests"] for e in payload["epochs"])
        return
    lines = captured.out.splitlines()
    assert lines[-3].startswith("epoch 0: ACCEPTED")
    assert lines[-2].startswith("epoch 1: ACCEPTED")
    assert lines[-1].startswith("REJECTED: malformed_bundle: ValueError: ")
    assert "'3'" in lines[-1] and "not an integer" in lines[-1]


# -- untrusted epoch marks: one verdict on every road ---------------------------

FIXTURE = str(pathlib.Path(__file__).resolve().parent
              / "data" / "cart_fixture.jsonl")
CART = ["--workload", "cart", "--scale", "0.05"]


def _fixture_lines() -> tuple[list[str], int, int]:
    """The fixture's lines and the indexes of its two epoch marks."""
    with open(FIXTURE) as fh:
        lines = fh.read().splitlines()
    first, second = (index for index, line in enumerate(lines)
                     if line.startswith('{"kind": "epoch_mark"'))
    return lines, first, second


def _moved(lines, index, by):
    lines.insert(index + by, lines.pop(index))


def _with_events(lines, index, value):
    lines[index] = json.dumps({"kind": "epoch_mark", "events": value})


def _after_three_events(lines, first):
    third = [i for i, line in enumerate(lines)
             if line.startswith('{"kind": "event"')][2]
    lines.insert(third + 1, lines[first])


def _swapped(lines, first, second):
    lines[first], lines[second] = lines[second], lines[first]


def _after_300_events(lines, first):
    event = [i for i, line in enumerate(lines)
             if line.startswith('{"kind": "event"')][299]
    lines.insert(event + 1, lines[first])


def _second_state(lines, first, forged_first=False):
    """A second ``state`` record, emptied, spliced into the second
    epoch — or put first, with the honest one a few events after it."""
    honest = next(i for i, line in enumerate(lines)
                  if line.startswith('{"kind": "state"'))
    record = json.loads(lines[honest])
    for table in record["state"]["tables"].values():
        table["rows"] = []
    forged = json.dumps(record)
    if forged_first:
        lines.insert(honest + 4, lines[honest])
        lines[honest] = forged
    else:
        lines.insert(first + 3, forged)


#: What the forensic timeline makes of a case.  Its prepass is a prefix
#: of the audit — every check but re-execution and output comparison —
#: over the same slices, so it either sees what the audit sees ...
AS_THE_AUDIT = "as the audit"
#: ... or, where only re-execution can object (a nondet record or a
#: group's requests cut off from their epoch), walks on; a tuple is the
#: (epoch, reason) it stops at instead, later than the audit.
UNSEEN = None

#: case -> (edit(lines, first mark, second mark), verdict, reason,
#: timeline).  A mark that still falls between two epochs' records — or
#: is missing or doubled, which merges two epochs or closes an empty
#: one — leaves a bundle the audit ACCEPTs with the honest bodies; one
#: that lands inside an epoch's events or reports tears that epoch and
#: is REJECTED by the checks of whichever slice comes up short.
MARK_CASES = {
    "honest": (lambda lines, first, second: None, "ACCEPTED", None,
               AS_THE_AUDIT),
    "first mark deleted": (
        lambda lines, first, second: lines.pop(first), "ACCEPTED", None,
        AS_THE_AUDIT),
    "first mark duplicated": (
        lambda lines, first, second: lines.insert(first, lines[first]),
        "ACCEPTED", None, AS_THE_AUDIT),
    "first mark +1": (lambda lines, first, second: _moved(lines, first, 1),
                      "REJECTED", "trace_unbalanced", AS_THE_AUDIT),
    "first mark -1": (lambda lines, first, second: _moved(lines, first, -1),
                      "REJECTED", "nondet_missing", UNSEEN),
    # Epoch 0's op counts and its last op log go to epoch 1: its
    # other logs claim operations no count allows.
    "first mark -3": (lambda lines, first, second: _moved(lines, first, -3),
                      "REJECTED", "log_bad_opnum", AS_THE_AUDIT),
    "first mark +5": (lambda lines, first, second: _moved(lines, first, 5),
                      "REJECTED", "trace_unbalanced", AS_THE_AUDIT),
    # The op-log records pushed into epoch 1 name epoch 0's requests.
    "first mark -22": (
        lambda lines, first, second: _moved(lines, first, -22),
        "REJECTED", "nondet_missing", (1, "log_unknown_rid")),
    "first mark +60": (
        lambda lines, first, second: _moved(lines, first, 60),
        "REJECTED", "trace_unbalanced", AS_THE_AUDIT),
    "extra mark after three events": (
        lambda lines, first, second: _after_three_events(lines, first),
        "REJECTED", "trace_unbalanced", AS_THE_AUDIT),
    # Inside epoch 1: four epochs, the first certified, the second torn.
    "extra mark after 300 events": (
        lambda lines, first, second: _after_300_events(lines, first),
        "REJECTED", "trace_unbalanced", AS_THE_AUDIT),
    "marks swapped": (_swapped, "ACCEPTED", None, AS_THE_AUDIT),
    "middle epoch dropped": (
        lambda lines, first, second: lines.__delitem__(
            slice(first, second)), "REJECTED", "group_diverged", UNSEEN),
    "events 'abc'": (
        lambda lines, first, second: _with_events(lines, first, "abc"),
        "REJECTED", "malformed_bundle", AS_THE_AUDIT),
    "events -5": (
        lambda lines, first, second: _with_events(lines, first, -5),
        "REJECTED", "malformed_bundle", AS_THE_AUDIT),
    "events 10**6": (
        lambda lines, first, second: _with_events(lines, first, 10 ** 6),
        "ACCEPTED", None, AS_THE_AUDIT),
    # Not marks, but the same kind of fault: a record no reader takes.
    # (``epochs()`` used to keep the first state record and
    # ``read_all()`` the last: ACCEPTED by the audit, REJECTED by
    # ``--baseline`` — and the other way round with the forged one
    # first.)
    "second state record": (
        lambda lines, first, second: _second_state(lines, first),
        "REJECTED", "malformed_bundle", AS_THE_AUDIT),
    "forged state record first": (
        lambda lines, first, second: _second_state(lines, first, True),
        "REJECTED", "malformed_bundle", AS_THE_AUDIT),
    "junk record in the second epoch": (
        lambda lines, first, second: lines.insert(
            first + 3, '{"kind": "junk"}'),
        "REJECTED", "malformed_bundle", AS_THE_AUDIT),
}


@pytest.mark.parametrize("epoch_workers", [1, 2])
@pytest.mark.parametrize("road", ["audit_epochs", "repro audit --json"])
def test_shard_count_is_the_epochs_audited(tmp_path, capsys, local_pool,
                                           road, epoch_workers):
    """A mark forged 300 events in makes four epochs of the fixture's
    three, the second torn: two epochs are audited, the second rejects,
    and ``shard_count`` says 2 on every road — not the epochs recorded,
    nor however many the loop had fed (or read) by the time the
    rejection settled."""
    from repro.core import Auditor
    from repro.io import BundleReader
    from repro.scenarios import build_scenario_app

    lines, first, _ = _fixture_lines()
    _after_300_events(lines, first)
    bundle = str(tmp_path / "bundle.jsonl")
    with open(bundle, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if road == "audit_epochs":
        pulled = []
        with BundleReader.open(bundle) as reader:
            result = Auditor(build_scenario_app("cart", 0.05)).audit_epochs(
                (pulled.append(epoch.index) or epoch
                 for epoch in reader.epochs()), reader.initial_state,
                local_pool if epoch_workers > 1 else None)
        stats, epochs = result.stats, result.stats["shards"]
        assert (result.accepted, result.reason.value) == (
            False, "trace_unbalanced")
        # Nothing after a settled rejection is read; a pooled session
        # may have primed more by the time its second epoch settled.
        assert pulled == [0, 1] if epoch_workers == 1 else (
            pulled[:2] == [0, 1] and len(pulled) <= 4)
    else:
        capsys.readouterr()
        assert main(["audit", bundle, *CART, "--json",
                     "--epoch-workers", str(epoch_workers)]) == 1
        payload = json.loads(capsys.readouterr().out)
        stats, epochs = payload["stats"], payload["epochs"]
        assert (payload["reason"], payload["rejecting_epoch"]) == (
            "trace_unbalanced", 1)
    assert stats["shard_count"] == len(epochs) == 2
    assert [epoch["accepted"] for epoch in epochs] == [True, False]


def test_forged_epoch_marks_get_one_verdict_on_every_road(tmp_path,
                                                          capsys):
    """The bundle's epoch marks are the executor's word like the rest
    of it.  Whatever is done to them, ``repro audit FILE`` and ``repro
    audit FILE --follow`` answer alike — verdict, reason and the whole
    ``--json`` payload, timings aside — neither with a traceback, and
    the library's entry point (``Auditor.audit_stream``) returns the
    verdict they print; where they ACCEPT, the re-executed bodies are
    the honest audit's; and the forensic road
    (``Timeline.from_bundle``, under ``repro query`` / ``explain``)
    counts the epochs they count and stops at the epoch they reject, so
    it answers about no request past it.  A record no reader takes is
    ``malformed_bundle`` on all of them, ``--baseline`` included."""
    from repro.common.errors import MalformedBundle
    from repro.core import Auditor
    from repro.forensics import Timeline
    from repro.io import BundleReader
    from repro.scenarios import build_scenario_app

    app = build_scenario_app("cart", 0.05)
    bundle = str(tmp_path / "bundle.jsonl")

    def cli(*extra):
        capsys.readouterr()
        code = main(["audit", bundle, *CART, "--json", *extra])
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert code == (0 if payload["accepted"] else 1)
        return untimed(payload)

    def library():
        with BundleReader.open(bundle) as reader:
            return Auditor(app).audit_stream(reader)

    def explain(rid):
        capsys.readouterr()
        code = main(["explain", bundle, *CART, rid])
        return code, capsys.readouterr()

    honest_bodies = None
    for case, (edit, verdict, reason, prepass) in MARK_CASES.items():
        lines, first, second = _fixture_lines()
        edit(lines, first, second)
        with open(bundle, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        plain = cli()
        assert (plain["verdict"], plain["reason"]) == (verdict, reason), (
            case, plain["detail"])
        assert cli("--follow", "--follow-timeout", "0.2") == plain, case
        result = library()
        assert (result.accepted, result.reason and result.reason.value,
                result.detail, result.stats["shard_count"]) == (
            plain["accepted"], reason, plain["detail"],
            len(plain["epochs"])), case
        if case == "honest":
            honest_bodies = result.produced
            assert len(honest_bodies) > 100
            assert len(plain["epochs"]) == 3
        elif verdict == "ACCEPTED":
            assert result.produced == honest_bodies, case

        # The third road.
        if reason == "malformed_bundle":  # no reader gets past the record
            with pytest.raises(MalformedBundle) as refused:
                Timeline.from_bundle(bundle, app)
            assert str(refused.value) == plain["detail"], case
            code, said = explain("s00000001")
            assert code == 2 and "cannot load bundle" in said.err, case
            # ... nor does the fourth: the baseline reads the whole file.
            checked = cli("--baseline")
            assert checked.pop("baseline") == {"accepted": False,
                                               "seconds": 0.0}, case
            assert checked == plain, case
            assert plain["rejecting_epoch"] == len(plain["epochs"]), case
            continue
        with BundleReader.open(bundle) as reader:
            slices = list(reader.epochs())
        timeline = Timeline.from_bundle(bundle, app)
        stopped = timeline.prepass_rejected
        rejecting = plain["rejecting_epoch"]
        assert (rejecting is None) == (verdict == "ACCEPTED"), case
        if prepass == AS_THE_AUDIT:
            walked = timeline.epoch_count + (stopped is not None)
            assert walked == plain["stats"]["shard_count"], case
            assert walked == len(plain["epochs"]), case
            assert (stopped and (stopped[0], stopped[1].value)) == (
                None if rejecting is None else (rejecting, reason)), case
        else:
            where = stopped and (stopped[0], stopped[1].value)
            assert where == prepass and rejecting is not None, case
            assert prepass is None or prepass[0] > rejecting, case
            if prepass is None:
                assert timeline.epoch_count == len(slices), case
        if stopped is None:
            assert set(timeline.entries) == {
                rid for s in slices for rid in s.trace.request_ids()}, case
            continue
        if case == "extra mark after 300 events":
            assert (len(slices), rejecting, stopped[0]) == (4, 1, 1)
        # No scoped ACCEPTED at or past the epoch the prepass rejected;
        # the epochs the audit certified stay open to questions.
        for epoch, epoch_slice in enumerate(slices):
            rid = epoch_slice.trace.request_ids()[0]
            code, said = explain(rid)
            if epoch < rejecting:
                assert code == 0 and "ACCEPTED" in said.out, (case, rid)
            elif epoch >= stopped[0]:
                assert code == 2 and "ACCEPTED" not in said.out, (case, rid)
                assert f"epoch {stopped[0]} prepass rejected" in said.err


def test_lint_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["lint", "miniwiki"])
    assert exit_.value.code == 2
    assert "invalid choice: 'lint'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["record", "demo", "serve", "synth"])
@pytest.mark.parametrize("flag,value", [
    ("--epoch-size", "-5"), ("--concurrency", "0"), ("--concurrency", "-3"),
    ("--scale", "-1"), ("--scale", "0"), ("--scale", "nan"),
])
def test_recording_flags_out_of_range_are_usage_errors(tmp_path, capsys,
                                                       command, flag, value):
    """They were clamped in silence (one epoch, concurrency 1, twenty
    requests) and a bundle was written; now exit 2, naming the flag,
    before anything is served — on every subcommand that records, and
    ``--scale`` wherever a workload is built."""
    out = str(tmp_path / "bundle.jsonl")
    argv = {"serve": ["--listen", "127.0.0.1:0"], "demo": []}.get(
        command, ["--out", out])
    with pytest.raises(SystemExit) as usage:
        main([command, *argv, f"{flag}={value}"])
    assert usage.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}" in captured.err and captured.out == ""
    assert not os.path.exists(out)
    if flag == "--scale":
        for reader in (["audit", out], ["fuzz", out]):
            with pytest.raises(SystemExit) as usage:
                main([*reader, f"--scale={value}"])
            assert usage.value.code == 2
            assert "argument --scale" in capsys.readouterr().err


_SERVE = ["serve", "--listen", "127.0.0.1:0"]
_WORKER = ["worker", "--join", "127.0.0.1:9"]


@pytest.mark.parametrize("argv", [
    [*_SERVE, "--spool-epochs", "0"],
    [*_SERVE, "--epoch-delay", "-1"],
    [*_SERVE, "--linger", "-1"],
    [*_SERVE, "--linger", "nan"],
    ["audit", "b.jsonl", "--follow-timeout", "-1"],
    ["audit", "b.jsonl", "--follow-timeout", "0"],
    ["audit", "b.jsonl", "--max-group-size", "0"],
    ["audit", "b.jsonl", "--epoch-workers", "-2"],
    [*_WORKER, "--heartbeat", "-1"],
    [*_WORKER, "--connect-timeout", "-1"],
    ["synth", "--requests", "-5"],
    ["synth", "--users", "0"],
    ["synth", "--max-sessions", "0"],
    ["fuzz", "b.jsonl", "--mutations", "0"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
def test_numeric_flags_out_of_range_are_usage_errors(argv, capsys):
    """A count or a number of seconds out of range is exit 2 naming the
    flag — not a ValueError traceback (``--spool-epochs 0``), a crash in
    ``time.sleep`` after the whole recording (``--epoch-delay -1``), or
    a negative taken in silence."""
    with pytest.raises(SystemExit) as usage:
        main(argv)
    assert usage.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {argv[-2]}" in captured.err and captured.out == ""


def test_follow_with_epoch_workers(tmp_path, capsys):
    """--follow drives the session asynchronously on local workers:
    per-epoch verdicts still print in epoch order."""
    bundle = str(tmp_path / "live.jsonl")
    assert main(["record", "--workload", "forum", "--scale", "0.005",
                 "--epoch-size", "20", "--out", bundle]) == 0
    assert main(["audit", bundle, "--workload", "forum",
                 "--scale", "0.005", "--follow", "--epoch-workers", "2",
                 "--follow-timeout", "2"]) == 0
    out = capsys.readouterr().out
    epochs = [line for line in out.splitlines()
              if line.startswith("epoch ")]
    assert len(epochs) >= 2
    indexes = [int(line.split()[1].rstrip(":")) for line in epochs]
    assert indexes == sorted(indexes)
    assert all("ACCEPTED" in line for line in epochs)
    assert "ACCEPTED in" in out


# -- synth / fuzz (the scenario factory) ---------------------------------------


def test_synth_writes_verified_bundle(tmp_path, capsys):
    import json as _json

    bundle = str(tmp_path / "synth.jsonl")
    profile = str(tmp_path / "profile.json")
    code = main(["synth", "--workload", "cart", "--scale", "0.05",
                 "--seed", "0", "--requests", "150",
                 "--epoch-size", "60", "--users", "10000",
                 "--max-sessions", "12", "--out", bundle,
                 "--profile", profile, "--json"])
    assert code == 0
    payload = _json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["requests"] == 150
    assert payload["epochs"] >= 2
    assert payload["bundle"] == bundle
    with open(profile) as fh:
        assert _json.load(fh)["profile"] == "ssco-group-profile"
    # The synthesized bundle audits cleanly through the stock CLI.
    assert main(["audit", bundle, "--workload", "cart",
                 "--scale", "0.05"]) == 0


def test_synth_prints_the_self_audits_work_ratio(tmp_path, capsys):
    """The self-audit's work ratio is in the summary, beside its verdict,
    and it is the one ``repro audit`` reports for the bundle."""
    import json as _json

    bundle = str(tmp_path / "synth.jsonl")
    args = ["synth", "--workload", "wiki", "--scale", "0.05", "--seed", "1",
            "--requests", "120", "--epoch-size", "60", "--users", "1000",
            "--out", bundle, "--profile", str(tmp_path / "profile.json")]
    assert main(args) == 0
    line = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("self-audit:")]
    assert len(line) == 1 and line[0].startswith("self-audit: ACCEPTED ")
    assert main(args + ["--json"]) == 0
    ratio = _json.loads(capsys.readouterr().out)["work_ratio"]
    assert line[0].endswith(f"work_ratio={ratio:.3f}") and ratio > 1
    assert main(["audit", bundle, "--workload", "wiki", "--scale", "0.05",
                 "--json"]) == 0
    assert _json.loads(capsys.readouterr().out)["stats"]["work_ratio"] \
        == ratio
    # Without a self-audit there is no ratio.
    assert main(args[:-2] + ["--json"]) == 0
    assert _json.loads(capsys.readouterr().out)["work_ratio"] is None


def test_synth_resume_roundtrip(tmp_path, capsys):
    import json as _json

    ckpt = str(tmp_path / "ckpt.json")
    args = ["synth", "--workload", "cart", "--scale", "0.05",
            "--seed", "3", "--requests", "80", "--epoch-size", "40",
            "--users", "10000", "--max-sessions", "12"]
    assert main(args + ["--out", str(tmp_path / "p1.jsonl"),
                        "--checkpoint-out", ckpt, "--json"]) == 0
    first = _json.loads(capsys.readouterr().out)
    assert first["resumed"] is False
    assert main(args + ["--out", str(tmp_path / "p2.jsonl"),
                        "--resume", ckpt, "--json"]) == 0
    second = _json.loads(capsys.readouterr().out)
    assert second["resumed"] is True
    assert second["requests"] == 80


def test_synth_rejects_bad_spec():
    with pytest.raises(SystemExit):
        main(["synth", "--workload", "cart", "--requests", "0",
              "--out", "/tmp/never.jsonl"])


def test_fuzz_all_rejected_json_schema(capsys):
    import json as _json

    code = main(["fuzz", "tests/data/cart_fixture.jsonl",
                 "--mutations", "20", "--seed", "0", "--json"])
    assert code == 0
    payload = _json.loads(capsys.readouterr().out)
    assert payload["all_rejected"] is True
    assert payload["rejected"] == 20
    assert payload["workload"] == "cart"
    assert set(payload["channels"]) == {"audit", "load", "wire"}
    assert payload["accepted_mutations"] == []


def test_fuzz_operator_restriction(capsys):
    import json as _json

    code = main(["fuzz", "tests/data/cart_fixture.jsonl",
                 "--workload", "cart", "--scale", "0.05",
                 "--mutations", "5", "--seed", "1",
                 "--operators", "flip_response", "--json"])
    assert code == 0
    payload = _json.loads(capsys.readouterr().out)
    assert set(payload["operators"]) == {"flip_response"}
    assert payload["operators"]["flip_response"]["mutations"] == 5
    assert payload["operators"]["flip_response"]["rejected"] == 5


def test_fuzz_unknown_operator_exits_2(capsys):
    code = main(["fuzz", "tests/data/cart_fixture.jsonl",
                 "--operators", "nope"])
    assert code == 2
    assert "unknown tamper operator" in capsys.readouterr().err


def test_fuzz_missing_bundle_exits_2(capsys):
    code = main(["fuzz", "/nonexistent/bundle.jsonl"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_demo_cart_workload_accepts(capsys):
    code = main(["demo", "--workload", "cart", "--scale", "0.02"])
    assert code == 0
    assert "ACCEPTED" in capsys.readouterr().out
