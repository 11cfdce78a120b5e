"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


def _forge_first_body(bundle: str, fmt: str) -> None:
    """Tamper the first non-empty response body of a recorded bundle."""
    def forge(events) -> None:
        for entry in events:
            if "response" in entry and entry["response"]["body"]:
                entry["response"]["body"] = "forged!"
                return

    with open(bundle) as fh:
        if fmt == "json":
            data = json.load(fh)
            forge(data["trace"]["events"])
            lines = [json.dumps(data)]
        else:
            records = [json.loads(line) for line in fh]
            forge(r["event"] for r in records if r.get("kind") == "event")
            lines = [json.dumps(r) + "\n" for r in records]
    with open(bundle, "w") as fh:
        fh.writelines(lines)


def test_demo_accepts(capsys):
    code = main(["demo", "--workload", "forum", "--scale", "0.005"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ACCEPTED" in out
    assert "speedup" in out


def test_record_then_audit(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.json")
    assert main(["record", "--workload", "wiki", "--scale", "0.005",
                 "--out", bundle]) == 0
    assert main(["audit", bundle, "--workload", "wiki",
                 "--scale", "0.005", "--baseline"]) == 0
    out = capsys.readouterr().out
    assert "ACCEPTED" in out
    assert "baseline" in out


def test_audit_rejects_tampered_bundle(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.json")
    main(["record", "--workload", "wiki", "--scale", "0.005",
          "--out", bundle])
    _forge_first_body(bundle, "json")
    code = main(["audit", bundle, "--workload", "wiki",
                 "--scale", "0.005"])
    assert code == 1
    assert "REJECTED" in capsys.readouterr().out


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["demo", "--workload", "nope"])


def test_demo_parallel_and_epochs(capsys):
    code = main(["demo", "--workload", "forum", "--scale", "0.005",
                 "--workers", "2", "--epoch-size", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ACCEPTED" in out
    assert "shards=" in out


def test_record_jsonl_then_sharded_parallel_audit(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", "--workload", "wiki", "--scale", "0.005",
                 "--epoch-size", "20", "--format", "jsonl",
                 "--out", bundle]) == 0
    assert main(["audit", bundle, "--workload", "wiki",
                 "--scale", "0.005", "--epoch-size", "20",
                 "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "[jsonl]" in out
    assert "ACCEPTED" in out
    assert "shard(s)" in out


def test_audit_knob_passthrough(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.json")
    main(["record", "--workload", "forum", "--scale", "0.005",
          "--out", bundle])
    assert main(["audit", bundle, "--workload", "forum",
                 "--scale", "0.005", "--no-strict", "--no-dedup",
                 "--no-collapse", "--max-group-size", "50"]) == 0
    assert "ACCEPTED" in capsys.readouterr().out


def test_audit_rejects_tampered_jsonl_bundle(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.jsonl")
    main(["record", "--workload", "wiki", "--scale", "0.005",
          "--epoch-size", "20", "--format", "jsonl", "--out", bundle])
    _forge_first_body(bundle, "jsonl")
    code = main(["audit", bundle, "--workload", "wiki",
                 "--scale", "0.005", "--epoch-size", "20",
                 "--workers", "2"])
    assert code == 1
    assert "REJECTED" in capsys.readouterr().out


# -- the AuditConfig-driven flag set ------------------------------------------


def test_audit_workers_flag_is_canonical(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.json")
    main(["record", "--workload", "forum", "--scale", "0.005",
          "--out", bundle])
    assert main(["audit", bundle, "--workload", "forum",
                 "--scale", "0.005", "--workers", "2"]) == 0
    captured = capsys.readouterr()
    assert "workers=2" in captured.out
    assert "deprecated" not in captured.err


def test_removed_worker_aliases_are_rejected(tmp_path, capsys):
    """--workers is the one spelling: the old --parallel alias and
    audit's --concurrency alias are usage errors now."""
    bundle = str(tmp_path / "bundle.json")
    main(["record", "--workload", "forum", "--scale", "0.005",
          "--out", bundle])
    for flag in ("--parallel", "--concurrency"):
        with pytest.raises(SystemExit) as usage:
            main(["audit", bundle, "--workload", "forum",
                  "--scale", "0.005", flag, "2"])
        assert usage.value.code == 2
        assert flag in capsys.readouterr().err


def test_audit_backend_flag(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.json")
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


def test_audit_epoch_workers(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", "--workload", "forum", "--scale", "0.005",
                 "--epoch-size", "20", "--format", "jsonl",
                 "--out", bundle]) == 0
    assert main(["audit", bundle, "--workload", "forum",
                 "--scale", "0.005", "--epoch-size", "20",
                 "--epoch-workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "epoch_workers=2" in out
    assert "ACCEPTED" in out
    assert "shard(s)" in out
    # Nonsense worker counts are rejected at the boundary.
    with pytest.raises(SystemExit):
        main(["audit", bundle, "--workload", "forum",
              "--scale", "0.005", "--epoch-workers", "0"])


def test_audit_explicit_epoch_cuts(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.jsonl")
    main(["record", "--workload", "wiki", "--scale", "0.005",
          "--epoch-size", "20", "--format", "jsonl", "--out", bundle])
    # Replay the recorded marks as explicit --epoch-cuts.
    import json as _json

    with open(bundle) as fh:
        marks = [rec["events"] for rec in map(_json.loads, fh)
                 if rec.get("kind") == "epoch_mark"]
    assert marks
    cuts = ",".join(str(mark) for mark in marks)
    assert main(["audit", bundle, "--workload", "wiki",
                 "--scale", "0.005", "--epoch-cuts", cuts]) == 0
    out = capsys.readouterr().out
    assert f"epoch_cuts={marks}" in out
    assert "shard(s)" in out
    # Nonsense cuts are rejected at the boundary, before any auditing.
    with pytest.raises(SystemExit):
        main(["audit", bundle, "--workload", "wiki",
              "--scale", "0.005", "--epoch-cuts", "30,20"])


def test_audit_config_file_with_flag_override(tmp_path, capsys):
    import json as _json

    bundle = str(tmp_path / "bundle.json")
    config_path = str(tmp_path / "audit.json")
    main(["record", "--workload", "forum", "--scale", "0.005",
          "--out", bundle])
    with open(config_path, "w") as fh:
        _json.dump({"workers": 2, "backend": "interp"}, fh)
    assert main(["audit", bundle, "--workload", "forum",
                 "--scale", "0.005", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "workers=2" in out and "backend=interp" in out
    # An explicit flag overrides the file.
    assert main(["audit", bundle, "--workload", "forum",
                 "--scale", "0.005", "--config", config_path,
                 "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "workers=1" in out and "backend=interp" in out
    # Typos in the file are an immediate CLI error.
    with open(config_path, "w") as fh:
        _json.dump({"workerz": 2}, fh)
    with pytest.raises(SystemExit):
        main(["audit", bundle, "--workload", "forum",
              "--scale", "0.005", "--config", config_path])


def test_record_segmented_then_audit_follow(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", "--workload", "wiki", "--scale", "0.005",
                 "--epoch-size", "20", "--format", "jsonl-epochs",
                 "--out", bundle]) == 0
    assert main(["audit", bundle, "--workload", "wiki",
                 "--scale", "0.005", "--follow"]) == 0
    out = capsys.readouterr().out
    assert "[jsonl-epochs]" in out
    assert "epoch 0: ACCEPTED" in out
    assert "epoch(s)" in out


def test_audit_follow_rejects_tampered_epoch(tmp_path, capsys):
    import json as _json

    bundle = str(tmp_path / "bundle.jsonl")
    main(["record", "--workload", "wiki", "--scale", "0.005",
          "--epoch-size", "20", "--format", "jsonl-epochs",
          "--out", bundle])
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


def test_audit_follow_requires_jsonl(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.json")
    main(["record", "--workload", "forum", "--scale", "0.005",
          "--out", bundle])
    assert main(["audit", bundle, "--workload", "forum",
                 "--scale", "0.005", "--follow"]) == 2
    assert "streaming JSONL" in capsys.readouterr().err


def test_demo_accepts_workers_flag(capsys):
    code = main(["demo", "--workload", "forum", "--scale", "0.005",
                 "--workers", "2", "--epoch-size", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ACCEPTED" in out
    assert "workers=2" in out
    assert "shards=" in out


def test_audit_prepass_depth_and_epoch_threads(tmp_path, capsys):
    """--epoch-workers reaches the config (visible in the banner's
    describe() line); the removed --prepass-depth and --epoch-threads
    flags are usage errors naming the flag."""
    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", "--workload", "forum", "--scale", "0.005",
                 "--epoch-size", "20", "--format", "jsonl",
                 "--out", bundle]) == 0
    assert main(["audit", bundle, "--workload", "forum",
                 "--scale", "0.005", "--epoch-size", "20",
                 "--epoch-workers", "2"]) == 0
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


def _forge_scalar(bundle: str, fmt: str, field: str, value) -> None:
    """Replace one op count (``field="count"``) or one op-log record's
    opnum (``field="opnum"``) in a recorded bundle."""
    def forge(counts: dict, logs) -> bool:
        if field == "count" and counts:
            counts[sorted(counts)[0]] = value
            return True
        for log in logs:
            if field == "opnum" and log:
                log[0]["opnum"] = value
                return True
        return False

    with open(bundle) as fh:
        if fmt == "json":
            data = json.load(fh)
            reports = data["reports"]
            assert forge(reports["op_counts"], reports["op_logs"].values())
            lines = [json.dumps(data)]
        else:
            records = [json.loads(line) for line in fh]
            assert any(
                forge(r.get("counts", {}),
                      [r["records"]] if r.get("kind") == "op_log" else [])
                for r in records)
            lines = [json.dumps(r) + "\n" for r in records]
    with open(bundle, "w") as fh:
        fh.writelines(lines)


@pytest.mark.parametrize("fmt", ["json", "jsonl-epochs"])
@pytest.mark.parametrize("field", ["count", "opnum"])
@pytest.mark.parametrize("value", ["3", 2.5, None, [1]])
def test_audit_rejects_non_integer_report_scalars(tmp_path, capsys, fmt,
                                                  field, value):
    """A count or an opnum that is not an integer is the executor's
    malformed word: ``repro audit`` answers REJECTED (exit 1) and says
    what it found — it does not die of a TypeError."""
    bundle = str(tmp_path / "bundle")
    assert main(["record", "--workload", "forum", "--scale", "0.005",
                 "--epoch-size", "20", "--format", fmt,
                 "--out", bundle]) == 0
    _forge_scalar(bundle, fmt, field, value)
    audit = ["audit", bundle, "--workload", "forum", "--scale", "0.005"]
    capsys.readouterr()
    assert main(audit) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    what = "op count" if field == "count" else "opnum"
    assert captured.out.startswith("REJECTED: malformed_bundle: ValueError")
    assert what in captured.out and repr(value) in captured.out
    assert "not an integer" in captured.out
    assert main(audit + ["--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "REJECTED" and not payload["accepted"]
    assert payload["reason"] == "malformed_bundle"
    assert repr(value) in payload["detail"]


def _forge_later_epoch_count(bundle: str) -> None:
    """Make an op count of the bundle's *third* epoch a string."""
    with open(bundle) as fh:
        records = [json.loads(line) for line in fh]
    third = [r for r in records if r.get("kind") == "op_counts"][2]
    third["counts"][sorted(third["counts"])[0]] = "3"
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
                 "--epoch-size", "20", "--format", "jsonl-epochs",
                 "--out", bundle]) == 0
    _forge_later_epoch_count(bundle)
    capsys.readouterr()
    audit = ["audit", bundle, "--workload", "forum", "--scale", "0.005",
             "--follow", "--follow-timeout", "0.2"]
    assert main(audit + (["--json"] if as_json else [])) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    if as_json:
        payload = json.loads(captured.out)
        assert payload == {
            "verdict": "REJECTED", "accepted": False,
            "reason": "malformed_bundle", "detail": payload["detail"]}
        assert payload["detail"].startswith("ValueError: ")
        assert "'3'" in payload["detail"]
        return
    lines = captured.out.splitlines()
    assert lines[-3].startswith("epoch 0: ACCEPTED")
    assert lines[-2].startswith("epoch 1: ACCEPTED")
    assert lines[-1].startswith("REJECTED: malformed_bundle: ValueError: ")
    assert "'3'" in lines[-1] and "not an integer" in lines[-1]


# -- untrusted epoch marks -----------------------------------------------------


def _read_marks(bundle: str, fmt: str) -> list:
    with open(bundle) as fh:
        if fmt == "json":
            return json.load(fh)["epoch_marks"]
        return [record["events"] for record in map(json.loads, fh)
                if record.get("kind") == "epoch_mark"]


def _write_marks(bundle: str, fmt: str, marks: list) -> None:
    """Replace the bundle's recorded epoch marks with ``marks``."""
    if fmt == "json":
        with open(bundle) as fh:
            data = json.load(fh)
        data["epoch_marks"] = marks
        with open(bundle, "w") as fh:
            json.dump(data, fh)
        return
    with open(bundle) as fh:
        records = [json.loads(line) for line in fh]
    first = next(i for i, r in enumerate(records)
                 if r.get("kind") == "epoch_mark")
    kept = [r for r in records if r.get("kind") != "epoch_mark"]
    kept[first:first] = [{"kind": "epoch_mark", "events": mark}
                         for mark in marks]
    with open(bundle, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in kept)


@pytest.mark.parametrize("fmt", ["json", "jsonl"])
@pytest.mark.parametrize("forged", [False, True])
def test_audit_treats_bundle_epoch_marks_as_hints(tmp_path, capsys, fmt,
                                                  forged):
    """The bundle's epoch marks are untrusted: reversed, duplicated,
    zero, out-of-range and non-quiescent marks give a verdict (the one
    the honest marks' surviving subset gives), never a traceback."""
    from repro.core import AuditConfig, Auditor
    from repro.core.partition import validate_cuts
    from repro.io import load_audit_bundle_ex
    from repro.workloads import forum_workload

    bundle = str(tmp_path / f"bundle.{fmt}")
    assert main(["record", "--workload", "forum", "--scale", "0.005",
                 "--epoch-size", "20", "--format", fmt,
                 "--out", bundle]) == 0
    if forged:
        _forge_first_body(bundle, fmt)
    honest = _read_marks(bundle, fmt)
    assert len(honest) >= 2
    audit = ["audit", bundle, "--workload", "forum", "--scale", "0.005",
             "--json"]
    app = forum_workload(scale=0.005, seed=1).app

    def run(extra):
        capsys.readouterr()
        code = main(audit + extra)
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        return code, payload["verdict"], payload["reason"], [
            {k: e[k] for k in ("shard", "requests", "events", "accepted",
                               "groups")}
            for e in payload["epochs"]]

    def bodies(cuts):
        trace, reports, initial, _ = load_audit_bundle_ex(bundle)
        return Auditor(app, AuditConfig(epoch_cuts=tuple(cuts))).audit(
            trace, reports, initial).produced

    honest_bodies = bodies(honest)
    assert bool(honest_bodies) != forged
    hostile = {
        "reversed": (honest[::-1], honest),
        "duplicated": (honest + honest, honest),
        "zero": ([0] + honest, honest),
        "out-of-range": (honest + [10 ** 9], honest),
        "non-quiescent": ([honest[0] + 1] + honest[1:], honest[1:]),
    }
    for name, (marks, surviving) in hostile.items():
        _write_marks(bundle, fmt, honest)
        reference = run(["--epoch-cuts", ",".join(map(str, surviving))])
        assert reference[0] == (1 if forged else 0)
        _write_marks(bundle, fmt, marks)
        assert run(["--epoch-size", "20"]) == reference, name
        trace, _, _, loaded = load_audit_bundle_ex(bundle)
        assert validate_cuts(trace, loaded) == surviving, name
        assert bodies(validate_cuts(trace, loaded)) == honest_bodies, name


# -- the lint subcommand ------------------------------------------------------


def test_lint_clean_app_exits_zero(capsys):
    assert main(["lint", "miniwiki"]) == 0
    out = capsys.readouterr().out
    assert "lint[miniwiki]: errors=0" in out


def test_lint_fail_on_gates_exit_code(capsys):
    # minicrp has W001/W003 warnings but no errors.
    assert main(["lint", "minicrp"]) == 0
    assert main(["lint", "minicrp", "--fail-on", "warning"]) == 1
    assert main(["lint", "miniwiki", "--fail-on", "warning"]) == 0
    assert main(["lint", "miniwiki", "--fail-on", "info"]) == 1
    out = capsys.readouterr().out
    assert "W001" in out and "W003" in out


def test_lint_accepts_workload_aliases(capsys):
    assert main(["lint", "hotcrp", "--fail-on", "warning"]) == 1
    out = capsys.readouterr().out
    assert "lint[minicrp]:" in out


def test_lint_json_schema(capsys):
    import json as _json

    assert main(["lint", "minicrp", "--json"]) == 0
    payload = _json.loads(capsys.readouterr().out)
    assert set(payload) == {"app", "scripts", "summary"}
    assert payload["app"] == "minicrp"
    assert set(payload["summary"]) == {"errors", "warnings", "infos"}
    assert payload["summary"]["errors"] == 0
    assert payload["summary"]["warnings"] > 0
    report = payload["scripts"]["crp_submit.php"]
    assert set(report) == {"script", "effects", "functions", "footprint",
                           "divergence_hazard", "diagnostics"}
    assert report["divergence_hazard"] is True
    for diag in report["diagnostics"]:
        assert set(diag) == {"code", "severity", "message", "function",
                             "nid"}


def test_lint_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["lint", "nope"])


def test_audit_plan_hints_flag(tmp_path, capsys):
    bundle = str(tmp_path / "bundle.json")
    main(["record", "--workload", "hotcrp", "--scale", "0.02",
          "--out", bundle])
    assert main(["audit", bundle, "--workload", "hotcrp",
                 "--scale", "0.02", "--no-strict", "--plan-hints"]) == 0
    out = capsys.readouterr().out
    assert "plan-hints" in out
    assert "ACCEPTED" in out


def test_follow_with_epoch_workers(tmp_path, capsys):
    """--follow drives the session asynchronously under epoch_workers:
    per-epoch verdicts still print in epoch order."""
    bundle = str(tmp_path / "live.jsonl")
    assert main(["record", "--workload", "forum", "--scale", "0.005",
                 "--epoch-size", "20", "--format", "jsonl-epochs",
                 "--out", bundle]) == 0
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
                 "--scale", "0.05", "--epoch-size", "60"]) == 0


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


def test_lint_minicart_clean_and_aliased(capsys):
    assert main(["lint", "minicart"]) == 0
    assert main(["lint", "cart"]) == 0
    out = capsys.readouterr().out
    assert "lint[minicart]: errors=0 warnings=0" in out


def test_demo_cart_workload_accepts(capsys):
    code = main(["demo", "--workload", "cart", "--scale", "0.02"])
    assert code == 0
    assert "ACCEPTED" in capsys.readouterr().out
