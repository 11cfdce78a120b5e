"""The forensics CLI: ``repro query --as-of``, ``repro explain`` and
``repro audit --json`` against one recorded wiki bundle."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main

WIKI = ["--workload", "wiki", "--scale", "0.005", "--seed", "3"]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("forensics") / "bundle.jsonl")
    assert main(["record", *WIKI, "--epoch-size", "25",
                 "--out", path]) == 0
    return path


def test_query_sql_at_epoch_end(bundle, capsys):
    code = main(["query", bundle, *WIKI,
                 "SELECT COUNT(*) FROM pages", "--as-of", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "as of end of epoch 0" in out
    assert "row:" in out


def test_query_json_schema(bundle, capsys):
    code = main(["query", bundle, *WIKI,
                 "SELECT COUNT(*) FROM pages", "--as-of", "w000000",
                 "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"kind", "target", "as_of", "rows", "value",
                            "producers"}
    assert payload["kind"] == "sql"
    assert payload["as_of"] == {"epoch": 0, "request": "w000000"}
    assert payload["rows"] and isinstance(payload["rows"], list)
    for producer in payload["producers"]:
        assert set(producer) == {"epoch", "request", "object", "detail",
                                 "initial"}


def test_query_before_first_write_reads_absent(bundle, capsys):
    code = main(["query", bundle, *WIKI, "kv:never-written-key",
                 "--as-of", "w000000", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "kv"
    assert payload["value"] is None
    assert payload["producers"] == []


def test_query_unknown_request_exits_2(bundle, capsys):
    code = main(["query", bundle, *WIKI, "kv:x", "--as-of", "nope"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_query_epoch_out_of_range_exits_2(bundle, capsys):
    code = main(["query", bundle, *WIKI, "kv:x", "--as-of", "99"])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_query_missing_bundle_exits_2(tmp_path, capsys):
    code = main(["query", str(tmp_path / "absent.jsonl"), *WIKI,
                 "kv:x", "--as-of", "0"])
    assert code == 2
    assert "cannot load bundle" in capsys.readouterr().err


def test_explain_text_accepts(bundle, capsys):
    code = main(["explain", bundle, *WIKI, "w000000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "lineage closure:" in out
    assert "replayed" in out
    assert "ACCEPTED: request w000000" in out


def test_explain_json_schema(bundle, capsys):
    code = main(["explain", bundle, *WIKI, "w000007", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"request", "epoch", "groups", "chunk",
                            "verdict", "accepted", "reason", "detail",
                            "aborted", "body_matches", "lineage",
                            "replayed", "stats"}
    assert payload["verdict"] == "ACCEPTED"
    assert payload["accepted"] is True
    assert payload["reason"] is None
    if not payload["aborted"]:
        assert payload["body_matches"] is True
    assert set(payload["lineage"]) == {"requests", "edges",
                                       "initial_reads"}
    assert payload["replayed"]["chunks"] >= 1
    assert payload["stats"]["steps"] > 0


def test_explain_unknown_request_exits_2(bundle, capsys):
    code = main(["explain", bundle, *WIKI, "w999999"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_audit_json_verdict(bundle, capsys):
    code = main(["audit", bundle, *WIKI, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "ACCEPTED"
    assert payload["accepted"] is True
    assert payload["rejecting_epoch"] is None
    assert payload["epochs"]
    assert "steps" in payload["stats"]
    assert "phases" in payload
