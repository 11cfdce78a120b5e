"""The remote-audit CLI surface: ``serve --listen`` / ``audit --connect``."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading

import pytest

from repro.__main__ import main
from repro.bench.harness import run_online_phase
from repro.core.partition import partition_audit_inputs
from repro.net import BundlePublisher
from repro.server.faulty import tamper_response
from repro.workloads import wiki_workload
from tests.conftest import untimed


def _publish_workload(publisher, scale=0.005, epoch_size=20,
                      tamper_rid=None):
    """Publish a recorded wiki execution the way ``repro serve`` does
    (the CLI auditor rebuilds the same trusted app from its flags)."""
    workload = wiki_workload(scale=scale)
    execution = run_online_phase(workload, seed=1,
                                 epoch_size=epoch_size)
    trace = execution.trace
    if tamper_rid is not None:
        rid = sorted(trace.request_ids())[tamper_rid]
        trace = tamper_response(trace, rid, "forged!")
    publisher.write_state(execution.initial_state)
    for shard in partition_audit_inputs(trace, execution.reports,
                                        execution.epoch_marks):
        publisher.write_epoch(shard.trace, shard.reports)
    publisher.write_end()


def test_audit_connect_accepts(capsys):
    with BundlePublisher() as publisher:
        thread = threading.Thread(target=_publish_workload,
                                  args=(publisher,))
        thread.start()
        code = main(["audit", "--connect", publisher.endpoint,
                     "--workload", "wiki", "--scale", "0.005"])
        thread.join(timeout=30)
    assert code == 0
    out = capsys.readouterr().out
    assert f"live stream from {publisher.endpoint}" in out
    assert "epoch 0: ACCEPTED" in out
    assert "epoch(s)" in out


def test_audit_connect_rejects_tampered_stream(capsys):
    with BundlePublisher() as publisher:
        thread = threading.Thread(target=_publish_workload,
                                  args=(publisher,),
                                  kwargs={"tamper_rid": 3})
        thread.start()
        code = main(["audit", "--connect", publisher.endpoint,
                     "--workload", "wiki", "--scale", "0.005"])
        thread.join(timeout=30)
    assert code == 1
    out = capsys.readouterr().out
    assert "REJECTED" in out


def _publish_malformed_third_epoch(publisher):
    """Two honest epochs, then one whose op counts do not decode."""
    workload = wiki_workload(scale=0.005)
    execution = run_online_phase(workload, seed=1, epoch_size=20)
    publisher.write_state(execution.initial_state)
    shards = execution.epochs()
    assert len(shards) >= 3
    counts = shards[2].reports.op_counts
    counts[sorted(counts)[0]] = "3"
    for shard in shards:
        publisher.write_epoch(shard.trace, shard.reports)
    publisher.write_end()


@pytest.mark.parametrize("as_json", [False, True])
def test_audit_connect_rejects_a_malformed_record(capsys, as_json):
    """What the wire delivered intact but does not decode is the
    executor's malformed word (REJECTED, exit 1, after the epochs
    before it) — neither a traceback nor a transport error (exit 2)."""
    with BundlePublisher() as publisher:
        thread = threading.Thread(target=_publish_malformed_third_epoch,
                                  args=(publisher,))
        thread.start()
        code = main(["audit", "--connect", publisher.endpoint,
                     "--workload", "wiki", "--scale", "0.005"]
                    + (["--json"] if as_json else []))
        thread.join(timeout=30)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    if as_json:
        payload = json.loads(captured.out)
        assert payload["verdict"] == "REJECTED" and not payload["accepted"]
        assert payload["reason"] == "malformed_bundle"
        assert payload["detail"].startswith("ValueError: ")
        assert [e["accepted"] for e in payload["epochs"]] == [True, True]
        assert payload["rejecting_epoch"] == 2
        return
    lines = captured.out.splitlines()
    assert lines[-3].startswith("epoch 0: ACCEPTED")
    assert lines[-2].startswith("epoch 1: ACCEPTED")
    assert lines[-1].startswith("REJECTED: malformed_bundle: ValueError: ")
    assert "'3'" in lines[-1]


def _replay(publisher, lines):
    """Publish a bundle file's record lines as they are."""
    from repro.io import record_kind

    for line in lines[1:]:  # the publisher sends its own header
        publisher.write_record_payload(line, kind=record_kind(line))


def test_file_follow_and_connect_are_one_driver(tmp_path, capsys):
    """The same recorded run through ``audit FILE``, ``audit FILE
    --follow`` and ``audit --connect``: the same per-epoch lines and the
    same ``--json`` payload, timings aside — and a forged ``events`` on
    a mark is ``malformed_bundle`` on the socket as on the file."""
    wiki = ["--workload", "wiki", "--scale", "0.005"]
    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", *wiki, "--epoch-size", "20",
                 "--out", bundle]) == 0
    with open(bundle, "rb") as fh:
        lines = fh.read().splitlines()

    def audit(source, *extra):
        capsys.readouterr()
        if source != "--connect":
            code = main(["audit", bundle, *wiki, *extra]
                        + ([source] if source else []))
        else:
            with BundlePublisher(heartbeat_interval=None) as publisher:
                _replay(publisher, lines)
                code = main(["audit", "--connect", publisher.endpoint,
                             *wiki, *extra])
        captured = capsys.readouterr()
        assert captured.err == ""
        return code, captured.out

    roads = (None, "--follow", "--connect")
    texts = [audit(road) for road in roads]
    assert {code for code, _ in texts} == {0}
    epoch_lines = [
        [re.sub(r", [\d.]+ ms", "", line) for line in out.splitlines()
         if line.startswith("epoch ")] for _, out in texts]
    assert epoch_lines[0] == epoch_lines[1] == epoch_lines[2]
    assert len(epoch_lines[0]) >= 3
    payloads = [untimed(json.loads(audit(road, "--json")[1]))
                for road in roads]
    assert payloads[0] == payloads[1] == payloads[2]
    assert payloads[0]["stats"]["shard_count"] == len(epoch_lines[0])

    mark = next(i for i, line in enumerate(lines)
                if line.startswith(b'{"kind": "epoch_mark"'))
    lines[mark] = b'{"kind": "epoch_mark", "events": "abc"}'
    with open(bundle, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")
    verdicts = [audit(road, "--json") for road in roads]
    assert {code for code, _ in verdicts} == {1}
    forged = [json.loads(out) for _, out in verdicts]
    assert forged[0] == forged[1] == forged[2]
    assert forged[0]["reason"] == "malformed_bundle"
    assert "events 'abc'" in forged[0]["detail"]

    # A record no reader takes, inside the second epoch: the first
    # epoch settles, then the same full-schema verdict on every road.
    lines.insert(mark + 3, b'{"kind": "junk"}')
    lines[mark] = b'{"kind": "epoch_mark", "events": 0}'
    with open(bundle, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")
    verdicts = [audit(road, "--json") for road in roads]
    assert {code for code, _ in verdicts} == {1}
    junk = [untimed(json.loads(out)) for _, out in verdicts]
    assert junk[0] == junk[1] == junk[2]
    assert (junk[0]["reason"], junk[0]["rejecting_epoch"]) == (
        "malformed_bundle", 1)
    assert [e["accepted"] for e in junk[0]["epochs"]] == [True]
    assert "unknown bundle record kind 'junk'" in junk[0]["detail"]


def test_audit_connect_a_frame_nested_past_the_decoder(tmp_path, capsys):
    """A frame whose payload nests 50,000 arrays is a protocol error on
    the live stream (exit 2, one line on stderr) — not a traceback out
    of the decoder's recursion."""
    wiki = ["--workload", "wiki", "--scale", "0.005"]
    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", *wiki, "--epoch-size", "20",
                 "--out", bundle]) == 0
    with open(bundle, "rb") as fh:
        lines = fh.read().splitlines()
    capsys.readouterr()
    with BundlePublisher(heartbeat_interval=None) as publisher:
        _replay(publisher, lines[:3])
        publisher.write_record_payload(b"[" * 50_000, kind="event")
        _replay(publisher, [b""] + lines[3:])
        code = main(["audit", "--connect", publisher.endpoint, *wiki])
    assert code == 2
    err = capsys.readouterr().err
    assert "frame payload is not JSON" in err
    assert "Traceback" not in err


def test_audit_connect_unreachable(capsys):
    code = main(["audit", "--connect", "127.0.0.1:1",
                 "--net-connect-timeout", "0.2",
                 "--workload", "wiki", "--scale", "0.005"])
    assert code == 2
    assert "cannot attach" in capsys.readouterr().err


def test_audit_connect_and_bundle_are_exclusive(tmp_path):
    with pytest.raises(SystemExit):
        main(["audit", str(tmp_path / "bundle.json"),
              "--connect", "127.0.0.1:9000",
              "--workload", "wiki", "--scale", "0.005"])


def test_audit_needs_bundle_or_connect():
    with pytest.raises(SystemExit):
        main(["audit", "--workload", "wiki", "--scale", "0.005"])


def test_audit_connect_and_follow_are_exclusive():
    with pytest.raises(SystemExit):
        main(["audit", "--connect", "127.0.0.1:9000", "--follow",
              "--workload", "wiki", "--scale", "0.005"])


def test_serve_requires_listen():
    with pytest.raises(SystemExit):
        main(["serve", "--workload", "wiki", "--scale", "0.005"])


def test_audit_connect_bad_endpoint_rejected():
    with pytest.raises(SystemExit):
        main(["audit", "--connect", "not-an-endpoint",
              "--workload", "wiki", "--scale", "0.005"])


def test_serve_listen_port_in_use_fails_clean(capsys):
    """A taken port is a friendly exit-2 error before any recording."""
    import socket

    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        code = main(["serve", "--workload", "wiki", "--scale", "0.005",
                     "--listen", f"127.0.0.1:{port}"])
    finally:
        blocker.close()
    assert code == 2
    assert "cannot listen" in capsys.readouterr().err


def test_serve_has_no_config_file(tmp_path, capsys):
    """``serve`` computes no audit, so it reads no audit config: its
    listen address and patience are its own flags."""
    config_path = str(tmp_path / "audit.json")
    with open(config_path, "w") as fh:
        fh.write("{}")
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--workload", "wiki", "--scale", "0.005",
              "--listen", "127.0.0.1:0", "--config", config_path])
    assert excinfo.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_audit_config_file_naming_a_transport_key_is_refused(tmp_path,
                                                             capsys):
    """An ``audit.json`` written for the 21-field config fails as any
    unknown key does: exit 2, the key named."""
    import json

    config_path = str(tmp_path / "audit.json")
    with open(config_path, "w") as fh:
        json.dump({"max_group_size": 2, "net_idle_timeout": 5.0}, fh)
    with pytest.raises(SystemExit) as excinfo:
        main(["audit", "bundle.jsonl", "--config", config_path])
    assert excinfo.value.code == 2
    assert ("unknown audit config keys: net_idle_timeout"
            in capsys.readouterr().err)


@pytest.mark.parametrize("flag, bad", [
    ("--batch-records", "0"), ("--batch-bytes", "-1"),
])
def test_serve_rejects_bad_batch_knobs(capsys, flag, bad):
    """The batch bounds are constants of the publisher, not flags:
    whatever the value, naming one is a usage error."""
    with pytest.raises(SystemExit):
        main(["serve", "--workload", "wiki", "--scale", "0.005",
              "--listen", "127.0.0.1:0", flag, bad])
    assert "batch" in capsys.readouterr().err


def test_serve_then_connect_two_processes(tmp_path):
    """The real thing: recorder and auditor as separate OS processes
    over localhost (the CI smoke job runs the same pair)."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = (os.path.join(root, "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    mirror = str(tmp_path / "mirror.jsonl")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workload", "wiki",
         "--scale", "0.005", "--epoch-size", "20",
         "--listen", "127.0.0.1:0", "--linger", "60", "--out", mirror],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=root,
    )
    try:
        endpoint = None
        for line in server.stdout:
            match = re.search(r"on (\d+\.\d+\.\d+\.\d+:\d+)", line)
            if match:
                endpoint = match.group(1)
                break
        assert endpoint, "serve never printed its endpoint"
        audit = subprocess.run(
            [sys.executable, "-m", "repro", "audit",
             "--connect", endpoint,
             "--workload", "wiki", "--scale", "0.005"],
            capture_output=True, text=True, timeout=120, env=env,
            cwd=root,
        )
        assert audit.returncode == 0, audit.stdout + audit.stderr
        assert "ACCEPTED" in audit.stdout
        assert server.wait(timeout=60) == 0
    finally:
        server.kill()
        server.stdout.close()
    # The mirrored bundle audits identically through the file path.
    assert main(["audit", mirror, "--workload", "wiki",
                 "--scale", "0.005", "--follow"]) == 0
