"""Smoke test of the end-to-end benchmark (collected by the tier-1 run).

Runs ``run.py --smoke`` (at most 200 requests per workload, one
repetition, canary on) with tracing off and on, and checks the output
against BENCHMARK.json; then checks that a tampered bundle makes the
command fail.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def launch(*flags: str) -> subprocess.Popen:
    # CI jobs set these for the test suite; the benchmark refuses them.
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_BACKEND", "REPRO_FORCE_SPAWN")}
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", *flags],
        env=env, cwd=HERE, stdout=subprocess.PIPE, text=True,
    )


def test_smoke_run_reports_every_contract_metric(tmp_path):
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    workloads = [w["name"] for w in contract["workloads"]]
    assert 2 <= len(workloads) <= 8
    assert len(contract["end_to_end"]) <= 16
    assert len(contract["per_layer"]) <= 128
    assert contract["paths"] == ["benchmarks/e2e"]

    # The commands are independent; run them side by side, the short
    # tampered one behind the end-to-end one.
    runs = {
        "end_to_end": launch("--trace", "0",
                             "--out", str(tmp_path / "e2e.json")),
        "per_layer": launch("--trace", "1",
                            "--out", str(tmp_path / "layers.json"),
                            "--trace-out", str(tmp_path / "spans.jsonl")),
    }
    stdout = {"end_to_end": runs["end_to_end"].communicate(timeout=120)[0]}
    runs["tampered"] = launch("--workload", "cart_write", "--tamper")
    for key in ("tampered", "per_layer"):
        stdout[key] = runs[key].communicate(timeout=120)[0]

    for key, out in (("end_to_end", "e2e.json"), ("per_layer", "layers.json")):
        assert runs[key].returncode == 0, stdout[key]
        last = json.loads(stdout[key].splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 < last["attempted"]
        assert set(last["metrics"]) == {m["name"] for m in contract[key]}
        with open(tmp_path / out) as fh:
            document = json.load(fh)
        assert list(document["workloads"]) == workloads
        for workload in workloads:
            result = document["workloads"][workload]
            assert result["requests"] <= 200
            assert result["ops_failed"] == 0 < result["ops_attempted"]
            for metric in contract[key]:
                assert NAME.match(metric["name"]), metric["name"]
                assert metric["unit"], metric["name"]
                value = result["metrics"][metric["name"]]["value"]
                assert math.isfinite(value), (workload, metric["name"])

    with open(tmp_path / "spans.jsonl") as fh:
        spans = [json.loads(line) for line in fh]
    assert {"workload", "name", "parent", "start", "end", "cpu"} <= set(
        spans[0])
    assert {s["workload"] for s in spans} == set(workloads)

    assert runs["tampered"].returncode != 0, stdout["tampered"]
    last = json.loads(stdout["tampered"].splitlines()[-1])
    assert not last["correct"] and last["failed"] > 0
