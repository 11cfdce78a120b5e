"""The scenario factory's streaming generator: determinism, resume,
profiles, and audit acceptance of synthesized bundles."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
import weakref

import pytest

from repro.core import AuditConfig, Auditor
from repro.io import BundleReader, record_kind
from repro.scenarios import ScenarioSpec, TrafficStream, synthesize
from repro.scenarios.generator import build_scenario_app

SPEC_KW = dict(workload="cart", scale=0.05, users=50_000,
               max_sessions=16, epoch_size=60)


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _records(path, kinds):
    with open(path, "rb") as fh:
        return [line for line in fh.read().splitlines()
                if record_kind(line) in kinds]


def test_spec_validates():
    with pytest.raises(ValueError):
        ScenarioSpec(workload="nope")
    with pytest.raises(ValueError):
        ScenarioSpec(requests=0)
    spec = ScenarioSpec(**SPEC_KW, requests=10, seed=3)
    assert ScenarioSpec(**spec.to_json()) == spec


def test_stream_is_deterministic_and_bounded():
    spec = ScenarioSpec(**SPEC_KW, requests=200, seed=5)
    a = [r.rid for r in TrafficStream(spec)]
    b = [r.rid for r in TrafficStream(spec)]
    assert a == b
    assert len(a) == 200
    assert len(set(a)) == 200


def test_same_seed_bit_identical_bundle(tmp_path):
    spec = ScenarioSpec(**SPEC_KW, requests=180, seed=11)
    synthesize(spec, str(tmp_path / "a.jsonl"))
    synthesize(spec, str(tmp_path / "b.jsonl"))
    assert _sha(tmp_path / "a.jsonl") == _sha(tmp_path / "b.jsonl")
    different = ScenarioSpec(**SPEC_KW, requests=180, seed=12)
    synthesize(different, str(tmp_path / "c.jsonl"))
    assert _sha(tmp_path / "a.jsonl") != _sha(tmp_path / "c.jsonl")


def test_resume_produces_identical_suffix(tmp_path):
    full_spec = ScenarioSpec(**SPEC_KW, requests=240, seed=4)
    synthesize(full_spec, str(tmp_path / "full.jsonl"))

    half_spec = ScenarioSpec(**SPEC_KW, requests=120, seed=4)
    ckpt_path = tmp_path / "ckpt.json"
    first = synthesize(half_spec, str(tmp_path / "p1.jsonl"),
                       checkpoint_path=str(ckpt_path))
    assert first["requests"] == 120
    with open(ckpt_path) as fh:
        checkpoint = json.load(fh)
    second = synthesize(half_spec, str(tmp_path / "p2.jsonl"),
                        checkpoint=checkpoint)
    assert second["resumed"] is True

    kinds = ("event", "group", "op_log", "op_counts", "nondet")
    full = _records(tmp_path / "full.jsonl", kinds)
    parts = (_records(tmp_path / "p1.jsonl", kinds)
             + _records(tmp_path / "p2.jsonl", kinds))
    assert full == parts


def test_resume_rejects_wrong_workload(tmp_path):
    spec = ScenarioSpec(**SPEC_KW, requests=60, seed=1)
    ckpt_path = tmp_path / "ckpt.json"
    synthesize(spec, str(tmp_path / "a.jsonl"),
               checkpoint_path=str(ckpt_path))
    with open(ckpt_path) as fh:
        checkpoint = json.load(fh)
    wiki = ScenarioSpec(workload="wiki", requests=60, seed=1,
                        scale=0.05)
    with pytest.raises(ValueError, match="workload"):
        synthesize(wiki, str(tmp_path / "b.jsonl"),
                   checkpoint=checkpoint)


def test_synth_bundle_passes_stock_audit(tmp_path):
    spec = ScenarioSpec(**SPEC_KW, requests=150, seed=8)
    bundle = str(tmp_path / "bundle.jsonl")
    synthesize(spec, bundle)
    app = build_scenario_app(spec.workload, spec.scale)
    with BundleReader.open(bundle) as reader:
        audit = Auditor(app, AuditConfig()).audit_epochs(
            reader.epochs(), reader.initial_state)
    assert audit.accepted, (audit.reason, audit.detail)
    assert audit.stats["shard_count"] > 1


@pytest.mark.parametrize("workload", ["wiki", "forum", "hotcrp"])
def test_other_workload_models_verify(tmp_path, workload):
    spec = ScenarioSpec(workload=workload, requests=100, scale=0.05,
                        seed=6, users=10_000, max_sessions=12,
                        epoch_size=50)
    summary = synthesize(spec, str(tmp_path / "b.jsonl"),
                         profile_path=str(tmp_path / "p.json"))
    assert summary["verified"] is True, summary


def test_profile_schema(tmp_path):
    spec = ScenarioSpec(**SPEC_KW, requests=150, seed=8)
    profile_path = tmp_path / "profile.json"
    summary = synthesize(spec, str(tmp_path / "bundle.jsonl"),
                         profile_path=str(profile_path))
    assert summary["verified"] is True
    with open(profile_path) as fh:
        profile = json.load(fh)
    assert profile["profile"] == "ssco-group-profile"
    assert profile["version"] == 1
    assert profile["groups"] == len(profile["n_alpha_ell"])
    assert profile["groups"] == summary["profile_groups"]
    for n, alpha, ell in profile["n_alpha_ell"]:
        assert n >= 1 and ell >= 0
        assert 0.0 <= alpha <= 1.0
    summary_block = profile["summary"]
    assert summary_block["max_n"] >= summary_block["mean_n"] > 0
    assert profile["source"]["workload"] == "cart"


def test_synthesis_holds_one_epoch_not_the_trace(tmp_path, monkeypatch):
    """``synthesize`` streams: quadrupling the requests keeps its
    ``tracemalloc`` peak under 2x (the state it chains grows; one epoch
    is served at a time), and at every epoch boundary only that epoch's
    requests are alive.  The live count is the sharp half: a list of
    every request costs ~1.5 KB a request, too little for the peak
    ratio to see at this size."""
    spec = dict(workload="cart", scale=0.05, seed=0, epoch_size=100)
    synthesize(ScenarioSpec(**spec, requests=50), str(tmp_path / "warm"))
    taken: list[weakref.ref] = []
    take = TrafficStream.take

    def tracked_take(stream, count):
        batch = take(stream, count)
        taken.extend(map(weakref.ref, batch))
        return batch

    monkeypatch.setattr(TrafficStream, "take", tracked_take)
    alive: list[int] = []

    def progress(_update):
        alive.append(sum(ref() is not None for ref in taken))

    def peak(requests):
        tracemalloc.start()
        try:
            synthesize(ScenarioSpec(**spec, requests=requests),
                       str(tmp_path / f"{requests}.jsonl"),
                       progress=progress)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(100), peak(400)
    assert large < 2 * small, (small, large)
    assert max(alive) <= spec["epoch_size"], alive


def test_zipf_skew_over_user_population():
    # The log-uniform rank sampler must concentrate on low user ids.
    spec = ScenarioSpec(**SPEC_KW, requests=400, seed=13)
    low = high = 0
    for request in TrafficStream(spec):
        sess = request.cookies.get("sess")
        if not sess:
            continue
        user = int("".join(ch for ch in sess if ch.isdigit()) or 0)
        if user < spec.users // 100:
            low += 1
        elif user > spec.users // 2:
            high += 1
    assert low > high, (low, high)
