"""Scoped single-request re-audit: bit-identical bodies, cheaper than a
full audit, and a tamper verdict that stays scoped to the lineage."""

from __future__ import annotations

import pytest

from repro.bench import run_online_phase
from repro.common.errors import RejectReason
from repro.core import Auditor
from repro.forensics import UnknownRequest, reaudit_request
from repro.server import Executor, RandomScheduler
from repro.server.nondet import NondetSource
from repro.workloads import wiki_workload

from tests.conftest import counter_requests
from tests.forensics.conftest import chain_requests, make_timeline, serve


@pytest.fixture
def epoch_run(counter_app):
    executor = Executor(
        counter_app,
        scheduler=RandomScheduler(7),
        max_concurrency=4,
        nondet=NondetSource(seed=7),
        epoch_size=8,
    )
    return executor.serve(counter_requests())


def full_audit(app, run):
    return Auditor(app).audit_epochs(run.epochs(), run.initial_state)


def test_scoped_bodies_match_full_audit(counter_app, epoch_run):
    audit = full_audit(counter_app, epoch_run)
    assert audit.accepted, audit.detail
    timeline = make_timeline(counter_app, epoch_run)
    for rid in sorted(timeline.entries)[::7]:
        scoped = reaudit_request(timeline, rid)
        assert scoped.accepted, (rid, scoped.detail)
        assert scoped.body == audit.produced.get(rid)
        if scoped.body is not None:
            assert scoped.body == scoped.expected_body
        # Scoped replay must be strictly cheaper than the full audit.
        assert 0 < scoped.stats["steps"] < audit.stats["steps"]
        assert len(scoped.replayed) < len(timeline.entries)


def test_explain_scope_is_pinned():
    """Explain's scope on a wiki trace, as exact counts: the middle
    request's lineage closure replays 9 chunks, 200 of the 400 requests
    and 7,872 of the full audit's 41,804 steps.  A change to the closure,
    the chunk plan or the engine's step booking moves them."""
    workload = wiki_workload(scale=0.02, seed=1)
    execution = run_online_phase(workload, seed=1, epoch_size=30)
    audit = full_audit(workload.app, execution)
    assert audit.accepted, audit.detail
    timeline = make_timeline(workload.app, execution)
    rids = sorted(timeline.entries)
    target = rids[len(rids) // 2]
    scoped = reaudit_request(timeline, target)
    assert scoped.accepted, scoped.detail
    assert scoped.body == audit.produced[target]
    assert (len(workload.requests), timeline.epoch_count) == (400, 11)
    assert (audit.stats["steps"], scoped.stats["steps"]) == (41804, 7872)
    assert (len(scoped.replayed), scoped.chunks_replayed) == (200, 9)


def test_closure_is_replayed(chain_app):
    run = serve(chain_app, chain_requests(), epoch_size=2)
    timeline = make_timeline(chain_app, run)
    scoped = reaudit_request(timeline, "C")
    assert scoped.accepted, scoped.detail
    replayed = set(scoped.replayed)
    assert (timeline.entry("C").epoch, "C") in replayed
    for node in scoped.lineage.requests:
        assert node in replayed


def test_tampered_target_rejects_untouched_accepts(counter_app, epoch_run):
    rids = sorted(rid for rid, req
                  in epoch_run.trace.requests().items()
                  if req.script == "save.php")
    victim = rids[-1]
    event = next(e for e in epoch_run.trace.events
                 if e.is_response and e.rid == victim)
    object.__setattr__(event.payload, "body",
                       event.payload.body + "<!-- tampered -->")
    timeline = make_timeline(counter_app, epoch_run)

    verdict = reaudit_request(timeline, victim)
    assert not verdict.accepted
    assert verdict.reason is RejectReason.OUTPUT_MISMATCH
    assert victim in verdict.detail

    # A request that does not read the victim's writes still accepts,
    # even though chunk granularity may have replayed the victim.
    untouched = sorted(timeline.entries)[0]
    assert all(rid != victim for _, rid in
               reaudit_request(timeline, untouched).lineage.requests)
    clean = reaudit_request(timeline, untouched)
    assert clean.accepted, clean.detail


def test_unknown_request_raises(counter_app, epoch_run):
    timeline = make_timeline(counter_app, epoch_run)
    with pytest.raises(UnknownRequest, match="nope"):
        reaudit_request(timeline, "nope")
