"""Concurrent auditing: epoch-level parallelism and driver thread-safety.

Covers the epoch driver (``AuditSession``: redo-only state precompute +
``epoch_workers`` pool) under concurrency and worker loss:

* the feed × ``epoch_workers`` × bundle matrix: ``Auditor.audit_epochs``
  over the recorded epochs against a hand-chained reference, and over
  the execution whole — one epoch — against ``ssco_audit``'s one pass
  (verdicts, produced bodies, deterministic stats, per-epoch summaries)
  on accept *and* reject bundles;
* the state-precompute pass itself: redo-only migrated states match the
  chained full audits' migrated states exactly;
* two threads each driving ``audit_epochs(..., epoch_workers=2)`` in
  one process (the pool-creation race);
* a killed epoch worker (``BrokenProcessPool``) falling back to a
  serial re-run of its epoch instead of escaping the audit.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

from repro.common.errors import RejectReason
from repro.core import AuditConfig, Auditor, ssco_audit
from repro.core.partition import partition_audit_inputs
from repro.core.pipeline import AuditResult, iter_epoch_prepass
from repro.core.reexec import (
    _BACKENDS,
    PlainInterpBackend,
    register_reexec_backend,
)
from repro.io import state_to_json
from repro.server import Executor, RandomScheduler
from repro.server.faulty import tamper_response
from repro.server.nondet import NondetSource
from tests.conftest import audit_epochs, counter_requests

#: Stats that must match exactly between serial and concurrent audits
#: (timers excluded: wall-clock is not deterministic).
_DET_STATS = (
    "shard_count", "graph_nodes", "graph_edges", "db_queries_issued",
    "dedup_hits", "dedup_misses", "groups", "grouped_requests",
    "fallback_requests", "divergences", "steps", "multi_steps",
    "multi_slots", "multi_classes",
    "group_alphas",
)

_SUMMARY_KEYS = ("shard", "requests", "events", "accepted", "groups")


def _epoch_execution(app, n=40, epoch_size=8, seed=7):
    executor = Executor(
        app,
        scheduler=RandomScheduler(seed),
        max_concurrency=4,
        nondet=NondetSource(seed=seed),
        epoch_size=epoch_size,
    )
    execution = executor.serve(counter_requests(n))
    assert len(execution.epoch_marks) >= 2, "need several quiescent cuts"
    return execution


def _assert_equivalent(serial, concurrent):
    assert concurrent.accepted == serial.accepted, (
        concurrent.reason, concurrent.detail)
    assert concurrent.reason == serial.reason
    assert concurrent.detail == serial.detail
    assert concurrent.produced == serial.produced
    for key in _DET_STATS:
        assert concurrent.stats.get(key) == serial.stats.get(key), key
    serial_shards = [
        {k: s[k] for k in _SUMMARY_KEYS}
        for s in serial.stats.get("shards", [])
    ]
    concurrent_shards = [
        {k: s[k] for k in _SUMMARY_KEYS}
        for s in concurrent.stats.get("shards", [])
    ]
    assert concurrent_shards == serial_shards


# -- the matrix: what is fed x epoch_workers x bundle ---------------------------


def _tamper_epoch_response(execution, which):
    """The trace with one response body forged in the first/last epoch."""
    events = execution.trace.events
    if which == "first":
        pool = events[:execution.epoch_marks[0]]
    else:
        pool = events[execution.epoch_marks[-1]:]
    victim = next(e.rid for e in pool if e.is_response and e.payload.body)
    return tamper_response(execution.trace, victim, "forged!")


def _truncate_op_log(reports):
    """Reports with one op-log entry dropped: ProcessOpReports — and so
    the redo-only prepass — rejects."""
    tampered = reports.deep_copy()
    obj = next(o for o, log in tampered.op_logs.items() if len(log) > 2)
    tampered.op_logs[obj] = tampered.op_logs[obj][:-1]
    return tampered


def _matrix_bundle(execution, bundle):
    trace, reports = execution.trace, execution.reports
    if bundle == "tampered-first-epoch":
        trace = _tamper_epoch_response(execution, "first")
    elif bundle == "tampered-last-epoch":
        trace = _tamper_epoch_response(execution, "last")
    elif bundle == "prepass-rejecting":
        reports = _truncate_op_log(reports)
    return trace, reports


def _reference_chain(app, shards, initial_state):
    """The epoch chain written out by hand: one plain single-pass audit
    per shard, each against the previous shard's migrated state — no
    session, no pool — merged the way the drivers promise to."""
    merged = AuditResult(accepted=True)
    merged.stats["shards"] = []
    state = initial_state
    for shard in shards:
        result = ssco_audit(app, shard.trace, shard.reports, state,
                            migrate=True)
        for key in _DET_STATS:
            if key not in result.stats:
                continue
            if key == "group_alphas":
                merged.stats.setdefault(key, []).extend(result.stats[key])
            else:
                merged.stats[key] = (merged.stats.get(key, 0)
                                     + result.stats[key])
        merged.stats["shards"].append({
            "shard": shard.index, "requests": shard.request_count,
            "events": len(shard.trace), "accepted": result.accepted,
            "groups": result.stats.get("groups", 0),
        })
        # The epochs audited: nothing past a rejection is.
        merged.stats["shard_count"] = len(merged.stats["shards"])
        if not result.accepted:
            merged.accepted = False
            merged.reason, merged.detail = result.reason, result.detail
            merged.produced = {}
            return merged
        merged.produced.update(result.produced)
        state = result.next_initial
    merged.next_initial = state
    return merged


@pytest.mark.parametrize("bundle", [
    "honest", "tampered-first-epoch", "tampered-last-epoch",
    "prepass-rejecting",
])
@pytest.mark.parametrize("epoch_workers", [1, 2])
@pytest.mark.parametrize("entry", ["ssco_audit", "audit_epochs"])
def test_epoch_driver_matrix(counter_app, entry, epoch_workers, bundle):
    """One driver, serial or concurrent, on honest and tampered bundles.
    Fed the recorded epochs (``audit_epochs``) it returns the
    hand-chained reference's verdict, bodies, deterministic stats and
    epoch summaries; fed the execution whole (``ssco_audit``) — the one
    epoch of a server that never drained, which an ``epoch_workers``
    session ships to its pool like any other — it returns those of
    ``ssco_audit``'s one pass."""
    execution = _epoch_execution(counter_app)
    trace, reports = _matrix_bundle(execution, bundle)
    if entry == "ssco_audit":
        shards = partition_audit_inputs(trace, reports)
        assert len(shards) == 1
    else:
        shards = partition_audit_inputs(trace, reports,
                                        execution.epoch_marks)
    reference = _reference_chain(counter_app, shards,
                                 execution.initial_state)
    assert reference.accepted == (bundle == "honest")
    if entry == "ssco_audit":
        one_pass = ssco_audit(counter_app, trace, reports,
                              execution.initial_state)
        assert (reference.reason, reference.detail, reference.produced) \
            == (one_pass.reason, one_pass.detail, one_pass.produced)
    for migrate in (False, True):
        result = Auditor(counter_app, AuditConfig(
            epoch_workers=epoch_workers, migrate=migrate,
        )).audit_epochs(shards, execution.initial_state)
        _assert_equivalent(reference, result)
        if migrate and reference.accepted:
            assert state_to_json(result.next_initial) == \
                state_to_json(reference.next_initial)
        else:
            assert result.next_initial is None
        assert ("state_precompute" in result.phases) == (epoch_workers > 1)


@pytest.mark.parametrize("victim_epoch", ["first", "last"])
def test_epoch_workers_matches_serial_reject(counter_app, victim_epoch):
    """A tampered epoch rejects with the identical verdict, detail, and
    per-shard accounting — whether the rejection lands in the first
    epoch (everything after it discarded) or the last."""
    execution = _epoch_execution(counter_app)
    tampered = _tamper_epoch_response(execution, victim_epoch)
    serial = audit_epochs(counter_app, execution, trace=tampered)
    concurrent = audit_epochs(counter_app, execution, trace=tampered,
                               epoch_workers=4)
    assert not serial.accepted
    assert serial.reason is RejectReason.OUTPUT_MISMATCH
    _assert_equivalent(serial, concurrent)
    assert concurrent.produced == {}


def test_epoch_workers_migrated_state_matches_chain(counter_app):
    execution = _epoch_execution(counter_app)
    serial = audit_epochs(counter_app, execution, migrate=True)
    concurrent = audit_epochs(counter_app, execution, migrate=True,
                               epoch_workers=3)
    assert serial.accepted and concurrent.accepted
    assert state_to_json(concurrent.next_initial) == \
        state_to_json(serial.next_initial)


def test_state_precompute_matches_chained_migration(counter_app):
    """The tentpole invariant: the redo-only prepass materializes
    exactly the initial states the chained full audits migrate."""
    execution = _epoch_execution(counter_app)
    shards = execution.epochs()
    primed = list(iter_epoch_prepass(counter_app, shards,
                                     execution.initial_state))
    assert len(primed) == len(shards)
    state = execution.initial_state
    for index, (shard, actx) in enumerate(primed):
        assert actx.result.accepted
        assert state_to_json(actx.initial_state) == state_to_json(state)
        full = ssco_audit(counter_app, shard.trace, shard.reports, state,
                          migrate=True)
        assert full.accepted
        assert state_to_json(actx.result.next_initial) == \
            state_to_json(full.next_initial)
        state = full.next_initial


def test_prepass_reject_falls_back_to_serial_chain(counter_app):
    """When the redo-only prepass itself rejects (here: a truncated op
    log caught by ProcessOpReports), its result already is the epoch's
    verdict, and it is identical to the serial chain's."""
    execution = _epoch_execution(counter_app)
    tampered = _truncate_op_log(execution.reports)
    shards = partition_audit_inputs(execution.trace, tampered,
                                    execution.epoch_marks)
    primed = list(iter_epoch_prepass(counter_app, shards,
                                     execution.initial_state))
    # The walk stops at the rejecting shard, which is still yielded.
    assert not primed[-1][1].result.accepted
    assert all(actx.result.accepted for _, actx in primed[:-1])
    serial = audit_epochs(counter_app, execution, reports=tampered)
    concurrent = audit_epochs(counter_app, execution, reports=tampered,
                               epoch_workers=4)
    assert not serial.accepted
    _assert_equivalent(serial, concurrent)


def test_epoch_workers_unsharded_is_single_pass(counter_app, honest_run):
    """Without cuts there is no chain to unroll; epoch_workers is inert
    and the ordinary single-pass audit runs."""
    plain = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                       honest_run.initial_state)
    inert = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                       honest_run.initial_state, epoch_workers=8)
    assert plain.accepted and inert.accepted
    assert inert.produced == plain.produced
    assert inert.stats["groups"] == plain.stats["groups"]


# -- sessions: epoch_workers mode ---------------------------------------------


@pytest.mark.parametrize("blocking", [False, True])
def test_session_epoch_workers_reject_and_skip(counter_app, blocking):
    """Per-epoch results after a rejection are normalized to the serial
    session's *skipped* results, even though the concurrent session may
    have speculatively audited (or still be auditing) those epochs."""
    execution = _epoch_execution(counter_app)
    cut = execution.epoch_marks[0]
    victim = next(e.rid for e in execution.trace.events[cut:]
                  if e.is_response and e.payload.body)
    tampered = tamper_response(execution.trace, victim, "forged!")
    shards = partition_audit_inputs(tampered, execution.reports,
                                    execution.epoch_marks)
    assert len(shards) >= 3

    serial_auditor = Auditor(counter_app, AuditConfig())
    with serial_auditor.session(execution.initial_state) as session:
        serial_epochs = [session.feed_epoch(s.trace, s.reports)
                         for s in shards]
    serial_merged = session.close()

    auditor = Auditor(counter_app, AuditConfig(epoch_workers=3))
    with auditor.session(execution.initial_state) as session:
        if blocking:
            epochs = [session.feed_epoch(s.trace, s.reports)
                      for s in shards]
        else:
            pending = [session.submit_epoch(s.trace, s.reports)
                       for s in shards]
            epochs = [p.result() for p in pending]
    merged = session.close()

    _assert_equivalent(serial_merged, merged)
    assert session.rejected
    for mine, ref in zip(epochs, serial_epochs):
        assert mine.accepted == ref.accepted
        assert mine.skipped == ref.skipped
        assert mine.reason == ref.reason
        assert mine.detail == ref.detail
    assert session.epochs == epochs


def test_session_epoch_workers_chains_certified_state(counter_app):
    execution = _epoch_execution(counter_app)
    shards = execution.epochs()
    serial = Auditor(counter_app, AuditConfig(migrate=True)) \
        .audit_epochs(shards, execution.initial_state)
    concurrent = Auditor(
        counter_app, AuditConfig(migrate=True, epoch_workers=2)
    ).audit_epochs(shards, execution.initial_state)
    assert concurrent.accepted
    assert state_to_json(concurrent.next_initial) == \
        state_to_json(serial.next_initial)


def test_session_epoch_workers_with_reexec_workers(counter_app):
    """An epoch worker chunks its groups as the serial chain does: with
    a small ``max_group_size`` the group counts and per-group alphas
    match, not just the bodies."""
    execution = _epoch_execution(counter_app, n=120, epoch_size=40)
    shards = execution.epochs()
    plain = Auditor(counter_app, AuditConfig()).audit_epochs(
        shards, execution.initial_state)
    serial = Auditor(counter_app, AuditConfig(max_group_size=3)
                     ).audit_epochs(shards, execution.initial_state)
    assert serial.stats["groups"] > plain.stats["groups"]
    concurrent = Auditor(
        counter_app, AuditConfig(epoch_workers=2, max_group_size=3)
    ).audit_epochs(shards, execution.initial_state)
    _assert_equivalent(serial, concurrent)
    assert concurrent.stats["group_alphas"] == serial.stats["group_alphas"]


def test_epoch_workers_windowed_backpressure(counter_app):
    """More epochs than the 2*epoch_workers submission window: the
    windowed driver still merges in order and stays bit-identical to
    the serial chain."""
    execution = _epoch_execution(counter_app, n=120, epoch_size=8)
    assert len(execution.epoch_marks) + 1 > 2 * 2  # window is 4
    serial = audit_epochs(counter_app, execution)
    concurrent = audit_epochs(counter_app, execution, epoch_workers=2)
    _assert_equivalent(serial, concurrent)


def test_submit_epoch_on_epoch_workers_session(counter_app):
    """An epoch_workers session is natively asynchronous: submit_epoch
    returns before the epoch is audited, and handles resolve in order."""
    execution = _epoch_execution(counter_app)
    shards = execution.epochs()
    auditor = Auditor(counter_app, AuditConfig(epoch_workers=2))
    with auditor.session(execution.initial_state) as session:
        pending = [session.submit_epoch(s.trace, s.reports)
                   for s in shards]
        results = [p.result() for p in pending]
        assert all(p.done() for p in pending)
    assert [r.index for r in results] == list(range(len(shards)))
    assert all(r.accepted for r in results)
    assert session.epochs == results


@pytest.mark.parametrize("executor", ["process", "fleet"])
def test_crashed_epoch_audit_never_reports_accepted(counter_app,
                                                    monkeypatch, executor):
    """A non-AuditReject crash inside a concurrent epoch audit is
    latched: close() raises it, and *every* later close()/result()/
    property access re-raises instead of falling through to ACCEPTED
    over unaudited epochs — whichever executor (the local pool or a
    fleet coordinator) ran the epoch."""
    import repro.core.epochpool as epochpool_mod

    execution = _epoch_execution(counter_app)
    shards = execution.epochs()

    def _boom(*args, **kwargs):
        raise RuntimeError("kaboom")

    pool = None
    if executor == "process":
        monkeypatch.setattr(epochpool_mod.EpochPool, "run", _boom)
        config = AuditConfig(epoch_workers=2)
    else:
        class _CrashingCoordinator:
            width = 2
            serial_fallbacks = 0
            run = staticmethod(_boom)

        pool = _CrashingCoordinator()
        config = AuditConfig()
    auditor = Auditor(counter_app, config)
    session = auditor.session(execution.initial_state, pool)
    for shard in shards:
        session.submit_epoch(shard.trace, shard.reports)
    with pytest.raises(RuntimeError, match="kaboom"):
        session.close()
    with pytest.raises(RuntimeError, match="kaboom"):
        session.close()
    with pytest.raises(RuntimeError, match="kaboom"):
        session.result()
    with pytest.raises(RuntimeError, match="kaboom"):
        _ = session.rejected


def test_custom_pipeline_keeps_serial_session(counter_app):
    """A custom pipeline opts the session out of concurrent mode (the
    prepass only stands in for the stock phases)."""
    from repro.core.pipeline import default_pipeline

    execution = _epoch_execution(counter_app)
    shards = execution.epochs()
    auditor = Auditor(counter_app, AuditConfig(epoch_workers=4),
                      pipeline=default_pipeline())
    session = auditor.session(execution.initial_state)
    assert session._pool is None
    merged = auditor.audit_epochs(shards, execution.initial_state)
    session.close()
    assert merged.accepted
    # Handing it a pool it could not use is an error, not a no-op.
    with pytest.raises(ValueError, match="custom pipeline"):
        auditor.session(execution.initial_state, pool=object())


# -- two sessions auditing simultaneously in one process ----------------------


def test_two_threads_audit_epochs_concurrently(counter_app):
    """Two threads each driving audit_epochs with epoch_workers > 1 in
    one process: their epoch pools are created and fed concurrently,
    which must not cross wires (executor creation and submission are
    serialized by epochpool._POOL_LOCK)."""
    runs = [_epoch_execution(counter_app, seed=7),
            _epoch_execution(counter_app, seed=23)]
    references = [audit_epochs(counter_app, ex) for ex in runs]
    assert all(r.accepted for r in references)

    results = [None, None]
    errors = []

    def _drive(slot, execution):
        try:
            results[slot] = audit_epochs(counter_app, execution,
                                          epoch_workers=2)
        except BaseException as exc:  # surfaced in the main thread
            errors.append((slot, exc))

    threads = [threading.Thread(target=_drive, args=(slot, ex))
               for slot, ex in enumerate(runs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    for merged, reference in zip(results, references):
        assert merged.accepted, (merged.reason, merged.detail)
        assert merged.produced == reference.produced


# -- killed workers: BrokenProcessPool fallback -------------------------------


class _KamikazeBackend(PlainInterpBackend):
    """Dies instantly inside epoch-pool workers; behaves like ``interp``
    in the parent process (the serial-fallback path)."""

    name = "kamikaze"

    def run_chunk(self, app, rids, requests, reports, ctx, strict, dedup,
                  produced, stats):
        if multiprocessing.current_process().name != "MainProcess":
            os._exit(1)
        super().run_chunk(app, rids, requests, reports, ctx, strict,
                          dedup, produced, stats)


def test_killed_worker_falls_back_to_serial(counter_app):
    """An epoch worker killed mid-epoch (BrokenProcessPool) must not
    escape the audit: the lost epochs re-run serially in the parent and
    the audit completes with the same bodies the reference backend
    makes.  (Under a forced spawn start method the backend is
    unregistered in the fresh workers, so the work unit fails there —
    the same fallback covers that, too.)"""
    execution = _epoch_execution(counter_app)
    register_reexec_backend("kamikaze", _KamikazeBackend)
    try:
        audit = audit_epochs(counter_app, execution, epoch_workers=2,
                             backend="kamikaze")
        reference = audit_epochs(counter_app, execution, backend="interp")
        assert audit.accepted, (audit.reason, audit.detail)
        assert reference.accepted
        assert audit.produced == reference.produced
        assert audit.stats["fallback_requests"] == \
            reference.stats["fallback_requests"]
    finally:
        _BACKENDS.pop("kamikaze", None)


def test_killed_worker_fallback_still_rejects_tampering(counter_app):
    """The serial fallback is a full audit path: verdicts on tampered
    bundles are preserved, not silently accepted."""
    execution = _epoch_execution(counter_app)
    tampered = _tamper_epoch_response(execution, "last")
    register_reexec_backend("kamikaze", _KamikazeBackend)
    try:
        audit = audit_epochs(counter_app, execution, trace=tampered,
                             epoch_workers=2, backend="kamikaze")
        assert not audit.accepted
        assert audit.reason is RejectReason.OUTPUT_MISMATCH
    finally:
        _BACKENDS.pop("kamikaze", None)


# -- config / validation ------------------------------------------------------


def test_epoch_workers_validation():
    with pytest.raises(ValueError, match="epoch_workers"):
        AuditConfig(epoch_workers=0)
    with pytest.raises(ValueError, match="epoch_workers"):
        AuditConfig(epoch_workers=-2)
    config = AuditConfig(epoch_workers=4)
    assert "epoch_workers=4" in config.describe()
    assert "epoch_workers" not in AuditConfig().describe()
    round_trip = AuditConfig.from_json(config.to_json())
    assert round_trip.epoch_workers == 4
