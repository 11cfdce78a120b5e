"""Concurrent auditing: epoch-level parallelism and driver thread-safety.

Covers the epoch driver (``AuditSession``: redo-only state precompute +
the pool it is handed, two ``local_fleet`` workers here) under
concurrency and worker loss:

* the feed × ``epoch_workers`` × bundle matrix: ``Auditor.audit_epochs``
  over the recorded epochs against a hand-chained reference, and over
  the execution whole — one epoch — against ``ssco_audit``'s one pass
  (verdicts, produced bodies, deterministic stats, per-epoch summaries)
  on accept *and* reject bundles;
* the state-precompute pass itself: redo-only migrated states match the
  chained full audits' migrated states exactly;
* two threads each driving ``audit_epochs`` on one shared pool;
* SIGKILLed epoch workers falling back to a serial re-run of their
  epochs instead of escaping the audit.
"""

from __future__ import annotations

import threading

import pytest

from repro.common.errors import RejectReason
from repro.core import AuditConfig, Auditor, ssco_audit
from repro.core.partition import partition_audit_inputs
from repro.core.pipeline import AuditResult, iter_epoch_prepass
from repro.fleet import local_fleet
from repro.io import state_to_json
from repro.server import Executor, RandomScheduler
from repro.server.faulty import tamper_response
from repro.server.nondet import NondetSource
from tests.conftest import (
    audit_epochs,
    counter_requests,
    sigkill_workers_mid_epoch,
)

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
def test_epoch_driver_matrix(counter_app, local_pool, entry, epoch_workers,
                             bundle):
    """One driver, serial or on two workers, on honest and tampered
    bundles.  Fed the recorded epochs (``audit_epochs``) it returns the
    hand-chained reference's verdict, bodies, deterministic stats and
    epoch summaries; fed the execution whole (``ssco_audit``) — the one
    epoch of a server that never drained, which a session ships to its
    pool like any other — it returns those of ``ssco_audit``'s one
    pass."""
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
    pool = local_pool if epoch_workers > 1 else None
    for migrate in (False, True):
        result = Auditor(counter_app, AuditConfig(migrate=migrate)) \
            .audit_epochs(shards, execution.initial_state, pool)
        _assert_equivalent(reference, result)
        if migrate and reference.accepted:
            assert state_to_json(result.next_initial) == \
                state_to_json(reference.next_initial)
        else:
            assert result.next_initial is None
        assert ("state_precompute" in result.phases) == (epoch_workers > 1)


@pytest.mark.parametrize("victim_epoch", ["first", "last"])
def test_epoch_workers_matches_serial_reject(counter_app, local_pool,
                                             victim_epoch):
    """A tampered epoch rejects with the identical verdict, detail, and
    per-shard accounting — whether the rejection lands in the first
    epoch (everything after it discarded) or the last."""
    execution = _epoch_execution(counter_app)
    tampered = _tamper_epoch_response(execution, victim_epoch)
    serial = audit_epochs(counter_app, execution, trace=tampered)
    concurrent = audit_epochs(counter_app, execution, trace=tampered,
                               pool=local_pool)
    assert not serial.accepted
    assert serial.reason is RejectReason.OUTPUT_MISMATCH
    _assert_equivalent(serial, concurrent)
    assert concurrent.produced == {}


def test_epoch_workers_migrated_state_matches_chain(counter_app,
                                                   local_pool):
    execution = _epoch_execution(counter_app)
    serial = audit_epochs(counter_app, execution, migrate=True)
    concurrent = audit_epochs(counter_app, execution, migrate=True,
                               pool=local_pool)
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


def test_prepass_reject_falls_back_to_serial_chain(counter_app,
                                                   local_pool):
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
                               pool=local_pool)
    assert not serial.accepted
    _assert_equivalent(serial, concurrent)


def test_epoch_workers_unsharded_is_single_pass(counter_app, honest_run,
                                                local_pool):
    """Without cuts there is no chain to unroll: the one epoch audited
    on a pool is the ordinary single-pass audit."""
    plain = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                       honest_run.initial_state)
    pooled = audit_epochs(counter_app, honest_run, pool=local_pool)
    assert plain.accepted and pooled.accepted
    assert pooled.produced == plain.produced
    assert pooled.stats["groups"] == plain.stats["groups"]


# -- sessions handed a pool ------------------------------------------------------


@pytest.mark.parametrize("blocking", [False, True])
def test_session_epoch_workers_reject_and_skip(counter_app, local_pool,
                                               blocking):
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

    auditor = Auditor(counter_app, AuditConfig())
    with auditor.session(execution.initial_state, local_pool) as session:
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


def test_session_epoch_workers_chains_certified_state(counter_app,
                                                      local_pool):
    execution = _epoch_execution(counter_app)
    shards = execution.epochs()
    auditor = Auditor(counter_app, AuditConfig(migrate=True))
    serial = auditor.audit_epochs(shards, execution.initial_state)
    concurrent = auditor.audit_epochs(shards, execution.initial_state,
                                      local_pool)
    assert concurrent.accepted
    assert state_to_json(concurrent.next_initial) == \
        state_to_json(serial.next_initial)


def test_session_epoch_workers_with_reexec_workers(counter_app,
                                                   local_pool):
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
    concurrent = Auditor(counter_app, AuditConfig(max_group_size=3)
                         ).audit_epochs(shards, execution.initial_state,
                                        local_pool)
    _assert_equivalent(serial, concurrent)
    assert concurrent.stats["group_alphas"] == serial.stats["group_alphas"]


def test_epoch_workers_windowed_backpressure(counter_app, local_pool):
    """More epochs than the 2 * width submission window: the windowed
    driver still merges in order and stays bit-identical to the serial
    chain."""
    execution = _epoch_execution(counter_app, n=120, epoch_size=8)
    assert len(execution.epoch_marks) + 1 > 2 * local_pool.width
    serial = audit_epochs(counter_app, execution)
    concurrent = audit_epochs(counter_app, execution, pool=local_pool)
    _assert_equivalent(serial, concurrent)


def test_submit_epoch_on_epoch_workers_session(counter_app, local_pool):
    """A session handed a pool is natively asynchronous: submit_epoch
    returns before the epoch is audited, and handles resolve in order."""
    execution = _epoch_execution(counter_app)
    shards = execution.epochs()
    auditor = Auditor(counter_app, AuditConfig())
    with auditor.session(execution.initial_state, local_pool) as session:
        pending = [session.submit_epoch(s.trace, s.reports)
                   for s in shards]
        results = [p.result() for p in pending]
        assert all(p.done() for p in pending)
    assert [r.index for r in results] == list(range(len(shards)))
    assert all(r.accepted for r in results)
    assert session.epochs == results


@pytest.mark.parametrize("executor", ["process", "fleet"])
def test_crashed_epoch_audit_never_reports_accepted(counter_app,
                                                    local_pool,
                                                    monkeypatch, executor):
    """A non-AuditReject crash inside a concurrent epoch audit is
    latched: close() raises it, and *every* later close()/result()/
    property access re-raises instead of falling through to ACCEPTED
    over unaudited epochs — whichever pool (local worker processes or
    any other object with the pool's shape) ran the epoch."""
    execution = _epoch_execution(counter_app)
    shards = execution.epochs()

    def _boom(*args, **kwargs):
        raise RuntimeError("kaboom")

    if executor == "process":
        monkeypatch.setattr(local_pool, "run", _boom)
        pool = local_pool
    else:
        class _CrashingCoordinator:
            width = 2
            serial_fallbacks = 0
            run = staticmethod(_boom)

        pool = _CrashingCoordinator()
    auditor = Auditor(counter_app, AuditConfig())
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
    """A custom pipeline keeps the session serial (the prepass only
    stands in for the stock phases)."""
    from repro.core.pipeline import default_pipeline

    execution = _epoch_execution(counter_app)
    shards = execution.epochs()
    auditor = Auditor(counter_app, AuditConfig(),
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


def test_two_threads_audit_epochs_concurrently(counter_app, local_pool):
    """Two threads each driving audit_epochs on the same pool in one
    process: the coordinator checks its workers out to both sessions'
    epochs at once, which must not cross wires."""
    runs = [_epoch_execution(counter_app, seed=7),
            _epoch_execution(counter_app, seed=23)]
    references = [audit_epochs(counter_app, ex) for ex in runs]
    assert all(r.accepted for r in references)

    results = [None, None]
    errors = []

    def _drive(slot, execution):
        try:
            results[slot] = audit_epochs(counter_app, execution,
                                          pool=local_pool)
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


# -- killed workers: the serial fallback ---------------------------------------


def test_killed_worker_falls_back_to_serial(counter_app, monkeypatch):
    """Both epoch workers SIGKILLed mid-epoch must not escape the audit:
    with no live worker left, every epoch re-runs serially in this
    process and the audit completes with the serial chain's bodies and
    stats."""
    execution = _epoch_execution(counter_app)
    reference = audit_epochs(counter_app, execution)
    with local_fleet(2) as pool:
        killed = sigkill_workers_mid_epoch(monkeypatch, victims=2)
        audit = audit_epochs(counter_app, execution, pool=pool)
    assert len(killed) == 2 and pool.redispatches == 2
    assert audit.accepted, (audit.reason, audit.detail)
    assert reference.accepted
    _assert_equivalent(reference, audit)
    assert pool.remote_epochs == 0
    assert pool.serial_fallbacks == audit.stats["shard_count"]


def test_killed_worker_fallback_still_rejects_tampering(counter_app,
                                                        monkeypatch):
    """The serial fallback is a full audit path: verdicts on tampered
    bundles are preserved, not silently accepted."""
    execution = _epoch_execution(counter_app)
    tampered = _tamper_epoch_response(execution, "last")
    with local_fleet(2) as pool:
        sigkill_workers_mid_epoch(monkeypatch, victims=2)
        audit = audit_epochs(counter_app, execution, trace=tampered,
                             pool=pool)
    assert pool.serial_fallbacks >= 1
    assert not audit.accepted
    assert audit.reason is RejectReason.OUTPUT_MISMATCH


# -- config / validation ------------------------------------------------------


def test_epoch_workers_validation(capsys):
    """How many epochs run at once is the pool's width — a deployment
    flag (``--epoch-workers``, validated by the CLI), never a knob."""
    from repro.__main__ import main

    with pytest.raises(TypeError, match="epoch_workers"):
        AuditConfig(epoch_workers=4)
    with pytest.raises(SystemExit) as excinfo:
        main(["audit", "b.jsonl", "--epoch-workers", "0"])
    assert excinfo.value.code == 2
    assert "--epoch-workers" in capsys.readouterr().err
    assert "epoch_workers" not in AuditConfig().describe()
