"""The auditing service API (repro.core.auditor).

The acceptance bar: an :class:`AuditSession` fed the recorded epochs
one by one — ``execution.epochs()`` in memory, ``BundleReader.epochs()``
from a JSONL stream — must reach the verdict, the produced bodies and
the deterministic stats of one pipeline pass over the whole execution
(``ssco_audit``), on honest and faulty executions, across all three
paper workloads: where the recorder cut an epoch changes what the
auditor holds in memory, never what it concludes.
"""

from __future__ import annotations

import copy

import pytest

from repro.common.errors import RejectReason
from repro.core import Auditor, AuditConfig, ssco_audit
from repro.core.auditor import AuditSession, EpochResult
from repro.core.partition import partition_audit_inputs
from repro.core.pipeline import AuditPipeline, default_pipeline
from repro.io import BundleReader, save_audit_bundle_segmented
from repro.objects.base import OpRecord
from repro.server import Application, Executor, RandomScheduler
from repro.server.faulty import tamper_response
from repro.server.nondet import NondetSource
from repro.trace.events import Request
from tests.conftest import audit_epochs, counter_requests

#: Stats that must match exactly between two audits of the same epochs
#: (timers excluded: wall-clock is not deterministic).
_DET_STATS = (
    "shard_count", "graph_nodes", "graph_edges", "db_queries_issued",
    "dedup_hits", "dedup_misses", "groups", "grouped_requests",
    "fallback_requests", "divergences", "steps", "multi_steps",
    "multi_slots", "multi_classes",
    "group_alphas",
)
#: ... and between the epoch chain and one pass over everything: the
#: chain counts its epochs and drops the ordering edges across a cut.
_CUT_INVARIANT_STATS = tuple(
    key for key in _DET_STATS if key not in ("shard_count", "graph_edges"))


def _epoch_execution(app, n=24, epoch_size=8, seed=7):
    executor = Executor(
        app,
        scheduler=RandomScheduler(seed),
        max_concurrency=4,
        nondet=NondetSource(seed=seed),
        epoch_size=epoch_size,
    )
    execution = executor.serve(counter_requests(n))
    assert execution.epoch_marks, "need interior quiescent cuts"
    return execution


def _shard_summary(stats):
    return [
        {k: s[k] for k in ("shard", "requests", "events", "accepted",
                           "groups")}
        for s in stats.get("shards", [])
    ]


def _assert_equivalent(one_shot, merged):
    assert merged.accepted == one_shot.accepted, (
        merged.reason, merged.detail)
    assert merged.reason == one_shot.reason
    assert merged.produced == one_shot.produced
    for key in _DET_STATS:
        assert merged.stats.get(key) == one_shot.stats.get(key), key
    assert _shard_summary(merged.stats) == _shard_summary(one_shot.stats)


def _assert_same_outcome(one_pass, merged):
    """The epoch chain against one pass over the whole execution."""
    assert merged.accepted == one_pass.accepted, (
        merged.reason, merged.detail)
    assert merged.reason == one_pass.reason
    assert merged.produced == one_pass.produced
    if one_pass.accepted:  # a rejecting chain stops short of the rest
        for key in _CUT_INVARIANT_STATS:
            assert merged.stats.get(key) == one_pass.stats.get(key), key


def test_session_matches_one_shot_honest(counter_app):
    execution = _epoch_execution(counter_app)
    one_shot = ssco_audit(counter_app, execution.trace, execution.reports,
                          execution.initial_state)
    assert one_shot.accepted and "shard_count" not in one_shot.stats
    merged = audit_epochs(counter_app, execution)
    assert merged.stats["shard_count"] == len(execution.epoch_marks) + 1
    _assert_same_outcome(one_shot, merged)


def test_session_matches_one_shot_faulty(counter_app):
    execution = _epoch_execution(counter_app)
    # Tamper a response that lands *after* the first cut so the session
    # accepts at least one epoch before rejecting.
    cut = execution.epoch_marks[0]
    victim = next(e.rid for e in execution.trace.events[cut:]
                  if e.is_response and e.payload.body)
    tampered = tamper_response(execution.trace, victim, "forged!")
    one_shot = ssco_audit(counter_app, tampered, execution.reports,
                          execution.initial_state)
    assert not one_shot.accepted
    assert one_shot.reason is RejectReason.OUTPUT_MISMATCH
    merged = audit_epochs(counter_app, execution, trace=tampered)
    _assert_same_outcome(one_shot, merged)
    assert merged.produced == {}
    assert [s["accepted"] for s in merged.stats["shards"]] == [True, False]


@pytest.mark.parametrize("workload_name", ["wiki", "forum", "hotcrp"])
@pytest.mark.parametrize("faulty", [False, True])
def test_session_equivalence_all_workloads(workload_name, faulty):
    from repro.bench.harness import run_online_phase
    from repro.workloads import (
        forum_workload,
        hotcrp_workload,
        wiki_workload,
    )

    factory = {"wiki": wiki_workload, "forum": forum_workload,
               "hotcrp": hotcrp_workload}[workload_name]
    workload = factory(scale=0.005, seed=2)
    execution = run_online_phase(workload, seed=2, epoch_size=20)
    assert execution.epoch_marks
    trace = execution.trace
    if faulty:
        victim = next(e.rid for e in reversed(trace.events)
                      if e.is_response and e.payload.body)
        trace = tamper_response(trace, victim, "forged!")
    one_shot = ssco_audit(workload.app, trace, execution.reports,
                          execution.initial_state)
    assert one_shot.accepted is (not faulty), (
        one_shot.reason, one_shot.detail)
    merged = audit_epochs(workload.app, execution, trace=trace)
    _assert_same_outcome(one_shot, merged)


def test_session_from_bundle_reader_stream(tmp_path, counter_app):
    """The acceptance-criteria path: epochs streamed from a segmented
    JSONL bundle into a session match the audit of the execution's own
    epochs bit for bit."""
    execution = _epoch_execution(counter_app)
    path = str(tmp_path / "bundle.jsonl")
    save_audit_bundle_segmented(path, execution.trace, execution.reports,
                                execution.initial_state,
                                execution.epoch_marks)
    one_shot = audit_epochs(counter_app, execution)
    with BundleReader(path) as reader:
        initial = reader.read_initial_state()
        merged = Auditor(counter_app, AuditConfig()).audit_epochs(
            reader.epochs(), initial
        )
    _assert_equivalent(one_shot, merged)


def test_epochs_after_rejection_are_skipped(counter_app):
    execution = _epoch_execution(counter_app)
    victim = next(e.rid for e in execution.trace.events
                  if e.is_response and e.payload.body)
    tampered = tamper_response(execution.trace, victim, "forged!")
    shards = partition_audit_inputs(tampered, execution.reports,
                                    execution.epoch_marks)
    assert len(shards) > 2
    auditor = Auditor(counter_app)
    with auditor.session(execution.initial_state) as session:
        results = [session.feed_epoch(s.trace, s.reports) for s in shards]
    assert not results[0].accepted
    assert not results[0].skipped
    for later in results[1:]:
        assert later.skipped and not later.accepted
        assert later.reason is results[0].reason
        assert "already rejected" in later.detail
    merged = session.close()
    assert not merged.accepted
    assert merged.reason is results[0].reason
    assert session.rejected


@pytest.mark.parametrize("epoch_workers", [1, 2])
@pytest.mark.parametrize("forged", [False, True])
def test_on_epoch_is_called_once_per_audited_epoch(counter_app, local_pool,
                                                   forged, epoch_workers):
    """The one loop says what settled: ``audit_epochs`` calls
    ``on_epoch`` once per *audited* epoch, in feed order, never for a
    skipped one — on the serial chain and the pool alike, and on a
    stream whose third epoch rejects.  The sequence is ``session.epochs``
    of a session fed the whole stream, minus the skipped tail."""
    execution = _epoch_execution(counter_app, n=48)
    trace = execution.trace
    if forged:
        third = execution.epochs()[2].trace
        victim = next(e.rid for e in third.events
                      if e.is_response and e.payload.body)
        trace = tamper_response(trace, victim, "forged!")
    shards = partition_audit_inputs(trace, execution.reports,
                                    execution.epoch_marks)
    assert len(shards) >= 5
    auditor = Auditor(counter_app)
    pool = local_pool if epoch_workers > 1 else None
    calls = []
    merged = auditor.audit_epochs(shards, execution.initial_state, pool,
                                  on_epoch=calls.append)
    with auditor.session(execution.initial_state, pool) as session:
        for shard in shards:
            session.submit_epoch(shard.trace, shard.reports)
        fed = session.epochs
    assert len(fed) == len(shards)
    audited = [epoch for epoch in fed if not epoch.skipped]
    assert len(audited) == (3 if forged else len(shards))
    assert all(epoch.skipped for epoch in fed[len(audited):])

    def told(epochs):
        return [(e.index, e.accepted, e.reason, e.requests, e.produced)
                for e in epochs]

    assert told(calls) == told(audited)
    assert [e.index for e in calls] == list(range(len(audited)))
    assert merged.accepted is (not forged)
    assert merged.stats["shard_count"] == len(calls)
    if forged:
        assert calls[-1].reason is RejectReason.OUTPUT_MISMATCH


def test_a_record_that_does_not_decode_is_a_verdict(counter_app,
                                                    local_pool):
    """``audit_epochs`` owns the end of the stream: when the iterable
    raises ``MalformedBundle`` the epochs before it settle (and are
    told to ``on_epoch``), and the result is ``malformed_bundle`` with
    their stats — unless one of them had already rejected."""
    from repro.common.errors import MalformedBundle

    execution = _epoch_execution(counter_app, n=40)

    def torn(shards):
        yield from shards[:3]
        raise MalformedBundle("KeyError: 'rid'")

    auditor = Auditor(counter_app)
    for pool in (None, local_pool):
        calls = []
        result = auditor.audit_epochs(torn(execution.epochs()),
                                      execution.initial_state, pool,
                                      on_epoch=calls.append)
        assert (result.accepted, result.reason, result.detail) == (
            False, RejectReason.MALFORMED_BUNDLE, "KeyError: 'rid'")
        assert [(e.index, e.accepted) for e in calls] == [
            (0, True), (1, True), (2, True)]
        assert result.stats["shard_count"] == 3
        assert result.produced == {} and result.next_initial is None
        # An earlier rejection stands: the malformed record came later.
        victim = next(e.rid for e in execution.epochs()[1].trace.events
                      if e.is_response and e.payload.body)
        forged = partition_audit_inputs(
            tamper_response(execution.trace, victim, "forged!"),
            execution.reports, execution.epoch_marks)
        result = auditor.audit_epochs(torn(forged), execution.initial_state,
                                      pool)
        assert result.reason is RejectReason.OUTPUT_MISMATCH
        assert result.stats["shard_count"] == 2


def test_session_chains_migrated_state(counter_app):
    execution = _epoch_execution(counter_app)
    shards = execution.epochs()
    auditor = Auditor(counter_app, AuditConfig(migrate=True))
    session = auditor.session(execution.initial_state)
    assert session.current_state is execution.initial_state
    first = session.feed_epoch(shards[0].trace, shards[0].reports)
    assert first.accepted and bool(first)
    assert session.current_state is not execution.initial_state
    for shard in shards[1:]:
        session.feed_epoch(shard.trace, shard.reports)
    merged = session.close()
    assert merged.accepted
    # migrate=True surfaces the final chained state: the one a single
    # pass over everything migrates.
    one_shot = ssco_audit(counter_app, execution.trace, execution.reports,
                          execution.initial_state, migrate=True)
    assert merged.next_initial is not None
    from repro.io import state_to_json
    assert state_to_json(merged.next_initial) == \
        state_to_json(one_shot.next_initial)
    # close() is idempotent.
    assert session.close() is merged


def test_closed_session_refuses_feeds(counter_app, honest_run):
    session = Auditor(counter_app).session(honest_run.initial_state)
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.feed_epoch(honest_run.trace, honest_run.reports)
    with pytest.raises(RuntimeError, match="closed"):
        session.submit_epoch(honest_run.trace, honest_run.reports)


def test_submit_epoch_handles_resolve_in_feed_order(counter_app):
    """On a serial session submit_epoch audits inline: every handle is
    resolved when it is returned, in feed order."""
    execution = _epoch_execution(counter_app)
    shards = execution.epochs()
    auditor = Auditor(counter_app)
    with auditor.session(execution.initial_state) as session:
        pending = [session.submit_epoch(s.trace, s.reports)
                   for s in shards]
        assert all(p.done() for p in pending)
        results = [p.result() for p in pending]
    assert [p.index for p in pending] == list(range(len(shards)))
    assert [r.index for r in results] == list(range(len(shards)))
    assert all(r.accepted for r in results)
    assert session.epochs == results


def test_session_requires_migrate_phase(counter_app, honest_run):
    # A custom pipeline without MigratePhase cannot chain epoch state.
    stripped = AuditPipeline(default_pipeline().phases[:-1])
    auditor = Auditor(counter_app, pipeline=stripped)
    session = auditor.session(honest_run.initial_state)
    with pytest.raises(ValueError, match="MigratePhase"):
        session.feed_epoch(honest_run.trace, honest_run.reports)


def test_auditor_rejects_config_plus_knobs(counter_app):
    with pytest.raises(ValueError, match="not both"):
        Auditor(counter_app, AuditConfig(), max_group_size=2)
    # Keyword knobs alone build (and validate) a config.
    assert Auditor(counter_app, max_group_size=2).config.max_group_size == 2
    with pytest.raises(ValueError):
        Auditor(counter_app, max_group_size=-1)


def test_auditor_one_shot_matches_ssco_audit(counter_app, honest_run):
    direct = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                        honest_run.initial_state)
    service = Auditor(counter_app).audit(
        honest_run.trace, honest_run.reports, honest_run.initial_state
    )
    assert service.accepted and direct.accepted
    assert service.produced == direct.produced
    for key in _DET_STATS[1:]:
        assert service.stats.get(key) == direct.stats.get(key), key


# -- re-exec backends ---------------------------------------------------------


def test_interp_backend_verdict_and_bodies_match(counter_app, honest_run):
    acc = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                     honest_run.initial_state)
    ref = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                     honest_run.initial_state, backend="interp")
    assert acc.accepted and ref.accepted
    assert ref.produced == acc.produced
    # The reference backend runs per request: everything is fallback.
    assert ref.stats["fallback_requests"] == \
        acc.stats["grouped_requests"] + acc.stats["fallback_requests"]


def test_interp_backend_still_rejects_tampering(counter_app, honest_run):
    victim = next(e.rid for e in honest_run.trace.events
                  if e.is_response and e.payload.body)
    tampered = tamper_response(honest_run.trace, victim, "forged!")
    ref = ssco_audit(counter_app, tampered, honest_run.reports,
                     honest_run.initial_state, backend="interp")
    assert not ref.accepted
    assert ref.reason is RejectReason.OUTPUT_MISMATCH


def test_backend_selectable_through_session(counter_app):
    execution = _epoch_execution(counter_app)
    one_shot = ssco_audit(counter_app, execution.trace, execution.reports,
                          execution.initial_state, backend="interp")
    merged = audit_epochs(counter_app, execution, backend="interp")
    _assert_same_outcome(one_shot, merged)
    # The oracle takes one request at a time: nothing is grouped.
    assert merged.stats["multi_steps"] == 0


def test_compinterp_backend_bit_identical_to_interp(counter_app,
                                                    honest_run):
    """The compiling backend's contract: same verdict, same bodies, and
    the same deterministic stats as the per-request reference."""
    ref = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                     honest_run.initial_state, backend="interp")
    comp = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                      honest_run.initial_state, backend="compinterp")
    assert comp.accepted and ref.accepted
    assert comp.produced == ref.produced
    for key in _DET_STATS:
        assert comp.stats.get(key) == ref.stats.get(key), key


def test_compinterp_backend_still_rejects_tampering(counter_app,
                                                    honest_run):
    victim = next(e.rid for e in honest_run.trace.events
                  if e.is_response and e.payload.body)
    tampered = tamper_response(honest_run.trace, victim, "forged!")
    comp = ssco_audit(counter_app, tampered, honest_run.reports,
                      honest_run.initial_state, backend="compinterp")
    assert not comp.accepted
    assert comp.reason is RejectReason.OUTPUT_MISMATCH


def test_compinterp_selectable_through_session_and_epochs(counter_app):
    execution = _epoch_execution(counter_app)
    one_shot = ssco_audit(counter_app, execution.trace, execution.reports,
                          execution.initial_state, backend="compinterp")
    merged = audit_epochs(counter_app, execution, backend="compinterp")
    _assert_same_outcome(one_shot, merged)
    reference = audit_epochs(counter_app, execution, backend="interp")
    _assert_equivalent(reference, merged)


def test_compinterp_through_parallel_workers(counter_app, honest_run,
                                            local_pool):
    """Fleet workers compile on first use after parsing the app's
    sources; results stay bit-identical to the serial compiling audit."""
    serial = audit_epochs(counter_app, honest_run, backend="compinterp")
    parallel = audit_epochs(counter_app, honest_run, backend="compinterp",
                            pool=local_pool)
    assert parallel.accepted and serial.accepted
    assert parallel.produced == serial.produced
    for key in _DET_STATS:
        assert parallel.stats.get(key) == serial.stats.get(key), key


def test_unknown_backend_fails_at_the_boundary(counter_app, honest_run):
    """A bad backend name must fail in AuditConfig / at pipeline entry
    with the registered names in the message — not five frames deep in
    reexec_groups."""
    with pytest.raises(ValueError) as config_err:
        AuditConfig(backend="no-such-engine")
    message = str(config_err.value)
    assert "unknown re-exec backend" in message
    for name in ("accinterp", "compinterp", "interp"):
        assert name in message
    # The ssco_audit kwargs path (bypasses AuditConfig) fails just as
    # early, before any phase runs.
    with pytest.raises(ValueError, match="unknown re-exec backend"):
        ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                   honest_run.initial_state, backend="no-such-engine")


# -- the cross-epoch uniqid check ---------------------------------------------


TOKEN_SRC = {
    "token.php": """
$u = uniqid();
kv_set('tok', $u);
echo 'ok';
""",
}


def _swap(value, old, new):
    if value == old:
        return new
    if isinstance(value, tuple):
        return tuple(_swap(item, old, new) for item in value)
    return value


def _replayed_token_run():
    """A lying server replays epoch 0's ``uniqid()`` token in epoch 1,
    consistently: the nondet report and the KV op log both carry the
    duplicate.  Returns (app, execution, forged reports)."""
    app = Application.from_sources("token", TOKEN_SRC)
    executor = Executor(
        app, scheduler=RandomScheduler(3), max_concurrency=2,
        nondet=NondetSource(seed=3), epoch_size=4,
    )
    execution = executor.serve(
        [Request(f"t{i}", "token.php") for i in range(8)]
    )
    assert execution.epoch_marks
    cut = execution.epoch_marks[0]
    rid_a = next(e.rid for e in execution.trace.events[:cut]
                 if e.is_request)
    rid_b = next(e.rid for e in execution.trace.events[cut:]
                 if e.is_request)

    reports = copy.deepcopy(execution.reports)
    value_a = next(r.value for r in reports.nondet[rid_a]
                   if r.func == "uniqid")
    value_b = next(r.value for r in reports.nondet[rid_b]
                   if r.func == "uniqid")
    reports.nondet[rid_b] = [
        type(r)(r.func, r.args, _swap(r.value, value_b, value_a))
        for r in reports.nondet[rid_b]
    ]
    for obj, log in reports.op_logs.items():
        reports.op_logs[obj] = [
            OpRecord(r.rid, r.opnum, r.optype,
                     _swap(r.opcontents, value_b, value_a))
            if r.rid == rid_b else r
            for r in log
        ]
    return app, execution, reports


def test_session_threads_uniqid_check_across_epochs():
    """A uniqid duplicated *across* epochs is invisible to each epoch
    alone; the session's threaded seen-set must still catch it, exactly
    as the one-shot whole-report-set check does (§4.6)."""
    app, execution, reports = _replayed_token_run()
    one_shot = ssco_audit(app, execution.trace, reports,
                          execution.initial_state)
    assert not one_shot.accepted
    assert one_shot.reason is RejectReason.NONDET_IMPLAUSIBLE

    shards = partition_audit_inputs(execution.trace, reports,
                                    execution.epoch_marks)
    assert len(shards) >= 2
    # Each epoch alone is internally plausible: auditing epoch 1 against
    # epoch 0's migrated state ACCEPTS — the duplicate is only visible
    # across the stream.
    first = ssco_audit(app, shards[0].trace, shards[0].reports,
                       execution.initial_state, migrate=True)
    assert first.accepted
    alone = ssco_audit(app, shards[1].trace, shards[1].reports,
                       first.next_initial)
    assert alone.accepted
    # The session is not fooled.
    with Auditor(app).session(execution.initial_state) as session:
        results = [session.feed_epoch(s.trace, s.reports) for s in shards]
    assert results[0].accepted
    assert not results[1].accepted
    assert results[1].reason is RejectReason.NONDET_IMPLAUSIBLE
    assert "duplicate uniqid" in results[1].detail


@pytest.mark.parametrize("epoch_workers", [1, 2])
def test_trace_checks_run_once_per_epoch(monkeypatch, counter_app,
                                         local_pool, epoch_workers):
    """Balance and nondet plausibility are checked once per epoch, by
    the pipeline's trace check with the whole stream's ``uniqid()`` set
    — not once by the session and again by the phase.  (On the pooled
    road the count is this process's: the prepass; the worker's own
    audit of the unit runs in another process.)  A cross-epoch
    rejection found there keeps its ``stats["shards"]`` entry."""
    from repro.core import auditor as auditor_module
    from repro.core import pipeline as pipeline_module

    calls = {"check_balanced": 0, "validate_nondet_reports": 0}

    def counted(name):
        plain = getattr(pipeline_module, name)

        def wrapper(*args):
            calls[name] += 1
            return plain(*args)

        monkeypatch.setattr(pipeline_module, name, wrapper)
        # Where the session's own copy of the check used to be called.
        monkeypatch.setattr(auditor_module, name, wrapper, raising=False)

    for name in calls:
        counted(name)

    pool = local_pool if epoch_workers > 1 else None
    honest = _epoch_execution(counter_app)
    epochs = honest.epochs()
    merged = Auditor(counter_app).audit_epochs(
        epochs, honest.initial_state, pool)
    assert merged.accepted and len(epochs) >= 3
    assert calls == {"check_balanced": len(epochs),
                     "validate_nondet_reports": len(epochs)}

    app, execution, reports = _replayed_token_run()
    shards = partition_audit_inputs(execution.trace, reports,
                                    execution.epoch_marks)
    calls.update(check_balanced=0, validate_nondet_reports=0)
    merged = Auditor(app).audit_epochs(
        shards, execution.initial_state, pool)
    assert merged.reason is RejectReason.NONDET_IMPLAUSIBLE
    assert "duplicate uniqid" in merged.detail
    assert [(s["shard"], s["accepted"], s["groups"])
            for s in merged.stats["shards"]][:2] == [
        (0, True, merged.stats["shards"][0]["groups"]), (1, False, 0)]
    # Epochs 0 and 1 were checked once each; later ones are skipped.
    assert calls == {"check_balanced": 2, "validate_nondet_reports": 2}


def test_epoch_result_shape(counter_app):
    execution = _epoch_execution(counter_app)
    shards = execution.epochs()
    with Auditor(counter_app).session(execution.initial_state) as session:
        epoch = session.feed_epoch(shards[0].trace, shards[0].reports)
    assert isinstance(epoch, EpochResult)
    assert epoch.index == 0
    assert epoch.requests == shards[0].request_count
    assert epoch.events == len(shards[0].trace)
    assert epoch.produced  # this epoch's bodies only
    assert set(epoch.produced) == set(shards[0].trace.request_ids())
    assert "reexec" in epoch.phases and "total" in epoch.phases
    assert isinstance(session, AuditSession)


def test_serial_session_latches_crash_until_close(counter_app, honest_run):
    """An unexpected exception inside an epoch's audit must never be
    swallowed: a session whose epoch crashed cannot report ACCEPTED,
    even if the caller caught the feed-time exception and carried on.
    (The pooled variants of the same latch are
    test_concurrent_audit::test_crashed_epoch_audit_never_reports_accepted.)"""
    stripped = AuditPipeline(default_pipeline().phases[:-1])
    auditor = Auditor(counter_app, pipeline=stripped)
    session = auditor.session(honest_run.initial_state)
    with pytest.raises(ValueError, match="MigratePhase"):
        session.submit_epoch(honest_run.trace, honest_run.reports)
    with pytest.raises(ValueError, match="MigratePhase"):
        session.close()
    with pytest.raises(ValueError, match="MigratePhase"):
        _ = session.rejected


def test_session_total_excludes_ingest_wait(counter_app):
    """phases['total'] is summed audit time, not wall-clock since the
    session opened — a follow session is mostly waiting for epochs."""
    import time as _t

    execution = _epoch_execution(counter_app)
    shards = execution.epochs()
    with Auditor(counter_app).session(execution.initial_state) as session:
        session.feed_epoch(shards[0].trace, shards[0].reports)
        _t.sleep(0.3)  # the "next epoch" is still being recorded
        session.feed_epoch(shards[1].trace, shards[1].reports)
    merged = session.close()
    audited = sum(e.phases.get("total", 0.0) for e in session.epochs)
    assert merged.phases["total"] < 0.25
    assert merged.phases["total"] >= audited
