"""Completeness: the audit accepts every honest execution (§2).

The executor's schedule is its discretion (§3.2); Completeness must hold
for *all* of them.  Hypothesis drives the executor with random scheduler
seeds, concurrency levels, and workload shapes; every resulting
trace+reports pair must be accepted, by the grouped audit, the OOO audit,
and the simple-re-execution baseline alike.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_online_phase
from repro.core import Auditor, ooo_audit, simple_audit, ssco_audit
from repro.io import BundleReader, BundleWriter, save_audit_bundle_segmented
from repro.net import BundlePublisher, RemoteBundleReader
from repro.server import Application, Executor, RandomScheduler
from repro.server.nondet import NondetSource
from repro.workloads import (
    cart_workload,
    forum_workload,
    hotcrp_workload,
    wiki_workload,
)
from tests.conftest import (
    COUNTER_SCHEMA,
    COUNTER_SRC,
    counter_requests,
    untimed,
)


def _app() -> Application:
    return Application.from_sources(
        "counter", COUNTER_SRC, db_setup=COUNTER_SCHEMA
    )


def _serve(seed: int, concurrency: int, n: int):
    executor = Executor(
        _app(),
        scheduler=RandomScheduler(seed),
        max_concurrency=concurrency,
        nondet=NondetSource(seed=seed),
    )
    return executor.serve(counter_requests(n))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    concurrency=st.integers(min_value=1, max_value=8),
)
def test_every_schedule_is_accepted(seed, concurrency):
    run = _serve(seed, concurrency, 18)
    app = _app()
    result = ssco_audit(app, run.trace, run.reports, run.initial_state)
    assert result.accepted, (seed, concurrency, result.reason,
                             result.detail)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_every_schedule_accepted_by_baseline_audits(seed):
    run = _serve(seed, 5, 18)
    app = _app()
    assert simple_audit(app, run.trace, run.reports,
                        run.initial_state).accepted
    assert ooo_audit(app, run.trace, run.reports,
                     run.initial_state).accepted


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=40),
)
def test_workload_size_does_not_matter(seed, n):
    run = _serve(seed, 4, n)
    app = _app()
    result = ssco_audit(app, run.trace, run.reports, run.initial_state)
    assert result.accepted, (seed, n, result.reason, result.detail)


def test_resilient_mode_also_complete(honest_run, counter_app):
    result = ssco_audit(
        counter_app, honest_run.trace, honest_run.reports,
        honest_run.initial_state, strict=False,
    )
    assert result.accepted


def test_dedup_off_also_complete(honest_run, counter_app):
    result = ssco_audit(
        counter_app, honest_run.trace, honest_run.reports,
        honest_run.initial_state, dedup=False,
    )
    assert result.accepted


def test_collapse_off_also_complete(honest_run, counter_app):
    result = ssco_audit(
        counter_app, honest_run.trace, honest_run.reports,
        honest_run.initial_state, collapse=False,
    )
    assert result.accepted


def test_small_group_chunks_also_complete(honest_run, counter_app):
    """Chunking groups (the §4.7 3,000-request cap) cannot break audits."""
    result = ssco_audit(
        counter_app, honest_run.trace, honest_run.reports,
        honest_run.initial_state, max_group_size=2,
    )
    assert result.accepted


def test_sequential_executor_accepted(counter_app):
    run = Executor(counter_app, max_concurrency=1).serve(
        counter_requests(12)
    )
    result = ssco_audit(counter_app, run.trace, run.reports,
                        run.initial_state)
    assert result.accepted


def test_migration_matches_server_final_state(counter_app):
    """The migrated post-audit state (§4.5) must equal the server's true
    final state value-for-value — it becomes the next epoch's trusted
    initial state (§4.1, 'Persistent objects')."""
    executor = Executor(counter_app, scheduler=RandomScheduler(3),
                        max_concurrency=3, nondet=NondetSource(seed=3))
    run1 = executor.serve(counter_requests(24))
    audit1 = ssco_audit(counter_app, run1.trace, run1.reports,
                        run1.initial_state, migrate=True)
    assert audit1.accepted
    migrated = audit1.next_initial
    assert migrated is not None
    final = run1.final_state
    assert migrated.db_engine.tables.keys() == final.db_engine.tables.keys()
    for name in migrated.db_engine.tables:
        assert (
            migrated.db_engine.tables[name].rows
            == final.db_engine.tables[name].rows
        ), f"table {name} differs after migration"
    assert migrated.kv == final.kv
    assert migrated.registers == final.registers


# -- honest schedules over the real applications -------------------------------

_APP_WORKLOADS = {
    "wiki": (wiki_workload, 0.004),
    "forum": (forum_workload, 0.004),
    "hotcrp": (hotcrp_workload, 0.008),
    "cart": (cart_workload, 0.004),
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("app_name", sorted(_APP_WORKLOADS))
def test_honest_schedules_of_the_four_apps_are_accepted(app_name, seed,
                                                        tmp_path,
                                                        local_pool):
    """Whatever the (seeded) schedule, concurrency and request mix, an
    honest execution — audited in the epochs it was recorded in — is
    ACCEPTED by the compiled engine, strict or not, with the oracle's
    bodies, and every request booked exactly once.  Two local fleet
    workers (``--epoch-workers 2``), the saved bundle, and the bundle
    published over a socket give the serial chain's verdict, epochs,
    stats and bodies: every transport hands the auditor the very
    epochs ``execution.epochs()`` does."""
    factory, scale = _APP_WORKLOADS[app_name]
    workload = factory(scale=scale, seed=100 + seed)
    run = run_online_phase(workload, seed=seed, concurrency=1 + 3 * seed,
                           epoch_size=15)
    assert run.epoch_marks  # at least two epochs, chained through migration
    def audit(epochs=None, initial_state=run.initial_state, pool=None,
              **knobs):
        return Auditor(workload.app, **knobs).audit_epochs(
            run.epochs() if epochs is None else epochs, initial_state,
            pool)

    oracle = audit(backend="interp")
    assert oracle.accepted, (oracle.reason, oracle.detail)
    requests = len(run.trace.request_ids())
    for strict in (True, False):
        result = audit(backend="hybrid", strict=strict)
        where = (app_name, seed, strict)
        assert result.accepted, (where, result.reason, result.detail)
        assert result.produced == oracle.produced, where
        assert result.stats["grouped_requests"] + result.stats[
            "fallback_requests"] == requests, where
        pooled = audit(backend="hybrid", strict=strict, pool=local_pool)
        assert untimed(pooled.to_json()) == untimed(result.to_json()), where
    # The bridge slices as the file and the socket do (``result``: the
    # non-strict hybrid audit on the serial chain).
    bundle = str(tmp_path / "bundle.jsonl")
    save_audit_bundle_segmented(bundle, run.trace, run.reports,
                                run.initial_state, run.epoch_marks)
    with BundleReader.open(bundle) as reader:
        filed = audit(reader.epochs(), reader.initial_state, strict=False)
    assert filed.stats["shard_count"] == len(run.epoch_marks) + 1

    def publish():
        publisher.write_state(run.initial_state)
        for epoch in run.epochs():
            publisher.write_epoch(epoch.trace, epoch.reports)
        publisher.write_end()

    with BundlePublisher() as publisher:
        recorder = threading.Thread(target=publish)
        recorder.start()
        try:
            with RemoteBundleReader(publisher.endpoint,
                                    idle_timeout=20) as reader:
                streamed = Auditor(workload.app, strict=False) \
                    .audit_stream(reader)
        finally:
            recorder.join(timeout=30)
    for transported in (filed, streamed):
        assert untimed(transported.to_json()) == untimed(
            result.to_json()), (app_name, seed)


@pytest.mark.parametrize("app_name", sorted(_APP_WORKLOADS))
def test_honest_schedules_are_accepted_off_a_followed_file(app_name,
                                                           tmp_path):
    """The transport axis: one honest schedule per application written
    record by record through a live :class:`BundleWriter`, tailed by
    ``BundleReader`` (``follow=True``) while it is being written, and
    audited through the entry point ``repro audit --follow`` uses
    (``Auditor.audit_stream``) — ACCEPTED, epoch for epoch, with the
    oracle's bodies."""
    factory, scale = _APP_WORKLOADS[app_name]
    workload = factory(scale=scale, seed=100)
    run = run_online_phase(workload, seed=0, concurrency=4, epoch_size=15)
    epochs = run.epochs()
    assert len(epochs) > 1
    oracle = Auditor(workload.app, backend="interp").audit_epochs(
        epochs, run.initial_state)
    assert oracle.accepted, (oracle.reason, oracle.detail)
    bundle = str(tmp_path / "live.jsonl")
    may_finish = threading.Event()

    def record():
        with BundleWriter(bundle) as writer:
            writer.write_state(run.initial_state)
            for epoch in epochs[:-1]:
                writer.write_epoch(epoch.trace, epoch.reports)
            # The last epoch is written only once the auditor has
            # settled one: it is reading a file that is still growing.
            assert may_finish.wait(60)
            writer.write_epoch(epochs[-1].trace, epochs[-1].reports)
            writer.write_end()

    recorder = threading.Thread(target=record)
    recorder.start()
    settled = []

    def on_epoch(epoch):
        settled.append((epoch.index, epoch.accepted))
        may_finish.set()

    try:
        with BundleReader.open(bundle, follow=True,
                               idle_timeout=60) as reader:
            result = Auditor(workload.app).audit_stream(
                reader, on_epoch=on_epoch, follow=True, idle_timeout=60)
    finally:
        may_finish.set()
        recorder.join(timeout=60)
    assert not recorder.is_alive()
    assert result.accepted, (app_name, result.reason, result.detail)
    assert result.produced == oracle.produced
    assert settled == [(index, True) for index in range(len(epochs))]
