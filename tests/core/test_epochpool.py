"""The one local pool: ``local_fleet`` workers (``--epoch-workers N``).

Covers the driver invariants a session's pool must keep:

* one ``local_fleet(n)`` run starts exactly ``n`` workers, which every
  epoch of the run shares;
* two concurrent sessions get independent pools;
* a worker SIGKILLed mid-epoch loses nothing: its epoch is
  re-dispatched to a live worker and the verdict matches the serial
  chain;
* the speculative prepass runs at most ``2 * width`` primed epochs
  ahead of the auditor in a follow-style (async-fed) session;
* a pool — whatever it is — only ever receives ``bytes``, encoded by
  the feeding thread: one epoch in the bundle's records, the app's
  sources and the config.
"""

from __future__ import annotations

import json
import threading
import time

from repro.core import AuditConfig, Auditor, ssco_audit
from repro.core.epochwork import epoch_worker_config, run_work_unit
from repro.fleet import local_fleet
from repro.server import Executor, RandomScheduler
from repro.server.nondet import NondetSource
from tests.conftest import (
    audit_epochs,
    counter_requests,
    sigkill_workers_mid_epoch,
)


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


# -- one local_fleet run: exactly n workers ------------------------------------


def test_audit_epochs_creates_one_pool_for_all_epochs(counter_app):
    execution = _epoch_execution(counter_app)
    serial = audit_epochs(counter_app, execution)
    with local_fleet(3) as pool:
        concurrent = audit_epochs(counter_app, execution, pool=pool)
        assert pool.workers_joined == 3
    assert concurrent.accepted
    assert concurrent.produced == serial.produced
    assert concurrent.stats["shard_count"] >= 3
    assert pool.remote_epochs == concurrent.stats["shard_count"]
    assert pool.serial_fallbacks == 0


def test_uncuttable_bundle_creates_no_pool(counter_app, honest_run,
                                           local_pool):
    """No session, no pool: one pass over an execution that was never
    cut runs in-process.  An epoch session takes its epochs as given —
    it ships a lone epoch to the pool it is handed like any other."""
    shipped = local_pool.remote_epochs
    audit = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                       honest_run.initial_state)
    assert audit.accepted, (audit.reason, audit.detail)
    assert "shard_count" not in audit.stats
    assert "state_precompute" not in audit.phases
    assert local_pool.remote_epochs == shipped
    assert len(honest_run.epochs()) == 1
    chained = audit_epochs(counter_app, honest_run, pool=local_pool)
    assert chained.produced == audit.produced
    assert chained.stats["shard_count"] == 1
    assert "state_precompute" in chained.phases
    assert local_pool.remote_epochs == shipped + 1


def test_session_pool_identity_stable_across_epochs(counter_app,
                                                    local_pool):
    execution = _epoch_execution(counter_app)
    shards = execution.epochs()
    fallbacks = local_pool.serial_fallbacks
    auditor = Auditor(counter_app, AuditConfig())
    with auditor.session(execution.initial_state, local_pool) as session:
        for shard in shards:
            session.feed_epoch(shard.trace, shard.reports)
            # The very same pool object serves every epoch ...
            assert session._pool is local_pool
    merged = session.close()
    assert merged.accepted
    # ... with the workers it started with, and none fell back.
    assert local_pool.workers_joined == 2
    assert local_pool.serial_fallbacks == fallbacks


def test_two_concurrent_sessions_get_independent_pools(counter_app):
    runs = [_epoch_execution(counter_app, seed=7),
            _epoch_execution(counter_app, seed=23)]
    references = [audit_epochs(counter_app, ex) for ex in runs]
    results = [None, None]
    pools = [None, None]
    errors = []

    def _drive(slot, execution):
        try:
            shards = execution.epochs()
            auditor = Auditor(counter_app, AuditConfig())
            with local_fleet(2) as pool:
                pools[slot] = pool
                with auditor.session(execution.initial_state,
                                     pool) as session:
                    for shard in shards:
                        session.submit_epoch(shard.trace, shard.reports)
                results[slot] = session.close()
        except BaseException as exc:  # surfaced in the main thread
            errors.append((slot, exc))

    threads = [threading.Thread(target=_drive, args=(slot, ex))
               for slot, ex in enumerate(runs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    assert pools[0] is not None and pools[1] is not None
    assert pools[0].endpoint != pools[1].endpoint
    for pool in pools:
        assert pool.workers_joined == 2
        assert pool.serial_fallbacks == 0
    for merged, reference in zip(results, references):
        assert merged.accepted, (merged.reason, merged.detail)
        assert merged.produced == reference.produced


# -- the pool contract: bytes in, a result out ---------------------------------


class _RecordingPool:
    """The whole of what a session asks of the pool it is handed."""

    width = 2

    def __init__(self):
        self.serial_fallbacks = 0
        self.received = []
        self.threads = set()

    def run(self, payload):
        self.received.append(payload)
        self.threads.add(threading.current_thread().name)
        return run_work_unit(payload)


def test_a_pool_only_ever_receives_bytes(counter_app):
    """The unit is encoded by the thread that feeds the session, where
    the prepass builds it; what reaches the pool, on the session's own
    threads, is ``bytes`` — never the live (app, trace, reports, state,
    config) graph the feeder is still working on."""
    execution = _epoch_execution(counter_app)
    serial = audit_epochs(counter_app, execution)
    pool = _RecordingPool()
    handed = audit_epochs(counter_app, execution, pool=pool)
    assert handed.accepted, (handed.reason, handed.detail)
    assert handed.produced == serial.produced
    assert len(pool.received) == handed.stats["shard_count"] >= 3
    assert all(type(payload) is bytes for payload in pool.received)
    assert all(name.startswith("audit-epoch") for name in pool.threads)
    assert pool.serial_fallbacks == 0
    assert not hasattr(pool, "close")  # handed in: never the session's


def test_a_unit_is_one_epoch_of_the_bundle_format(counter_app):
    """What the pool receives is JSON: the app's sources, the config,
    and the epoch as the records a one-epoch bundle holds — a state
    record, the events, the reports — with no ``epoch_mark`` or
    ``end``.  The decoded unit audits like the epoch it came from."""
    execution = _epoch_execution(counter_app, n=24)
    serial = audit_epochs(counter_app, execution)
    pool = _RecordingPool()
    handed = audit_epochs(counter_app, execution, pool=pool)
    assert handed.accepted, (handed.reason, handed.detail)
    assert handed.produced == serial.produced
    for stats in (handed.stats, serial.stats):
        del stats["shards"]  # per-epoch timings
    assert handed.stats == serial.stats
    for payload, epoch in zip(pool.received, execution.epochs()):
        unit = json.loads(payload)
        assert unit["app"] == {"name": counter_app.name,
                               "sources": counter_app.sources,
                               "db_setup": counter_app.db_setup}
        assert AuditConfig.from_json(unit["config"]) == \
            epoch_worker_config(AuditConfig().replace(migrate=True))
        kinds = [record["kind"] for record in unit["records"]]
        assert kinds[0] == "state" and kinds.count("state") == 1
        assert kinds.count("event") == len(epoch.trace)
        assert not {"epoch_mark", "end"} & set(kinds)


# -- worker loss: re-dispatch to a live worker ------------------------------


def test_killed_epoch_worker_recreates_pool_and_matches_serial(
        counter_app, monkeypatch):
    """One worker is SIGKILLed right after it is handed its first epoch:
    the coordinator drops it, the epoch goes to the survivor, and the
    merged verdict, bodies and stats are the serial chain's."""
    execution = _epoch_execution(counter_app)
    reference = audit_epochs(counter_app, execution)
    with local_fleet(2) as pool:
        killed = sigkill_workers_mid_epoch(monkeypatch)
        merged = audit_epochs(counter_app, execution, pool=pool)
        assert pool._live_workers() == 1
    assert len(killed) == 1
    assert merged.accepted, (merged.reason, merged.detail)
    assert merged.produced == reference.produced
    for stats in (merged.stats, reference.stats):
        del stats["shards"]  # per-epoch timings
    assert merged.stats == reference.stats
    # Infrastructure failure handled: the lost epoch ran elsewhere.
    assert pool.redispatches == 1
    assert pool.serial_fallbacks == 0
    assert pool.remote_epochs == merged.stats["shard_count"]


# -- prepass backpressure ------------------------------------------------------


def test_prepass_depth_bounds_inflight_primed_epochs(counter_app,
                                                     local_pool):
    """A follow-style session feeding faster than the pool audits: the
    speculative prepass stalls once ``2 * width`` primed epochs are in
    flight, instead of priming the whole stream ahead of the
    auditor."""
    execution = _epoch_execution(counter_app, n=80, epoch_size=8)
    shards = execution.epochs()
    depth = 2 * local_pool.width
    assert len(shards) > depth + 1
    gate = threading.Event()

    class _GatedPool:
        width = local_pool.width
        serial_fallbacks = 0

        def run(self, payload):
            assert gate.wait(60), "gate never released"
            return local_pool.run(payload)

    serial = Auditor(counter_app, AuditConfig()).audit_epochs(
        shards, execution.initial_state)
    session = Auditor(counter_app, AuditConfig()).session(
        execution.initial_state, _GatedPool())

    def _feed():
        for shard in shards:
            session.submit_epoch(shard.trace, shard.reports)

    feeder = threading.Thread(target=_feed)
    feeder.start()
    try:
        # The feeder primes `depth` epochs, then blocks in submit_epoch
        # (its next feed is counted in _fed before the backpressure
        # wait) — no matter how many epochs the stream still holds.
        deadline = time.monotonic() + 30
        while session._fed <= depth and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # give a buggy prepass time to run ahead
        assert len(session._entries) == depth
        assert session._fed == depth + 1  # the stalled feed, no more
    finally:
        gate.set()
        feeder.join(timeout=60)
    assert not feeder.is_alive()
    merged = session.close()
    assert merged.accepted, (merged.reason, merged.detail)
    assert merged.produced == serial.produced
