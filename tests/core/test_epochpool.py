"""Shared persistent epoch-pool lifecycle (process-level epoch execution).

Covers the PR-5 driver invariants:

* one ``audit_epochs`` / ``AuditSession`` run creates exactly **one**
  persistent process pool, reused by every epoch of the run;
* two concurrent sessions get independent pools;
* a worker killed mid-epoch (``BrokenProcessPool``) recreates the
  shared pool for the remaining epochs while the lost epoch re-runs
  serially — verdicts still match the serial chain;
* the speculative prepass runs at most ``2 * epoch_workers`` primed
  epochs ahead of the auditor in a follow-style (async-fed) session;
* a pool — the session's own or one it is handed — only ever receives
  ``bytes``, encoded by the feeding thread: one epoch in the bundle's
  records, the app's sources and the config.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time


from repro.core import AuditConfig, Auditor, ssco_audit
from repro.core import epochpool
from repro.core.epochpool import EpochPool
from repro.core.epochwork import epoch_worker_config, run_work_unit
from repro.core.reexec import (
    _BACKENDS,
    PlainInterpBackend,
    register_reexec_backend,
)
from repro.server import Executor, RandomScheduler
from repro.server.nondet import NondetSource
from tests.conftest import audit_epochs, counter_requests


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


# -- exactly one persistent pool per run --------------------------------------


def test_audit_epochs_creates_one_pool_for_all_epochs(counter_app):
    execution = _epoch_execution(counter_app)
    serial = audit_epochs(counter_app, execution)
    before = epochpool.pools_created_total()
    concurrent = audit_epochs(counter_app, execution, epoch_workers=3)
    assert concurrent.accepted
    assert concurrent.produced == serial.produced
    assert concurrent.stats["shard_count"] >= 3
    assert epochpool.pools_created_total() - before == 1


def test_uncuttable_bundle_creates_no_pool(counter_app, honest_run):
    """No chain, no pool: one pass over an execution that was never
    cut runs in-process however many epoch workers were asked for.  An
    epoch session takes its epochs as given — it ships a lone epoch to
    its pool like any other."""
    before = epochpool.pools_created_total()
    audit = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                       honest_run.initial_state, epoch_workers=4)
    assert audit.accepted, (audit.reason, audit.detail)
    assert "shard_count" not in audit.stats
    assert "state_precompute" not in audit.phases
    assert epochpool.pools_created_total() == before
    assert len(honest_run.epochs()) == 1
    chained = audit_epochs(counter_app, honest_run, epoch_workers=2)
    assert chained.produced == audit.produced
    assert chained.stats["shard_count"] == 1
    assert "state_precompute" in chained.phases
    assert epochpool.pools_created_total() == before + 1


def test_session_pool_identity_stable_across_epochs(counter_app):
    execution = _epoch_execution(counter_app)
    shards = execution.epochs()
    auditor = Auditor(counter_app, AuditConfig(epoch_workers=2))
    with auditor.session(execution.initial_state) as session:
        pool = session._pool
        assert isinstance(pool, EpochPool)
        for shard in shards:
            session.feed_epoch(shard.trace, shard.reports)
            # The very same pool object serves every epoch ...
            assert session._pool is pool
    merged = session.close()
    assert merged.accepted
    # ... and it materialized exactly one executor over the whole run.
    assert pool.pools_created == 1
    assert pool.serial_fallbacks == 0


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
            auditor = Auditor(counter_app, AuditConfig(epoch_workers=2))
            with auditor.session(execution.initial_state) as session:
                pools[slot] = session._pool
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
    assert pools[0] is not pools[1]
    for pool in pools:
        assert pool.pools_created == 1
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


# -- worker loss: recreate the shared pool, finish serially -------------------


class _KamikazePoolBackend(PlainInterpBackend):
    """Dies instantly inside pool worker processes; behaves like
    ``interp`` in the parent (the serial-fallback path)."""

    name = "kamikaze-pool"

    def run_chunk(self, app, rids, requests, reports, ctx, strict, dedup,
                  produced, stats):
        if multiprocessing.current_process().name != "MainProcess":
            os._exit(1)
        super().run_chunk(app, rids, requests, reports, ctx, strict,
                          dedup, produced, stats)


def test_killed_epoch_worker_recreates_pool_and_matches_serial(
        counter_app):
    """Every epoch's worker dies mid-audit: each falls back to a serial
    in-thread re-run, the shared pool is recreated for the epochs still
    to come, and the merged verdict/bodies match the serial chain's
    reference backend exactly."""
    execution = _epoch_execution(counter_app)
    register_reexec_backend("kamikaze-pool", _KamikazePoolBackend)
    try:
        reference = audit_epochs(counter_app, execution,
                                  backend="interp")
        shards = execution.epochs()
        auditor = Auditor(counter_app, AuditConfig(
            epoch_workers=2, backend="kamikaze-pool"))
        with auditor.session(execution.initial_state) as session:
            pool = session._pool
            for shard in shards:
                session.submit_epoch(shard.trace, shard.reports)
        merged = session.close()
        assert merged.accepted, (merged.reason, merged.detail)
        assert merged.produced == reference.produced
        assert merged.stats["fallback_requests"] == \
            reference.stats["fallback_requests"]
        # Infrastructure failure handled: the epochs re-ran serially.
        assert pool.serial_fallbacks >= 1
        if multiprocessing.get_start_method() == "fork":
            # Fork platforms see the kamikaze exit as BrokenProcessPool,
            # so the shared pool was retired and recreated at least once
            # (under forced spawn the backend is simply unregistered in
            # the fresh workers — same fallback, healthy pool).
            assert pool.pools_created >= 2
    finally:
        _BACKENDS.pop("kamikaze-pool", None)


# -- prepass backpressure ------------------------------------------------------


def test_prepass_depth_bounds_inflight_primed_epochs(counter_app,
                                                     monkeypatch):
    """A follow-style session feeding faster than the pool audits: the
    speculative prepass stalls once ``2 * epoch_workers`` primed epochs
    are in flight, instead of priming the whole stream ahead of the
    auditor."""
    execution = _epoch_execution(counter_app, n=80, epoch_size=8)
    shards = execution.epochs()
    epoch_workers = 2
    depth = 2 * epoch_workers
    assert len(shards) > depth + 1
    gate = threading.Event()
    original = EpochPool.run

    def gated(self, payload):
        assert gate.wait(60), "gate never released"
        return original(self, payload)

    monkeypatch.setattr(EpochPool, "run", gated)
    serial = Auditor(counter_app, AuditConfig()).audit_epochs(
        shards, execution.initial_state)

    auditor = Auditor(counter_app,
                      AuditConfig(epoch_workers=epoch_workers))
    session = auditor.session(execution.initial_state)

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
