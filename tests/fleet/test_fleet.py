"""Distributed audit fleet: bit-identical verdicts through remote
workers, re-dispatch on worker loss, and the local last-resort path.

The invariants under test mirror the single-host concurrent driver's
(PR 5/6): a two-worker fleet run must produce the same verdict, bodies,
and deterministic stats as the serial epoch chain — on ACCEPT, and on
REJECT from a tampered bundle (where the rejecting epoch's *partial*
stats must cross the wire, never be zeroed).  Dead workers (socket
drop, SIGKILL mid-epoch) re-dispatch their epoch; crashed-but-alive
workers hand the epoch back for a local run and stay in the pool.
"""

from __future__ import annotations

import base64
import contextlib
import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.common.clock import Deadline
from repro.core import AuditConfig, Auditor
from repro.core.epochwork import (
    encode_work_unit,
    epoch_worker_config,
    run_epoch_inline,
)
from repro.core.pipeline import AuditResult
from repro.core.reexec import (
    _BACKENDS,
    PlainInterpBackend,
    register_reexec_backend,
)
from repro.fleet import FleetCoordinator, FleetWorker, local_fleet
from repro.net.protocol import (
    FLAG_FLEET,
    RESULT,
    WORK,
    WORKER_HELLO,
    ProtocolError,
    TransportError,
    connect_endpoint,
)
from repro.objects.base import OpType
from repro.server import Executor, RandomScheduler, faulty
from repro.server.nondet import NondetSource
from tests.conftest import (
    audit_epochs,
    counter_requests,
    sigkill_workers_mid_epoch,
    untimed,
)
from tests.net.test_transport import _assert_equivalent


def _epoch_execution(app, n=40, epoch_size=8, seed=7, min_marks=2):
    executor = Executor(
        app,
        scheduler=RandomScheduler(seed),
        max_concurrency=4,
        nondet=NondetSource(seed=seed),
        epoch_size=epoch_size,
    )
    execution = executor.serve(counter_requests(n))
    assert len(execution.epoch_marks) >= min_marks, \
        "need enough quiescent cuts"
    return execution


def _unit(app, execution, config=None):
    """The execution as one encoded work unit, and what running it in
    this process returns."""
    unit = (app, execution.trace, execution.reports,
            execution.initial_state,
            epoch_worker_config(config or AuditConfig()))
    return encode_work_unit(*unit), run_epoch_inline(*unit)


@contextlib.contextmanager
def _fleet_workers(endpoint, count, prefix="fleet-test-worker"):
    """``count`` in-process worker daemons joined to ``endpoint``;
    asserts they all exit cleanly (the coordinator dismisses them)."""
    workers = [FleetWorker(endpoint, name=f"{prefix}-{i}",
                           heartbeat_interval=0.2)
               for i in range(count)]
    errors = []

    def _run(worker):
        try:
            worker.run()
        except (TransportError, ProtocolError) as exc:
            errors.append((worker.name, repr(exc)))

    threads = [threading.Thread(target=_run, args=(worker,),
                                name=f"{prefix}-{i}", daemon=True)
               for i, worker in enumerate(workers)]
    for thread in threads:
        thread.start()
    try:
        yield workers
    finally:
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads), \
            "worker daemons did not exit after the coordinator closed"
        assert not errors, errors


# -- ACCEPT: fleet == single host ---------------------------------------------


def test_fleet_accept_matches_single_host(counter_app):
    execution = _epoch_execution(counter_app)
    serial = audit_epochs(counter_app, execution)
    with FleetCoordinator("127.0.0.1:0", min_workers=2) as coord, \
            _fleet_workers(coord.endpoint, 2) as workers:
        fleet = audit_epochs(counter_app, execution, pool=coord)
        coord.close()  # dismiss the workers so their daemons exit
    assert fleet.accepted, (fleet.reason, fleet.detail)
    _assert_equivalent(serial, fleet)
    # Every epoch actually went over the wire.
    assert sum(w.epochs_run for w in workers) == fleet.stats["shard_count"]
    assert all(w.epochs_failed == 0 for w in workers)


def test_fleet_session_uses_coordinator_pool(counter_app):
    """The incremental session path: a coordinator handed in as
    ``pool=`` stands where the session's own process pool would;
    verdicts still match, and the coordinator stays the caller's to
    close."""
    execution = _epoch_execution(counter_app)
    shards = execution.epochs()
    serial = Auditor(counter_app, AuditConfig()).audit_epochs(
        shards, execution.initial_state)
    with FleetCoordinator("127.0.0.1:0", min_workers=2) as pool, \
            _fleet_workers(pool.endpoint, 2):
        auditor = Auditor(counter_app, AuditConfig())
        with auditor.session(execution.initial_state, pool) as session:
            assert session._pool is pool
            for shard in shards:
                session.submit_epoch(shard.trace, shard.reports)
        merged = session.close()
        assert pool._live_workers() == 2  # not dismissed by the session
        pool.close()
    assert merged.accepted, (merged.reason, merged.detail)
    assert merged.produced == serial.produced
    assert pool.remote_epochs == len(shards)
    assert pool.serial_fallbacks == 0


# -- REJECT: tampered bundles through remote workers --------------------------


def test_fleet_tampered_report_rejects_identically(counter_app):
    """A flipped response body in a late epoch: the fleet REJECT must be
    bit-identical to the serial chain's — reason, detail, and the
    rejecting epoch's *partial* stats (shipped inside the result's
    verdict object, never zeroed by the wire)."""
    execution = _epoch_execution(counter_app)
    trace = faulty.tamper_response(execution.trace, "r035",
                                   "<h1>defaced</h1>")
    serial = audit_epochs(counter_app, execution, trace=trace)
    assert not serial.accepted
    with FleetCoordinator("127.0.0.1:0", min_workers=2) as coord, \
            _fleet_workers(coord.endpoint, 2):
        fleet = audit_epochs(counter_app, execution, trace=trace,
                             pool=coord)
        coord.close()
    assert not fleet.accepted
    _assert_equivalent(serial, fleet)
    # The rejecting run still carries real accounting from the epochs
    # that executed — remote verdicts must not silently zero stats.
    assert fleet.stats.get("groups", 0) > 0


def test_fleet_spliced_epoch_rejects_identically(counter_app):
    """KV log entries spliced across epochs (a swap between distant
    positions): wrong state crosses an epoch boundary, and the fleet
    must reject exactly like the single-host chain."""
    execution = _epoch_execution(counter_app)
    log = execution.reports.op_logs["kv:apc"]
    # Splice inside the *late* epochs so the earlier ones still audit
    # remotely before the chain hits the corruption.
    start = (2 * len(log)) // 3
    position = next(
        i for i in range(start, len(log) - 1)
        if log[i].rid != log[i + 1].rid
        and (log[i].optype is OpType.KV_SET
             or log[i + 1].optype is OpType.KV_SET))
    reports = faulty.swap_log_entries(execution.reports, "kv:apc",
                                      position, position + 1)
    serial = audit_epochs(counter_app, execution, reports=reports)
    assert not serial.accepted
    with FleetCoordinator("127.0.0.1:0", min_workers=2) as coord, \
            _fleet_workers(coord.endpoint, 2):
        fleet = audit_epochs(counter_app, execution, reports=reports,
                             pool=coord)
        coord.close()
    assert not fleet.accepted
    _assert_equivalent(serial, fleet)


# -- worker loss and re-dispatch ----------------------------------------------


def test_dead_worker_redispatches_to_live_worker(counter_app):
    """A worker that takes an epoch and drops the connection: the
    coordinator discards it and re-dispatches the same epoch to the
    next live worker — the verdict is unaffected."""
    execution = _epoch_execution(counter_app, n=16, min_marks=1)
    payload, reference = _unit(counter_app, execution)
    with FleetCoordinator("127.0.0.1:0", min_workers=2,
                          join_timeout=30) as coord:

        def _doomed():
            fsock = connect_endpoint(coord.host, coord.port, timeout=5)
            try:
                fsock.send_preamble(FLAG_FLEET)
                fsock.send_frame(WORKER_HELLO, {"name": "doomed"})
                deadline = Deadline(10)
                fsock.recv_preamble(deadline)
                fsock.recv_frame(deadline)  # HELLO
                kind, _obj = fsock.recv_frame(Deadline(30))
                assert kind == WORK
            finally:
                fsock.close()  # mid-epoch death

        doomed = threading.Thread(target=_doomed, daemon=True)
        doomed.start()
        # The doomed worker joins first, so the single dispatch below
        # checks it out first; the real worker joins second and absorbs
        # the re-dispatch.
        joined = Deadline(10)
        while coord.workers_joined < 1 and not joined.expired():
            joined.sleep(0.01)
        assert coord.workers_joined == 1
        with _fleet_workers(coord.endpoint, 1):
            result = coord.run(payload)
            assert coord.redispatches == 1
            assert coord.remote_epochs == 1
            assert coord.serial_fallbacks == 0
            coord.close()  # dismiss the worker so its daemon exits
        doomed.join(timeout=10)
    assert result.accepted
    assert result.produced == reference.produced
    assert result.stats == reference.stats


# -- hostile workers: an answer is data, type-checked, never executed ---------


class _Planted:
    """Unpickling this calls ``open(path, "w")``: the file appears if
    anyone ever runs ``pickle.loads`` on a worker's answer."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def _pickled_answer(epoch, sentinel):
    # The RESULT body a worker sent before answers were JSON.
    return {"epoch": epoch, "ok": True, "result": base64.b64encode(
        pickle.dumps(_Planted(sentinel))).decode("ascii")}


def _json_answer(epoch, sentinel, **changes):
    result = AuditResult(accepted=True, phases={"total": 0.0},
                         stats={"groups": 1}).to_json()
    return {"epoch": epoch, "ok": True, "result": {**result, **changes}}


_HOSTILE_ANSWERS = {
    "pickle": _pickled_answer,
    "accepted_yes": lambda epoch, sentinel: _json_answer(
        epoch, sentinel, accepted="yes"),
    "stats_list": lambda epoch, sentinel: _json_answer(
        epoch, sentinel, stats=[]),
    "unknown_reason": lambda epoch, sentinel: _json_answer(
        epoch, sentinel, verdict="REJECTED", accepted=False,
        reason="no_such_reason"),
    "other_epoch": lambda epoch, sentinel: _json_answer(epoch + 1,
                                                        sentinel),
}


def _hostile_worker(coord, answer):
    """Join, take one WORK, answer it with ``answer(epoch)``, then wait
    for the coordinator to hang up."""
    fsock = connect_endpoint(coord.host, coord.port, timeout=5)
    try:
        fsock.send_preamble(FLAG_FLEET)
        fsock.send_frame(WORKER_HELLO, {"name": "hostile"})
        deadline = Deadline(10)
        fsock.recv_preamble(deadline)
        fsock.recv_frame(deadline)  # HELLO
        kind, obj = fsock.recv_frame(Deadline(30))
        assert kind == WORK
        fsock.send_frame(RESULT, answer(obj["epoch"]))
        with contextlib.suppress(TransportError, ProtocolError):
            while True:
                fsock.recv_frame(Deadline(30))
    finally:
        fsock.close()


@pytest.mark.parametrize("hostile", sorted(_HOSTILE_ANSWERS))
def test_hostile_worker_is_dropped_and_its_epoch_redispatched(
        counter_app, tmp_path, hostile):
    """A worker that answers WORK with a pickle, a result of the wrong
    types, or a result for another epoch is a lost worker: it is
    dropped, its epoch goes to the honest worker, and the audit equals
    the serial chain's — verdict, bodies and stats.  Nothing it sent is
    ever executed."""
    execution = _epoch_execution(counter_app)
    serial = audit_epochs(counter_app, execution)
    sentinel = str(tmp_path / "planted")
    answer = _HOSTILE_ANSWERS[hostile]
    with FleetCoordinator("127.0.0.1:0", min_workers=2,
                          join_timeout=30) as coord:
        liar = threading.Thread(
            target=_hostile_worker,
            args=(coord, lambda epoch: answer(epoch, sentinel)),
            daemon=True)
        liar.start()
        # The liar joins first, so it is checked out first.
        joined = Deadline(10)
        while coord.workers_joined < 1 and not joined.expired():
            joined.sleep(0.01)
        assert coord.workers_joined == 1
        with _fleet_workers(coord.endpoint, 1) as workers:
            fleet = audit_epochs(counter_app, execution, pool=coord)
            coord.close()
        liar.join(timeout=30)
    assert not os.path.exists(sentinel)
    _assert_equivalent(serial, fleet)
    assert coord.redispatches == 1
    assert coord.remote_epochs == fleet.stats["shard_count"]
    assert workers[0].epochs_run == fleet.stats["shard_count"]


class _CrashOnWorkerThread(PlainInterpBackend):
    """Crashes (a RuntimeError, not a verdict) only when re-executing
    inside an in-process fleet worker thread; behaves like ``interp``
    everywhere else (the coordinator's local re-run)."""

    name = "fleet-crashy"

    def run_chunk(self, app, rids, requests, reports, ctx, strict, dedup,
                  produced, stats):
        if threading.current_thread().name.startswith("fleet-test-worker"):
            raise RuntimeError("injected worker crash")
        super().run_chunk(app, rids, requests, reports, ctx, strict,
                          dedup, produced, stats)


def test_worker_crash_is_not_a_verdict_and_worker_survives(counter_app):
    """``RESULT ok: false``: the epoch re-runs locally (the last-resort
    worker) with the identical verdict, and the crashed-but-honest
    worker stays in the pool."""
    execution = _epoch_execution(counter_app, n=16, min_marks=1)
    register_reexec_backend("fleet-crashy", _CrashOnWorkerThread)
    try:
        payload, reference = _unit(counter_app, execution,
                                   AuditConfig(backend="fleet-crashy"))
        with FleetCoordinator("127.0.0.1:0", min_workers=1,
                              join_timeout=30) as coord:
            with _fleet_workers(coord.endpoint, 1) as workers:
                result = coord.run(payload)
                assert coord.worker_failures == 1
                assert coord.serial_fallbacks == 1
                assert coord.remote_epochs == 0
                assert coord._live_workers() == 1  # still in the pool
                coord.close()  # dismiss the worker so its daemon exits
        assert workers[0].epochs_failed == 1
        assert result.accepted
        assert result.produced == reference.produced
        assert result.stats == reference.stats
    finally:
        _BACKENDS.pop("fleet-crashy", None)


def test_no_workers_falls_back_to_local_serial(counter_app):
    """An empty fleet: the coordinator itself is the last-resort
    worker, bit-identical results."""
    execution = _epoch_execution(counter_app, n=16, min_marks=1)
    payload, reference = _unit(counter_app, execution)
    with FleetCoordinator("127.0.0.1:0") as coord:
        result = coord.run(payload)
        assert coord.serial_fallbacks == 1
        assert coord.remote_epochs == 0
    assert result.accepted
    assert result.produced == reference.produced
    assert result.stats == reference.stats


# -- redundancy ---------------------------------------------------------------


def test_redundant_dispatch_cross_checks_verdicts(counter_app):
    execution = _epoch_execution(counter_app, n=16, min_marks=1)
    payload, reference = _unit(counter_app, execution)
    with FleetCoordinator("127.0.0.1:0", min_workers=2, redundancy=2,
                          join_timeout=30) as coord:
        with _fleet_workers(coord.endpoint, 2) as workers:
            # Both workers must be parked idle before the dispatch, or
            # the redundant checkout degrades to one replica.
            parked = Deadline(10)
            while coord._idle.qsize() < 2 and not parked.expired():
                parked.sleep(0.01)
            result = coord.run(payload)
            assert coord.cross_checks == 1
            assert coord.cross_check_mismatches == 0
            assert coord.remote_epochs == 1
            assert coord.serial_fallbacks == 0
            coord.close()  # dismiss the workers so their daemons exit
        # Both replicas really executed the epoch.
        assert [w.epochs_run for w in workers] == [1, 1]
    assert result.accepted
    assert result.produced == reference.produced
    assert result.stats == reference.stats


# -- SIGKILL mid-epoch (real subprocess) --------------------------------------


_KAMIKAZE_WORKER = """
import os, signal, sys

from repro.core.reexec import PlainInterpBackend, register_reexec_backend


class Kamikaze(PlainInterpBackend):
    name = "fleet-kamikaze"

    def run_chunk(self, *args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)


register_reexec_backend("fleet-kamikaze", Kamikaze)

from repro.fleet import FleetWorker

print("ready", flush=True)
FleetWorker(sys.argv[1], name="kamikaze",
            heartbeat_interval=0.2).run()
"""


class _KamikazeLocal(PlainInterpBackend):
    """The test process's view of the kamikaze backend: plain interp
    semantics (no SIGKILL), so re-dispatched and locally-run epochs
    produce the reference verdict."""

    name = "fleet-kamikaze"


def test_sigkilled_worker_mid_epoch_redispatches(counter_app):
    """One real ``repro``-stack subprocess worker SIGKILLs itself inside
    its first epoch; the coordinator re-dispatches to the surviving
    in-process worker and the final audit is bit-identical to the
    serial chain (stats included)."""
    execution = _epoch_execution(counter_app)
    register_reexec_backend("fleet-kamikaze", _KamikazeLocal)
    proc = None
    coord = FleetCoordinator("127.0.0.1:0", min_workers=2)
    try:
        serial = audit_epochs(counter_app, execution,
                               backend="fleet-kamikaze")
        assert serial.accepted
        endpoint = coord.endpoint
        src = os.path.dirname(os.path.dirname(
            __import__("repro").__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", _KAMIKAZE_WORKER, endpoint],
            env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        assert proc.stdout.readline().strip() == "ready"

        # The kamikaze subprocess is already connecting, so it
        # registers first and receives the first dispatched epoch; the
        # survivor joins a beat later and absorbs the re-dispatch.
        survivor = FleetWorker(endpoint, name="survivor",
                               heartbeat_interval=0.2)
        survivor_errors = []

        def _run_survivor():
            import time
            time.sleep(1.0)
            try:
                survivor.run()
            except (TransportError, ProtocolError) as exc:
                survivor_errors.append(repr(exc))

        thread = threading.Thread(target=_run_survivor, daemon=True)
        thread.start()
        fleet = audit_epochs(counter_app, execution, pool=coord,
                             backend="fleet-kamikaze")
        coord.close()
        thread.join(timeout=60)
        assert not thread.is_alive() and not survivor_errors, \
            survivor_errors
        assert fleet.accepted, (fleet.reason, fleet.detail)
        _assert_equivalent(serial, fleet)
        assert proc.wait(timeout=30) == -signal.SIGKILL
        assert survivor.epochs_run == serial.stats["shard_count"]
    finally:
        coord.close()
        _BACKENDS.pop("fleet-kamikaze", None)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


# -- local_fleet: the workers --epoch-workers N starts -------------------------


_WIKI = ["--workload", "wiki", "--scale", "0.005"]


def _record(tmp_path, epoch_size=10):
    from repro.__main__ import main

    bundle = str(tmp_path / "bundle.jsonl")
    assert main(["record", *_WIKI, "--epoch-size", str(epoch_size),
                 "--out", bundle]) == 0
    return bundle


def _audit_json(capsys, *argv):
    from repro.__main__ import main

    capsys.readouterr()
    assert main(["audit", *argv, *_WIKI, "--json"]) == 0
    return untimed(json.loads(capsys.readouterr().out))


def test_workers_that_cannot_start_leave_a_serial_audit(counter_app,
                                                        monkeypatch):
    """Local workers whose launcher exits 1 never join: entering the
    fleet does not wait out any join timeout, and every epoch runs in
    this process with the serial chain's verdict and stats."""
    monkeypatch.setattr(
        "repro.fleet.local.worker_command",
        lambda endpoint: [sys.executable, "-c", "raise SystemExit(1)"])
    execution = _epoch_execution(counter_app)
    serial = audit_epochs(counter_app, execution)
    started = time.monotonic()
    with local_fleet(2) as pool:
        fallen = audit_epochs(counter_app, execution, pool=pool)
    assert time.monotonic() - started < 5.0
    assert pool.workers_joined == 0
    assert pool.serial_fallbacks == serial.stats["shard_count"]
    _assert_equivalent(serial, fallen)


def test_sigkilled_local_worker_gives_the_serial_payload(tmp_path,
                                                         monkeypatch,
                                                         capsys):
    """``repro audit --epoch-workers 2`` with one worker SIGKILLed right
    after it is handed an epoch prints the serial ``--json`` payload."""
    bundle = _record(tmp_path)
    serial = _audit_json(capsys, bundle)
    assert serial["verdict"] == "ACCEPTED" and len(serial["epochs"]) > 2
    killed = sigkill_workers_mid_epoch(monkeypatch)
    assert _audit_json(capsys, bundle, "--epoch-workers", "2") == serial
    assert len(killed) == 1


def test_local_and_remote_workers_share_one_coordinator(tmp_path,
                                                        monkeypatch,
                                                        capsys):
    """``--fleet-listen`` + ``--epoch-workers 2`` + one external worker:
    one coordinator, three workers, the serial payload — and both kinds
    of worker audit at least one epoch."""
    bundle = _record(tmp_path)
    serial = _audit_json(capsys, bundle)
    coordinators = []

    class Recorded(FleetCoordinator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            coordinators.append(self)

    monkeypatch.setattr("repro.__main__.FleetCoordinator", Recorded)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        endpoint = "127.0.0.1:%d" % probe.getsockname()[1]
    with _fleet_workers(endpoint, 1, prefix="external") as (external,):
        payload = _audit_json(capsys, bundle, "--fleet-listen", endpoint,
                              "--fleet-min-workers", "3",
                              "--epoch-workers", "2")
    assert payload == serial
    coordinator, = coordinators
    assert coordinator.workers_joined == 3
    assert coordinator.serial_fallbacks == 0
    assert coordinator.remote_epochs == len(serial["epochs"])
    assert 1 <= external.epochs_run < coordinator.remote_epochs
