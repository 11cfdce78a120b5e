"""Parallel auditing on the paper's applications: identical to serial.

Epoch-level parallelism is the one way an audit runs in parallel: whole
epochs audited by fleet workers — here the two local ones
``--epoch-workers 2`` starts.  For each application, they and the
serial epoch chain return the same verdict and bitwise-identical
produced bodies — including on tampered (REJECTED) bundles.
"""

from __future__ import annotations

import pytest

from repro.core import Auditor
from repro.server import Executor, RandomScheduler
from repro.server.nondet import NondetSource
from repro.trace.events import Event, Response
from repro.trace.trace import Trace
from repro.workloads import forum_workload, hotcrp_workload, wiki_workload
from tests.conftest import audit_epochs

#: Seed-scale workloads (the CLI default --scale 0.02).
_WORKLOADS = {
    "wiki": lambda: wiki_workload(scale=0.02),
    "forum": lambda: forum_workload(scale=0.02),
    "hotcrp": lambda: hotcrp_workload(scale=0.02),
}


def _serve(workload, epoch_size=50):
    executor = Executor(
        workload.app,
        scheduler=RandomScheduler(1),
        max_concurrency=8,
        nondet=NondetSource(seed=1),
        epoch_size=epoch_size,
    )
    return executor.serve(workload.requests)


@pytest.fixture(scope="module", params=sorted(_WORKLOADS))
def workload_run(request):
    workload = _WORKLOADS[request.param]()
    execution = _serve(workload)
    assert execution.epoch_marks, "need several epochs"
    return request.param, workload, execution


def test_parallel_audit_identical_to_serial(workload_run, local_pool):
    name, workload, execution = workload_run
    serial = audit_epochs(workload.app, execution)
    parallel = audit_epochs(workload.app, execution, pool=local_pool)
    assert serial.accepted, (name, serial.reason, serial.detail)
    assert parallel.accepted, (name, parallel.reason, parallel.detail)
    assert parallel.produced == serial.produced
    for key in ("groups", "grouped_requests", "fallback_requests",
                "steps", "shard_count"):
        assert parallel.stats[key] == serial.stats[key], (name, key)


def test_parallel_audit_rejects_tampered_bundle(workload_run, local_pool):
    name, workload, execution = workload_run
    tampered = Trace(list(execution.trace.events))
    for position, event in enumerate(tampered.events):
        if event.is_response and event.payload.body:
            tampered.events[position] = Event.response(
                Response(event.rid, event.payload.body + "!forged",
                         event.payload.status),
                event.time,
            )
            break
    serial = audit_epochs(workload.app, execution, trace=tampered)
    parallel = audit_epochs(workload.app, execution, trace=tampered,
                            pool=local_pool)
    assert not serial.accepted and not parallel.accepted, name
    assert parallel.reason is serial.reason
    assert parallel.detail == serial.detail
    assert not parallel.produced


def test_parallel_reject_reason_matches_on_report_tamper(workload_run,
                                                         local_pool):
    """A log tamper (not just an output tamper) rejects identically."""
    name, workload, execution = workload_run
    tampered = execution.reports.deep_copy()
    obj = next(obj for obj, log in tampered.op_logs.items() if log)
    tampered.op_logs[obj] = tampered.op_logs[obj][:-1]
    serial = audit_epochs(workload.app, execution, reports=tampered)
    parallel = audit_epochs(workload.app, execution, reports=tampered,
                            pool=local_pool)
    assert not serial.accepted and not parallel.accepted, name
    assert parallel.reason is serial.reason


def test_parallel_plus_sharded_identical_to_serial(local_pool):
    """More epochs than the session keeps in flight, on one app."""
    workload = forum_workload(scale=0.02)
    execution = _serve(workload, epoch_size=25)
    serial = Auditor(workload.app).audit_epochs(
        execution.epochs(), execution.initial_state)
    combined = Auditor(workload.app).audit_epochs(
        execution.epochs(), execution.initial_state, local_pool)
    assert serial.accepted and combined.accepted, (
        combined.reason, combined.detail)
    assert combined.produced == serial.produced
    assert combined.stats["shard_count"] == serial.stats["shard_count"] > 4


def test_workers_one_is_the_serial_path(workload_run):
    """``--epoch-workers 1`` (the default) is the serial chain: no pool,
    no state precompute."""
    from repro.__main__ import _epoch_pool, build_parser

    name, workload, execution = workload_run
    args = build_parser().parse_args(["audit", "--epoch-workers", "1"])
    with _epoch_pool(args.epoch_workers) as pool:
        assert pool is None
        one = audit_epochs(workload.app, execution, pool=pool)
    serial = audit_epochs(workload.app, execution)
    assert one.accepted and serial.accepted, name
    assert "state_precompute" not in one.phases
    assert one.produced == serial.produced
    assert one.stats["groups"] == serial.stats["groups"]
    assert one.stats["steps"] == serial.stats["steps"]
