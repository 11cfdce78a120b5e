"""Parallel re-execution: verdicts and produced bodies identical to serial.

The acceptance contract of the parallel driver (core/reexec.py): for any
workload, ``ssco_audit(..., workers>=2)`` and the serial audit return
the same verdict and bitwise-identical produced bodies — including on
tampered (REJECTED) bundles.
"""

from __future__ import annotations

import pytest

from repro.core import Auditor, ssco_audit
from repro.core.reexec import plan_chunks
from repro.server import Executor, RandomScheduler
from repro.server.nondet import NondetSource
from repro.trace.events import Event, Response
from repro.trace.trace import Trace
from repro.workloads import forum_workload, hotcrp_workload, wiki_workload

#: Seed-scale workloads (the CLI default --scale 0.02).
_WORKLOADS = {
    "wiki": lambda: wiki_workload(scale=0.02),
    "forum": lambda: forum_workload(scale=0.02),
    "hotcrp": lambda: hotcrp_workload(scale=0.02),
}


def _serve(workload, epoch_size=0):
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
    return request.param, workload, _serve(workload)


def test_parallel_audit_identical_to_serial(workload_run):
    name, workload, execution = workload_run
    serial = ssco_audit(workload.app, execution.trace, execution.reports,
                        execution.initial_state)
    parallel = ssco_audit(workload.app, execution.trace,
                          execution.reports, execution.initial_state,
                          workers=2)
    assert serial.accepted, (name, serial.reason, serial.detail)
    assert parallel.accepted, (name, parallel.reason, parallel.detail)
    assert parallel.produced == serial.produced
    assert parallel.stats["grouped_requests"] + parallel.stats[
        "fallback_requests"] == serial.stats["grouped_requests"] + \
        serial.stats["fallback_requests"]


def test_parallel_audit_rejects_tampered_bundle(workload_run):
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
    serial = ssco_audit(workload.app, tampered, execution.reports,
                        execution.initial_state)
    parallel = ssco_audit(workload.app, tampered, execution.reports,
                          execution.initial_state, workers=2)
    assert not serial.accepted and not parallel.accepted, name
    assert parallel.reason is serial.reason
    assert parallel.detail == serial.detail
    assert not parallel.produced


def test_parallel_reject_reason_matches_on_report_tamper(workload_run):
    """A log tamper (not just an output tamper) rejects identically."""
    name, workload, execution = workload_run
    tampered = execution.reports.deep_copy()
    obj = next(obj for obj, log in tampered.op_logs.items() if log)
    tampered.op_logs[obj] = tampered.op_logs[obj][:-1]
    serial = ssco_audit(workload.app, execution.trace, tampered,
                        execution.initial_state)
    parallel = ssco_audit(workload.app, execution.trace, tampered,
                          execution.initial_state, workers=2)
    assert not serial.accepted and not parallel.accepted, name
    assert parallel.reason is serial.reason


def test_parallel_plus_sharded_identical_to_serial():
    workload = forum_workload(scale=0.02)
    execution = _serve(workload, epoch_size=100)
    assert execution.epoch_marks
    serial = ssco_audit(workload.app, execution.trace, execution.reports,
                        execution.initial_state)
    combined = Auditor(workload.app, workers=2).audit_epochs(
        execution.epochs(), execution.initial_state)
    assert serial.accepted and combined.accepted, (
        combined.reason, combined.detail)
    assert combined.produced == serial.produced
    assert combined.stats["shard_count"] > 1


def test_parallel_chunk_plan_subdivides_dominant_groups():
    workload = wiki_workload(scale=0.02)
    execution = _serve(workload)
    requests = execution.trace.requests()
    serial_plan = plan_chunks(execution.reports, requests)
    parallel_plan = plan_chunks(execution.reports, requests, workers=4)
    assert len(parallel_plan) >= len(serial_plan)
    # Same requests, same multiset, same relative order within a group.
    assert sorted(r for c in serial_plan for r in c) == sorted(
        r for c in parallel_plan for r in c)


def test_workers_one_is_the_serial_path(workload_run):
    name, workload, execution = workload_run
    one = ssco_audit(workload.app, execution.trace, execution.reports,
                     execution.initial_state, workers=1)
    serial = ssco_audit(workload.app, execution.trace, execution.reports,
                        execution.initial_state)
    assert one.accepted and serial.accepted
    assert one.produced == serial.produced
    assert one.stats["groups"] == serial.stats["groups"]
    assert one.stats["steps"] == serial.stats["steps"]
