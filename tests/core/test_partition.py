"""The recorder-side epoch cut (repro.core.partition) and the audit of
an execution in the epochs it was recorded in."""

from __future__ import annotations

import pytest

from repro.core import ssco_audit
from repro.core.partition import (
    PartitionError,
    partition_audit_inputs,
    partition_reports,
    partition_trace,
    quiescent_points,
    validate_cuts,
)
from repro.objects.base import OpRecord, OpType
from repro.server import Executor, RandomScheduler, Reports
from repro.server.reports import EpochSlice
from repro.server.nondet import NondetSource
from repro.trace.events import Event, Request, Response
from repro.trace.trace import Trace
from tests.conftest import audit_epochs, counter_requests


def _sequential_trace(n: int) -> Trace:
    """n requests served strictly one at a time: quiescent everywhere."""
    trace = Trace()
    for i in range(n):
        trace.append(Event.request(Request(f"r{i}", "s.php")))
        trace.append(Event.response(Response(f"r{i}", f"body{i}")))
    return trace


def _overlapping_trace() -> Trace:
    """r0/r1 overlap, then quiesce, then r2 runs alone."""
    trace = Trace()
    trace.append(Event.request(Request("r0", "s.php")))
    trace.append(Event.request(Request("r1", "s.php")))
    trace.append(Event.response(Response("r0", "a")))
    trace.append(Event.response(Response("r1", "b")))
    trace.append(Event.request(Request("r2", "s.php")))
    trace.append(Event.response(Response("r2", "c")))
    return trace


def test_quiescent_points_sequential():
    trace = _sequential_trace(3)
    # After every response (indexes 2 and 4; 6 == len is excluded).
    assert quiescent_points(trace) == [2, 4]


def test_quiescent_points_respect_overlap():
    assert quiescent_points(_overlapping_trace()) == [4]


def test_validate_cuts_drops_non_quiescent():
    trace = _overlapping_trace()
    assert validate_cuts(trace, [1, 2, 4, 4, 99]) == [4]


def test_partition_trace_segments():
    trace = _sequential_trace(4)
    segments = partition_trace(trace, [4])
    assert [len(s) for s in segments] == [4, 4]
    assert segments[0].request_ids() == ["r0", "r1"]
    assert segments[1].request_ids() == ["r2", "r3"]


def test_partition_reports_contiguous_split():
    reports = Reports(
        groups={"t": ["r0", "r1", "r2"]},
        op_logs={"kv:apc": [
            OpRecord("r0", 1, OpType.KV_SET, ("k", 1)),
            OpRecord("r1", 1, OpType.KV_SET, ("k", 2)),
            OpRecord("r2", 1, OpType.KV_SET, ("k", 3)),
        ]},
        op_counts={"r0": 1, "r1": 1, "r2": 1},
        nondet={"r1": []},
    )
    shard_of = {"r0": 0, "r1": 0, "r2": 1}
    parts = partition_reports(reports, shard_of, 2)
    assert [rec.rid for rec in parts[0].op_logs["kv:apc"]] == ["r0", "r1"]
    assert [rec.rid for rec in parts[1].op_logs["kv:apc"]] == ["r2"]
    # The spanning group splits under the same tag.
    assert parts[0].groups["t"] == ["r0", "r1"]
    assert parts[1].groups["t"] == ["r2"]
    assert parts[0].op_counts == {"r0": 1, "r1": 1}
    assert "r1" in parts[0].nondet


def test_partition_reports_rejects_interleaved_log():
    reports = Reports(op_logs={"kv:apc": [
        OpRecord("r2", 1, OpType.KV_SET, ("k", 1)),
        OpRecord("r0", 1, OpType.KV_SET, ("k", 2)),
    ]})
    with pytest.raises(PartitionError):
        partition_reports(reports, {"r0": 0, "r2": 1}, 2)


def test_partition_reports_rejects_unknown_rid():
    reports = Reports(groups={"t": ["ghost"]})
    with pytest.raises(PartitionError):
        partition_reports(reports, {"r0": 0}, 1)


def test_partition_audit_inputs_falls_back_to_single_shard():
    trace = _sequential_trace(4)
    # Interleaved log: refuses to split, degrades to one shard.
    reports = Reports(op_logs={"kv:apc": [
        OpRecord("r3", 1, OpType.KV_SET, ("k", 1)),
        OpRecord("r0", 1, OpType.KV_SET, ("k", 2)),
    ]})
    shards = partition_audit_inputs(trace, reports, [2, 4, 6])
    assert len(shards) == 1
    assert shards[0].trace is trace and shards[0].reports is reports


def test_partition_audit_inputs_no_cuts_single_shard():
    trace = _overlapping_trace()
    never_quiesces = Trace(trace.events[:4])
    for cuts in ((), [1, 2, 3], [0, 4, 99, "2", 2.0, None]):
        shards = partition_audit_inputs(never_quiesces, Reports(), cuts)
        assert len(shards) == 1 and shards[0].request_count == 2


def test_partition_audit_inputs_shards_cover_everything():
    trace = _sequential_trace(6)
    reports = Reports(op_counts={f"r{i}": 0 for i in range(6)})
    shards = partition_audit_inputs(trace, reports, [4, 8])
    assert len(shards) == 3
    assert all(isinstance(s, EpochSlice) for s in shards)
    assert [s.index for s in shards] == [0, 1, 2]
    assert [s.request_count for s in shards] == [2, 2, 2]
    union = set()
    for shard in shards:
        rids = set(shard.trace.request_ids())
        assert not (union & rids)
        union |= rids
    assert union == set(trace.request_ids())


# -- end-to-end: the recorded epochs versus one pass over everything ------------


@pytest.fixture
def epoch_run(counter_app):
    executor = Executor(
        counter_app,
        scheduler=RandomScheduler(5),
        max_concurrency=4,
        nondet=NondetSource(seed=5),
        epoch_size=8,
    )
    return executor.serve(counter_requests(48))


def test_executor_epoch_marks_are_quiescent(epoch_run):
    assert epoch_run.epoch_marks
    quiescent = set(quiescent_points(epoch_run.trace))
    assert set(epoch_run.epoch_marks) <= quiescent


def test_executor_epoch_tags_do_not_span_cuts(epoch_run):
    shards = epoch_run.epochs()
    assert len(shards) == len(epoch_run.epoch_marks) + 1
    for tag, rids in epoch_run.reports.groups.items():
        owners = {
            shard.index for shard in shards
            for rid in rids if rid in shard.reports.op_counts
        }
        assert len(owners) == 1, (tag, owners)


def test_epoch_chain_matches_one_pass(counter_app, epoch_run):
    serial = ssco_audit(counter_app, epoch_run.trace, epoch_run.reports,
                        epoch_run.initial_state)
    sharded = audit_epochs(counter_app, epoch_run)
    assert serial.accepted and sharded.accepted, (
        serial.reason, serial.detail, sharded.reason, sharded.detail)
    assert sharded.produced == serial.produced
    assert sharded.stats["shard_count"] == len(epoch_run.epoch_marks) + 1
    assert len(sharded.stats["shards"]) == sharded.stats["shard_count"]
    assert sharded.stats["grouped_requests"] + sharded.stats[
        "fallback_requests"] == serial.stats["grouped_requests"] + \
        serial.stats["fallback_requests"]


def test_epoch_chain_migration_matches_server_state(counter_app,
                                                    epoch_run):
    sharded = audit_epochs(counter_app, epoch_run, migrate=True)
    assert sharded.accepted
    final = epoch_run.final_state
    for name, table in sharded.next_initial.db_engine.tables.items():
        assert table.rows == final.db_engine.tables[name].rows, name
    assert sharded.next_initial.kv == final.kv
    assert sharded.next_initial.registers == final.registers


def test_epoch_chain_rejects_tampering_like_one_pass(counter_app,
                                                     epoch_run):
    tampered = Trace(list(epoch_run.trace.events))
    for position, event in enumerate(tampered.events):
        if event.is_response and event.payload.body:
            tampered.events[position] = Event.response(
                Response(event.rid, "forged!", event.payload.status),
                event.time,
            )
            break
    serial = ssco_audit(counter_app, tampered, epoch_run.reports,
                        epoch_run.initial_state)
    sharded = audit_epochs(counter_app, epoch_run, trace=tampered)
    assert not serial.accepted and not sharded.accepted
    assert sharded.reason is serial.reason
    assert not sharded.produced
    # The epochs audited are counted: the first rejected, and nothing
    # after it was audited (or read).
    assert sharded.stats["shard_count"] == 1
    assert [s["accepted"] for s in sharded.stats["shards"]] == [False]


def test_epoch_size_knob_on_ssco_audit(counter_app, epoch_run):
    """The audit side has no epoch_size: the recorder cut the epochs
    (``Executor(epoch_size=8)`` above), and asking the auditor to is an
    unknown keyword.  One pass over the whole execution stays legal —
    it is one epoch, and holds everything in memory."""
    with pytest.raises(TypeError, match="epoch_size"):
        ssco_audit(counter_app, epoch_run.trace, epoch_run.reports,
                   epoch_run.initial_state, epoch_size=8)
    audit = ssco_audit(counter_app, epoch_run.trace, epoch_run.reports,
                       epoch_run.initial_state)
    assert audit.accepted and "shard_count" not in audit.stats
