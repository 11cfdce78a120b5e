"""Timeline index: epochs, entries, chunk plans, cutoffs, truncation."""

from __future__ import annotations

import pytest

from repro.core.partition import partition_audit_inputs
from repro.forensics import Timeline, UnknownRequest
from repro.trace.trace import Trace

from tests.conftest import counter_requests
from tests.forensics.conftest import chain_requests, make_timeline, serve


def test_entries_cover_every_request(counter_app, honest_run):
    timeline = make_timeline(counter_app, honest_run)
    assert timeline.epoch_count == 1
    assert timeline.prepass_rejected is None
    rids = set(honest_run.trace.request_ids())
    assert set(timeline.entries) == rids
    for rid in rids:
        entry = timeline.entry(rid)
        assert entry.epoch == 0
        assert entry.groups, rid  # every request is in some group
        assert entry.chunk is not None
        assert entry.total_ops >= 1
        assert entry.op_count == honest_run.reports.op_counts[rid]


def test_epoch_assignment_matches_shards(counter_app):
    run = serve(counter_app, counter_requests(), epoch_size=8)
    timeline = make_timeline(counter_app, run)
    assert timeline.epoch_count > 1
    for epoch in range(timeline.epoch_count):
        for rid in timeline.shard(epoch).trace.request_ids():
            assert timeline.entry(rid).epoch == epoch


def test_unknown_request_raises(counter_app, honest_run):
    timeline = make_timeline(counter_app, honest_run)
    with pytest.raises(UnknownRequest, match="nope"):
        timeline.entry("nope")


def test_prepass_rejection_truncates_index(counter_app):
    """An unbalanced later epoch rejects in the prepass; earlier epochs
    stay queryable, and lookups past the rejection say why."""
    run = serve(counter_app, counter_requests(), epoch_size=8)
    # Drop the very last response event: its epoch's trace is unbalanced.
    victim = run.trace.events[-1]
    assert victim.is_response
    broken = Trace()
    for event in run.trace.events[:-1]:
        broken.append(event)
    timeline = Timeline.from_epochs(
        counter_app,
        partition_audit_inputs(broken, run.reports, run.epoch_marks),
        run.initial_state,
    )
    assert timeline.prepass_rejected is not None
    rejected_epoch = timeline.prepass_rejected[0]
    assert timeline.epoch_count == rejected_epoch
    # Requests before the rejection resolve; the dropped one explains.
    assert any(e.epoch == 0 for e in timeline.entries.values())
    with pytest.raises(UnknownRequest, match="truncated"):
        timeline.entry(victim.rid)


def test_cutoff_seq_is_monotone_in_response_order(counter_app, honest_run):
    timeline = make_timeline(counter_app, honest_run)
    order = timeline.response_order(0)
    by_order = sorted(order, key=order.get)
    for obj in honest_run.reports.op_logs:
        cutoffs = [timeline.cutoff_seq(0, rid, obj) for rid in by_order]
        assert cutoffs == sorted(cutoffs), obj
        log_len = len(honest_run.reports.op_logs[obj])
        assert cutoffs[-1] <= log_len


def test_cutoff_includes_own_writes(chain_app):
    run = serve(chain_app, chain_requests())
    timeline = make_timeline(chain_app, run)
    obj = chain_app.kv_name
    # A's cutoff covers its own KvSet (seq 1); C sees the whole log.
    assert timeline.cutoff_seq(0, "A", obj) >= 1
    assert timeline.cutoff_seq(0, "C", obj) == len(
        run.reports.op_logs[obj]
    )


def test_from_bundle_round_trip(tmp_path, counter_app):
    from repro.io import save_audit_bundle_segmented

    run = serve(counter_app, counter_requests(), epoch_size=8)
    path = tmp_path / "bundle.jsonl"
    save_audit_bundle_segmented(str(path), run.trace, run.reports,
                                run.initial_state, run.epoch_marks)
    timeline = Timeline.from_bundle(str(path), counter_app)
    reference = make_timeline(counter_app, run)
    assert timeline.epoch_count == reference.epoch_count
    assert set(timeline.entries) == set(reference.entries)
    for rid, entry in timeline.entries.items():
        assert entry.epoch == reference.entry(rid).epoch
