"""The phased audit engine (repro.core.pipeline)."""

from __future__ import annotations

import pytest

from repro.common.errors import AuditReject, RejectReason
from repro.core import AuditConfig, ssco_audit
from repro.core.pipeline import (
    AuditContext,
    AuditPhase,
    AuditPipeline,
    AuditResult,
    default_pipeline,
)
from repro.server import Executor, RandomScheduler
from repro.server.nondet import NondetSource
from tests.conftest import counter_requests


@pytest.fixture
def run(counter_app):
    executor = Executor(
        counter_app,
        scheduler=RandomScheduler(7),
        max_concurrency=4,
        nondet=NondetSource(seed=7),
    )
    return executor.serve(counter_requests())


def test_pipeline_matches_wrapper(counter_app, run):
    """One run of the default pipeline is what ssco_audit does."""
    via_pipeline = default_pipeline().run(AuditContext(
        counter_app, run.trace, run.reports, run.initial_state))
    via_wrapper = ssco_audit(counter_app, run.trace, run.reports,
                             run.initial_state)
    assert via_pipeline.accepted and via_wrapper.accepted
    assert via_pipeline.produced == via_wrapper.produced
    assert via_pipeline.stats["groups"] == via_wrapper.stats["groups"]
    assert via_pipeline.stats["steps"] == via_wrapper.stats["steps"]


def test_phase_timers_cover_every_stock_phase(counter_app, run):
    audit = ssco_audit(counter_app, run.trace, run.reports,
                       run.initial_state)
    for key in ("trace_check", "proc_op_reports", "db_redo", "reexec",
                "db_query", "output_compare", "total"):
        assert key in audit.phases, key
        assert audit.phases[key] >= 0.0


def test_audit_result_shape_preserved(counter_app, run):
    """The compatibility wrapper returns the same AuditResult type with
    the historical fields populated."""
    audit = ssco_audit(counter_app, run.trace, run.reports,
                       run.initial_state)
    assert isinstance(audit, AuditResult)
    assert audit.accepted and audit.reason is None
    assert audit.produced
    assert audit.stats["grouped_requests"] + audit.stats[
        "fallback_requests"] >= len(audit.produced)


def test_custom_phase_insertion(counter_app, run):
    """Callers can compose their own pipelines around the stock phases."""
    seen = {}

    class RecordingPhase(AuditPhase):
        name = "recording"

        def run(self, actx):
            seen["opmap_len"] = len(actx.opmap)
            seen["produced"] = dict(actx.produced)

    pipeline = default_pipeline()
    reexec_at = next(
        i for i, phase in enumerate(pipeline.phases)
        if phase.name == "reexec"
    )
    pipeline.phases.insert(reexec_at + 1, RecordingPhase())
    actx = AuditContext(counter_app, run.trace, run.reports,
                        run.initial_state)
    result = pipeline.run(actx)
    assert result.accepted
    assert seen["opmap_len"] > 0
    assert seen["produced"] == result.produced
    assert "recording" in result.phases


def test_rejecting_phase_stops_the_pipeline(counter_app, run):
    class TripwirePhase(AuditPhase):
        name = "tripwire"

        def run(self, actx):
            raise AuditReject(RejectReason.UNEXPECTED_EVENT, "tripped")

    ran_after = []

    class AfterPhase(AuditPhase):
        name = "after"

        def run(self, actx):  # pragma: no cover - must not run
            ran_after.append(True)

    pipeline = AuditPipeline([TripwirePhase(), AfterPhase()])
    result = pipeline.run(
        AuditContext(counter_app, run.trace, run.reports,
                     run.initial_state)
    )
    assert not result.accepted
    assert result.reason is RejectReason.UNEXPECTED_EVENT
    assert result.detail == "tripped"
    assert not ran_after
    assert "total" in result.phases


def test_rejected_audit_keeps_instrumentation(counter_app, run):
    """A late-phase reject still reports the stats collected so far
    (the finally-block harvest)."""
    tampered = run.reports.deep_copy()
    bad = run.trace.requests()  # tamper: claim an op the program won't do
    rid = next(iter(bad))
    tampered.op_counts[rid] = tampered.op_counts.get(rid, 0) + 1
    result = ssco_audit(counter_app, run.trace, tampered,
                        run.initial_state)
    assert not result.accepted
    assert "total" in result.phases


def test_migrate_phase_only_runs_when_asked(counter_app, run):
    plain = ssco_audit(counter_app, run.trace, run.reports,
                       run.initial_state)
    migrated = ssco_audit(counter_app, run.trace, run.reports,
                          run.initial_state, migrate=True)
    assert plain.next_initial is None
    assert migrated.next_initial is not None
    final = run.final_state
    for name, table in migrated.next_initial.db_engine.tables.items():
        assert table.rows == final.db_engine.tables[name].rows, name
    assert migrated.next_initial.kv == final.kv


def test_options_carry_the_full_knob_set(counter_app, run):
    """The context hands the phases the caller's AuditConfig itself —
    no copy, no second type."""
    config = AuditConfig(strict=False, dedup=False, collapse=False,
                         strict_registers=True, max_group_size=7,
                         migrate=True)
    actx = AuditContext(counter_app, run.trace, run.reports,
                        run.initial_state, config)
    assert actx.config is config
    assert AuditContext(counter_app, run.trace, run.reports,
                        run.initial_state).config == AuditConfig()
