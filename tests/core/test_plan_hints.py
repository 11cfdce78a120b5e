"""Static divergence-hazard hints in chunk planning (``plan_hints``).

The analyzer flags scripts whose grouped re-execution tends to diverge
(``repro lint``); with ``plan_hints`` on, non-strict audits pre-demote
those groups to singleton chunks instead of running the doomed group
pass.  The knob must never change produced bodies or verdicts, and must
be inert under ``strict`` (there, divergence is a verdict).
"""

from __future__ import annotations

import pytest

from repro.apps import build_minicrp
from repro.core import ssco_audit
from repro.core.config import AuditConfig
from repro.core.reexec import plan_chunks
from repro.server import Executor, RandomScheduler
from repro.server.nondet import NondetSource
from repro.server.reports import Reports
from repro.trace.events import Request
from repro.workloads import hotcrp_workload


def _synthetic_plan_inputs(script: str):
    reports = Reports(groups={"t1": ["a", "b", "c"], "t2": ["d"]})
    requests = {rid: Request(rid, script) for rid in "abcd"}
    return reports, requests


def test_hazard_groups_are_pre_demoted_in_non_strict_mode():
    app = build_minicrp()
    reports, requests = _synthetic_plan_inputs("crp_submit.php")
    plain = plan_chunks(reports, requests, app=app, strict=False)
    hinted = plan_chunks(reports, requests, app=app, plan_hints=True,
                         strict=False)
    assert plain == [["a", "b", "c"], ["d"]]
    assert hinted == [["a"], ["b"], ["c"], ["d"]]


def test_non_hazard_groups_keep_their_grouping():
    app = build_minicrp()
    reports, requests = _synthetic_plan_inputs("crp_list.php")
    hinted = plan_chunks(reports, requests, app=app, plan_hints=True,
                         strict=False)
    assert hinted == [["a", "b", "c"], ["d"]]


def test_hints_are_inert_under_strict():
    """Strict mode must keep the group whole: the group-wide divergence
    check is a verdict, and pre-demotion would skip it."""
    app = build_minicrp()
    reports, requests = _synthetic_plan_inputs("crp_submit.php")
    hinted = plan_chunks(reports, requests, app=app, plan_hints=True,
                         strict=True)
    assert hinted == [["a", "b", "c"], ["d"]]


def test_audit_equivalence_with_and_without_hints():
    """Same verdict, same bodies, hazard workload, non-strict."""
    workload = hotcrp_workload(scale=0.05, seed=5)
    executor = Executor(
        workload.app,
        scheduler=RandomScheduler(5),
        max_concurrency=4,
        nondet=NondetSource(seed=5),
    )
    execution = executor.serve(workload.requests)
    plain = ssco_audit(workload.app, execution.trace, execution.reports,
                       execution.initial_state, strict=False)
    hinted = ssco_audit(workload.app, execution.trace, execution.reports,
                        execution.initial_state, strict=False,
                        plan_hints=True)
    assert plain.accepted and hinted.accepted
    assert hinted.produced == plain.produced
    # The hint only moves grouped/fallback accounting, never the work.
    assert hinted.stats["divergences"] <= plain.stats["divergences"]


def test_config_carries_plan_hints():
    config = AuditConfig(plan_hints=True, strict=False)
    assert AuditConfig.from_json(config.to_json()).plan_hints is True
    assert "plan-hints" in config.describe()
    assert AuditConfig().plan_hints is False
    with pytest.raises(ValueError):
        AuditConfig(plan_hints="yes")
