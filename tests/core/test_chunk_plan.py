"""The chunk plan and the backend table of ``repro.core.reexec``.

``plan_chunks`` is the one plan every driver executes: groups in sorted
tag order, duplicates dropped, oversized groups cut at the limit, and no
static hint reshapes it.  ``BACKENDS`` maps each name
``AuditConfig.backend`` may carry to how a chunk runs.
"""

from __future__ import annotations

import pytest

from repro.common.errors import AuditReject, RejectReason
from repro.core import ssco_audit
from repro.core.reexec import BACKENDS, chunk_mode, plan_chunks
from repro.server import Executor, RandomScheduler
from repro.server.nondet import NondetSource
from repro.server.reports import Reports
from repro.trace.events import Request
from repro.workloads import hotcrp_workload


def _requests(script: str, rids: str = "abcdefg"):
    return {rid: Request(rid, script) for rid in rids}


def test_groups_are_planned_in_sorted_tag_order():
    reports = Reports(groups={"t2": ["d"], "t1": ["a", "b"], "t0": ["c"]})
    assert plan_chunks(reports, _requests("x.php")) == [
        ["c"], ["a", "b"], ["d"]]


def test_duplicate_rids_in_a_group_are_dropped_in_first_seen_order():
    reports = Reports(groups={"t": ["b", "a", "b", "a", "c"]})
    assert plan_chunks(reports, _requests("x.php")) == [["b", "a", "c"]]


def test_oversized_groups_are_cut_at_the_limit():
    reports = Reports(groups={"t1": list("abcde"), "t2": ["f", "g"]})
    assert plan_chunks(reports, _requests("x.php"), max_group_size=2) == [
        ["a", "b"], ["c", "d"], ["e"], ["f", "g"]]


def test_a_grouping_naming_an_unknown_request_is_rejected():
    reports = Reports(groups={"t": ["a", "ghost"]})
    with pytest.raises(AuditReject) as reject:
        plan_chunks(reports, _requests("x.php"))
    assert reject.value.reason is RejectReason.GROUP_UNKNOWN_RID
    assert "ghost" in reject.value.detail


def test_a_divergence_hazard_script_keeps_its_grouping():
    """``crp_submit.php`` writes ``time()`` and ``uniqid()`` values into
    shared state; no static hint reshapes its groups."""
    reports = Reports(groups={"t1": ["a", "b", "c"], "t2": ["d"]})
    assert plan_chunks(reports, _requests("crp_submit.php")) == [
        ["a", "b", "c"], ["d"]]


def test_non_strict_audit_of_the_hazard_workload_matches_strict():
    """hotcrp serves the hazard script; grouped re-execution of its
    honest run diverges nowhere, so dropping ``strict`` changes nothing."""
    workload = hotcrp_workload(scale=0.05, seed=5)
    execution = Executor(
        workload.app,
        scheduler=RandomScheduler(5),
        max_concurrency=4,
        nondet=NondetSource(seed=5),
    ).serve(workload.requests)
    audits = [ssco_audit(workload.app, execution.trace, execution.reports,
                         execution.initial_state, strict=strict)
              for strict in (True, False)]
    strict, lenient = audits
    assert strict.accepted and lenient.accepted
    assert lenient.produced == strict.produced
    for key in ("groups", "grouped_requests", "fallback_requests",
                "divergences", "steps"):
        assert lenient.stats[key] == strict.stats[key], key
    assert lenient.stats["divergences"] == 0
    assert lenient.stats["fallback_requests"] == 0


def test_the_backend_table_maps_each_name_to_a_chunk_mode():
    assert sorted(BACKENDS) == ["accinterp", "compinterp", "hybrid",
                                "interp"]
    # (grouped, compiled)
    assert chunk_mode("hybrid") == chunk_mode("accinterp") == (True, True)
    assert chunk_mode("compinterp") == (False, True)
    assert chunk_mode("interp") == (False, False)


def test_an_unknown_backend_name_lists_every_known_one():
    with pytest.raises(ValueError) as unknown:
        chunk_mode("no-such-engine")
    assert str(unknown.value) == (
        "unknown re-exec backend 'no-such-engine' "
        "(available: accinterp, compinterp, hybrid, interp)")
