"""The paper's figure shapes on the three applications, without timings.

Figures 9 and 11 and the §4.5 / §5.2 ablations make claims about what
the audit does, not only how fast: deduplication and collapse change
no regenerated body, collapse is what keeps re-execution univalent,
the MediaWiki requests concentrate into a few large, mostly univalent
control-flow groups, and the audit's phases are disjoint parts of its
total.  Each application is served once (scale 0.02, seed 1) and
audited on the grouped engine; every assertion here is a count or an
ordering of intervals, never a speed.
"""

from __future__ import annotations

import pytest

from repro.bench import figure9_decomposition, run_online_phase
from repro.bench.harness import run_audit_phase
from repro.core import AuditConfig, simple_audit, ssco_audit
from repro.workloads import forum_workload, hotcrp_workload, wiki_workload

#: The grouped engine by name: a ``REPRO_BACKEND`` in the environment
#: must not swap the one-request-at-a-time oracle in.
ENGINE = AuditConfig(backend="hybrid")

APPS = {
    "wiki": wiki_workload,
    "forum": forum_workload,
    "hotcrp": hotcrp_workload,
}


@pytest.fixture(scope="module", params=sorted(APPS))
def recorded(request):
    workload = APPS[request.param](scale=0.02)
    return workload, run_online_phase(workload, seed=1)


def _audit(recorded, **knobs):
    workload, execution = recorded
    result = ssco_audit(workload.app, execution.trace, execution.reports,
                        execution.initial_state, backend=ENGINE.backend,
                        **knobs)
    assert result.accepted, (result.reason, result.detail)
    return result


def _univalent_fraction(result) -> float:
    return 1.0 - result.stats["multi_steps"] / max(1, result.stats["steps"])


def test_dedup_changes_no_body(recorded):
    """§4.5: with dedup off every SELECT is re-issued, and the bodies
    are the same."""
    with_dedup = _audit(recorded, dedup=True)
    without = _audit(recorded, dedup=False)
    assert with_dedup.produced == without.produced
    assert with_dedup.stats["dedup_hits"] > 0
    assert without.stats["dedup_hits"] == 0


def test_collapse_keeps_execution_univalent(recorded):
    """§5.2: SIMD without on-demand collapse runs more multivalent
    steps; both agree with per-request re-execution."""
    workload, execution = recorded
    full = _audit(recorded)
    no_collapse = _audit(recorded, collapse=False)
    baseline = simple_audit(workload.app, execution.trace,
                            execution.reports, execution.initial_state)
    assert baseline.accepted, (baseline.reason, baseline.detail)
    assert full.produced == no_collapse.produced == baseline.produced
    assert _univalent_fraction(full) > _univalent_fraction(no_collapse)


def test_figure9_phases_are_disjoint_parts_of_the_total(recorded):
    """Figure 9's bars add up to the audit's total: no phase is counted
    twice, and DB queries are timed inside re-execution."""
    workload, execution = recorded
    run = run_audit_phase(workload, execution, run_baseline=False,
                          config=ENGINE)
    assert run.audit.accepted
    phases = run.audit.phases
    assert phases["db_query"] <= phases["reexec"]
    disjoint = sum(seconds for name, seconds in phases.items()
                   if name not in ("total", "db_query"))
    assert disjoint <= phases["total"]
    bars = figure9_decomposition(run)
    parts = sum(bars[name] for name in
                ("php", "db_query", "proc_op_reports", "db_redo", "other"))
    assert parts == pytest.approx(bars["total"], rel=1e-9)


def test_figure11_wiki_groups_concentrate():
    """Figure 11: the MediaWiki hot path concentrates into large
    control-flow groups whose instructions are mostly univalent."""
    workload = wiki_workload(scale=0.02)
    result = _audit((workload, run_online_phase(workload, seed=1)))
    triples = result.stats["group_alphas"]
    requests = sum(n for n, _, _ in triples)
    assert requests == len(workload.requests)
    assert any(n > 1 for n, _, _ in triples)
    assert max(n for n, _, _ in triples) >= 0.2 * requests
    weighted_alpha = sum(n * alpha for n, alpha, _ in triples) / requests
    assert weighted_alpha > 0.75
