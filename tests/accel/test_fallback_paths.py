"""Fallback and divergence handling end-to-end through the verifier.

OROCHI's acc-PHP "retries, by separately re-executing the requests in
sequence" when it hits an unsupported SIMD case (§4.3).  These tests force
each retry path through the full audit and check the outcome is identical
to per-request execution.
"""

from __future__ import annotations


from repro.common.errors import RejectReason
from repro.core import simple_audit, ssco_audit
from repro.server import Application, Executor, RandomScheduler
from repro.trace.events import Request


def _roundtrip(sources, requests, db_setup="", strict=True):
    app = Application.from_sources("fb", sources, db_setup=db_setup)
    run = Executor(app, scheduler=RandomScheduler(1),
                   max_concurrency=3).serve(requests)
    result = ssco_audit(app, run.trace, run.reports, run.initial_state,
                        strict=strict)
    baseline = simple_audit(app, run.trace, run.reports,
                            run.initial_state)
    return result, baseline


def test_nested_multivalue_cell_assignment_falls_back():
    """Assigning through a cell that holds a multivalue of arrays on the
    univalent fast path triggers MultivalueFallback, not corruption."""
    sources = {
        "s.php": """
$holder = ['slot' => ['n' => 0]];
$holder['slot'] = ['n' => intval(param('v'))];
$holder['slot']['deep'] = 1;
echo $holder['slot']['n'], $holder['slot']['deep'];
""",
    }
    requests = [
        Request(f"r{i}", "s.php", get={"v": str(i)}) for i in range(3)
    ]
    result, baseline = _roundtrip(sources, requests)
    assert result.accepted, (result.reason, result.detail)
    assert baseline.accepted
    assert result.produced == baseline.produced


def test_comparison_through_a_multivalue_cell_falls_back():
    """``==`` on arrays walks their cells; one that holds a multivalue
    has no single answer, so the group retries per request instead of
    comparing the multivalue object itself."""
    sources = {
        "s.php": """
$mine = ['v' => intval(param('v')), 'c' => 1];
echo ($mine == ['v' => 1, 'c' => 1]) ? 'same' : 'differs';
""",
    }
    requests = [
        Request(f"r{i}", "s.php", get={"v": str(i)}) for i in range(3)
    ]
    result, baseline = _roundtrip(sources, requests, strict=False)
    assert result.accepted, (result.reason, result.detail)
    assert result.produced == baseline.produced
    assert sorted(set(result.produced.values())) == ["differs", "same"]
    assert result.stats["fallback_requests"] == 2  # r0 and r2's group


def test_param_with_multivalue_key_falls_back():
    sources = {
        "s.php": "echo param(param('which'), 'none');",
    }
    requests = [
        Request("r1", "s.php", get={"which": "a", "a": "1"}),
        Request("r2", "s.php", get={"which": "b", "b": "2"}),
    ]
    result, baseline = _roundtrip(sources, requests)
    assert result.accepted
    assert result.produced == baseline.produced
    assert result.stats["fallback_requests"] == 2


def test_group_error_falls_back_per_request():
    """A data-dependent error inside one request of a group: the group
    demotes and each request reproduces its own outcome."""
    sources = {
        "s.php": """
$d = intval(param('d'));
echo "q=", 10 / $d;
""",
    }
    # Same control flow tag (no branches), but r2 divides by zero.
    requests = [
        Request("r1", "s.php", get={"d": "2"}),
        Request("r2", "s.php", get={"d": "0"}),
        Request("r3", "s.php", get={"d": "5"}),
    ]
    result, baseline = _roundtrip(sources, requests, strict=True)
    assert result.accepted, (result.reason, result.detail)
    assert result.produced == baseline.produced
    assert result.produced["r2"] == "500 Internal Server Error"
    # r2 sits alone in its error group: the engine tries that chunk of
    # one as a group first and demotes it when it errors (a fallback).
    assert result.stats["fallback_requests"] >= 1


def test_strict_divergence_reject_vs_resilient_accept():
    """Force a bogus grouping (merge two honest groups) and compare
    strict vs resilient verdicts end to end."""
    sources = {
        "s.php": """
if (intval(param('x')) > 0) { echo 'pos'; } else { echo 'neg'; }
""",
    }
    app = Application.from_sources("fb", sources)
    requests = [
        Request("r1", "s.php", get={"x": "1"}),
        Request("r2", "s.php", get={"x": "-1"}),
    ]
    run = Executor(app).serve(requests)
    # Merge the two (honest, distinct) groups into one bogus group.
    merged = run.reports.deep_copy()
    tags = sorted(merged.groups)
    assert len(tags) == 2
    all_rids = merged.groups[tags[0]] + merged.groups[tags[1]]
    merged.groups = {tags[0]: all_rids}
    strict = ssco_audit(app, run.trace, merged, run.initial_state,
                        strict=True)
    assert not strict.accepted
    assert strict.reason is RejectReason.GROUP_DIVERGED
    resilient = ssco_audit(app, run.trace, merged, run.initial_state,
                           strict=False)
    assert resilient.accepted
    assert resilient.stats["divergences"] == 1


def test_mixed_script_group():
    sources = {
        "a.php": "echo 'A';",
        "b.php": "echo 'B';",
    }
    app = Application.from_sources("fb", sources)
    requests = [Request("r1", "a.php"), Request("r2", "b.php")]
    run = Executor(app).serve(requests)
    merged = run.reports.deep_copy()
    merged.groups = {"bogus": ["r1", "r2"]}
    strict = ssco_audit(app, run.trace, merged, run.initial_state)
    assert not strict.accepted
    assert strict.reason is RejectReason.GROUP_DIVERGED
    resilient = ssco_audit(app, run.trace, merged, run.initial_state,
                           strict=False)
    assert resilient.accepted


def test_fallback_preserves_dedup_correctness():
    """Dedup caches are per-group; a fallback mid-group must not leak
    stale results into the per-request replays."""
    sources = {
        "s.php": """
$rows = db_query("SELECT v FROM t WHERE id = 1");
$d = intval(param('d'));
echo $rows[0]['v'] / $d;
""",
    }
    requests = [
        Request("r1", "s.php", get={"d": "2"}),
        Request("r2", "s.php", get={"d": "0"}),  # errors after the query
    ]
    result, baseline = _roundtrip(
        sources, requests,
        db_setup="CREATE TABLE t (id INT PRIMARY KEY AUTOINCREMENT,"
                 " v INT); INSERT INTO t (v) VALUES (10)",
    )
    assert result.accepted
    assert result.produced == baseline.produced
