"""Top-level verifier behaviours not covered elsewhere: aborted responses,
failure injection, instrumentation, group chunking, error-page replay."""

from __future__ import annotations


from repro.common.errors import RejectReason
from repro.core import ssco_audit
from repro.server import Application, Executor
from repro.server.executor import ERROR_BODY
from repro.trace.events import Request
from tests.conftest import COUNTER_SCHEMA, COUNTER_SRC, counter_requests


def _app():
    return Application.from_sources(
        "counter", COUNTER_SRC, db_setup=COUNTER_SCHEMA
    )


def test_dropped_response_is_skipped_in_comparison():
    """A request whose response never reached the client (client reset,
    §3 'balanced'): its ops are still audited; only the output comparison
    is skipped."""
    app = _app()
    executor = Executor(app, fail_rids={"r001"})
    run = executor.serve(counter_requests(8))
    response = run.trace.responses()["r001"]
    assert response.abort_info == "client reset"
    assert response.body is None
    result = ssco_audit(app, run.trace, run.reports, run.initial_state)
    assert result.accepted, (result.reason, result.detail)


def test_unbalanced_trace_rejected():
    app = _app()
    run = Executor(app).serve(counter_requests(4))
    trace = run.trace
    del trace.events[-1]  # drop the last response
    result = ssco_audit(app, trace, run.reports, run.initial_state)
    assert not result.accepted
    assert result.reason is RejectReason.TRACE_UNBALANCED


def test_error_page_replays(counter_app):
    """A script that errors deterministically produces the fixed 500 body
    online, and the audit regenerates exactly that body."""
    src = dict(COUNTER_SRC)
    src["bad.php"] = """
$x = param('n');
echo "before:";
$y = 1 / intval($x);
echo "after:", $y;
"""
    app = Application.from_sources("err", src, db_setup=COUNTER_SCHEMA)
    requests = [
        Request("e1", "bad.php", get={"n": "0"}),   # division by zero
        Request("e2", "bad.php", get={"n": "2"}),
        Request("e3", "page.php", get={"name": "front"}),
    ]
    run = Executor(app).serve(requests)
    assert run.trace.responses()["e1"].body == ERROR_BODY
    assert run.trace.responses()["e2"].body == "before:after:0.5"
    result = ssco_audit(app, run.trace, run.reports, run.initial_state,
                        strict=False)
    assert result.accepted, (result.reason, result.detail)


def test_error_inside_transaction_replays():
    """Error with an open transaction: the executor rolls back and logs it;
    the audit validates the rollback (OpHandler.finish_error)."""
    src = {
        "txerr.php": """
db_begin();
db_exec("INSERT INTO docs (title, body) VALUES ('x', 'y')");
$boom = 1 / intval(param('z', 0));
db_commit();
echo "never";
""",
        "check.php": """
$rows = db_query("SELECT COUNT(*) AS n FROM docs");
echo "docs=", $rows[0]['n'];
""",
    }
    app = Application.from_sources("txerr", src, db_setup=COUNTER_SCHEMA)
    run = Executor(app).serve([
        Request("t1", "txerr.php"),
        Request("t2", "check.php"),
    ])
    assert run.trace.responses()["t1"].body == ERROR_BODY
    # The insert was rolled back: still exactly one doc.
    assert run.trace.responses()["t2"].body == "docs=1"
    result = ssco_audit(app, run.trace, run.reports, run.initial_state,
                        strict=False)
    assert result.accepted, (result.reason, result.detail)


def test_phase_timers_are_populated(counter_app, honest_run):
    result = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                        honest_run.initial_state)
    for phase in ("proc_op_reports", "db_redo", "reexec", "db_query",
                  "output_compare", "total"):
        assert phase in result.phases
        assert result.phases[phase] >= 0.0
    assert result.phases["total"] >= result.phases["reexec"]


def test_stats_are_populated(counter_app, honest_run):
    result = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                        honest_run.initial_state)
    # Every re-executed request is booked exactly once.
    assert result.stats["grouped_requests"] + result.stats[
        "fallback_requests"
    ] == len(honest_run.trace.request_ids())
    assert result.stats["graph_nodes"] > 0
    assert result.stats["steps"] > 0
    assert isinstance(result.stats["group_alphas"], list)


def test_group_alpha_triples_shape(counter_app, honest_run):
    result = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                        honest_run.initial_state)
    for n, alpha, steps in result.stats["group_alphas"]:
        assert n >= 1
        assert 0.0 <= alpha <= 1.0
        assert steps >= 0
        if n == 1:
            assert alpha == 1.0  # single-request groups are all-univalent


def test_chunked_groups_audit_equals_unchunked(counter_app, honest_run):
    full = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                      honest_run.initial_state)
    chunked = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                         honest_run.initial_state, max_group_size=3)
    assert full.accepted and chunked.accepted
    assert full.produced == chunked.produced


def test_audit_result_is_truthy_on_accept(counter_app, honest_run):
    result = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                        honest_run.initial_state)
    assert bool(result)


def test_dedup_stats_consistent(counter_app, honest_run):
    with_dedup = ssco_audit(counter_app, honest_run.trace,
                            honest_run.reports, honest_run.initial_state,
                            dedup=True)
    without = ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                         honest_run.initial_state, dedup=False)
    assert without.stats["dedup_hits"] == 0
    assert (
        with_dedup.stats["dedup_hits"] + with_dedup.stats["dedup_misses"]
        == without.stats["dedup_misses"]
    )
    assert with_dedup.produced == without.produced
