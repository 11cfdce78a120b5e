"""Demotion paths in core/reexec.py (Figure 12 line 39; §4.3 retries).

strict=True: control-flow divergence inside a group rejects the audit;
strict=False: the group demotes to per-request re-execution.  Unsupported
SIMD cases (MultivalueFallback) and mixed-script groups follow the same
split: implementation retry vs verdict.

Divergence *observation* is the compiled engine's: it executes a group
in lockstep and sees its requests branch apart (the per-request
``interp`` oracle catches a bogus grouping through the output checks
instead — see the backend contract in core/reexec.py).  The tests that
assert the divergence policy therefore pin ``backend="hybrid"`` so the
suite holds under a ``REPRO_BACKEND`` override.
"""

from __future__ import annotations

import functools

from repro.common.errors import RejectReason
from repro.core import simple_audit, ssco_audit as _ssco_audit

#: The divergence policy under test is the compiled engine's.
ssco_audit = functools.partial(_ssco_audit, backend="hybrid")
from repro.server import Application, Executor, RandomScheduler
from repro.trace.events import Request
from tests.conftest import audit_epochs

BRANCHY_SRC = {
    "branch.php": """
$v = intval(param('v'));
if ($v > 10) { echo "big:", $v; } else { echo "small:", $v; }
""",
    "other.php": "echo 'other:', param('v', '?');",
}


def _serve(requests, sources=BRANCHY_SRC):
    app = Application.from_sources("demo", sources)
    run = Executor(app, scheduler=RandomScheduler(3),
                   max_concurrency=4).serve(requests)
    return app, run


def _merge_all_groups(reports):
    """Tamper: collapse every control-flow group into one bogus group."""
    merged = reports.deep_copy()
    rids = [rid for rids in merged.groups.values() for rid in rids]
    merged.groups = {"bogus": rids}
    return merged


def test_divergent_group_rejected_in_strict_mode():
    app, run = _serve([
        Request("r1", "branch.php", get={"v": "5"}),
        Request("r2", "branch.php", get={"v": "50"}),
    ])
    tampered = _merge_all_groups(run.reports)
    assert len(run.reports.groups) == 2  # honest: two flow tags
    result = ssco_audit(app, run.trace, tampered, run.initial_state,
                        strict=True)
    assert not result.accepted
    assert result.reason is RejectReason.GROUP_DIVERGED


def test_divergent_group_demotes_in_non_strict_mode():
    app, run = _serve([
        Request("r1", "branch.php", get={"v": "5"}),
        Request("r2", "branch.php", get={"v": "50"}),
        Request("r3", "branch.php", get={"v": "7"}),
    ])
    tampered = _merge_all_groups(run.reports)
    result = ssco_audit(app, run.trace, tampered, run.initial_state,
                        strict=False)
    baseline = simple_audit(app, run.trace, run.reports,
                            run.initial_state)
    assert result.accepted, (result.reason, result.detail)
    assert result.stats["divergences"] >= 1
    assert result.stats["fallback_requests"] == 3
    assert result.produced == baseline.produced


def test_mixed_script_group_rejected_in_strict_mode():
    app, run = _serve([
        Request("r1", "branch.php", get={"v": "1"}),
        Request("r2", "other.php", get={"v": "2"}),
    ])
    tampered = _merge_all_groups(run.reports)
    result = ssco_audit(app, run.trace, tampered, run.initial_state,
                        strict=True)
    assert not result.accepted
    assert result.reason is RejectReason.GROUP_DIVERGED
    assert "mixes scripts" in result.detail


def test_mixed_script_group_demotes_in_non_strict_mode():
    app, run = _serve([
        Request("r1", "branch.php", get={"v": "1"}),
        Request("r2", "other.php", get={"v": "2"}),
    ])
    tampered = _merge_all_groups(run.reports)
    result = ssco_audit(app, run.trace, tampered, run.initial_state,
                        strict=False)
    assert result.accepted, (result.reason, result.detail)
    assert result.stats["fallback_requests"] == 2
    assert result.produced == run.trace.response_bodies()


def test_multivalue_fallback_retries_in_both_modes():
    """MultivalueFallback is a retry, not a verdict — even strict mode
    demotes instead of rejecting (§4.3)."""
    sources = {
        "s.php": "echo param(param('which'), 'none');",
    }
    requests = [
        Request("r1", "s.php", get={"which": "a", "a": "1"}),
        Request("r2", "s.php", get={"which": "b", "b": "2"}),
    ]
    for strict in (True, False):
        app, run = _serve(requests, sources)
        result = ssco_audit(app, run.trace, run.reports,
                            run.initial_state, strict=strict)
        assert result.accepted, (strict, result.reason, result.detail)
        assert result.stats["fallback_requests"] == 2
        assert result.stats["divergences"] == 0


def test_parallel_demotion_matches_serial(local_pool):
    """A divergence *inside an epoch worker process* produces the same
    verdict and bodies as the serial driver."""
    app, run = _serve(
        [Request(f"r{i}", "branch.php", get={"v": str(i * 9)})
         for i in range(6)]
        + [Request(f"o{i}", "other.php", get={"v": str(i)})
           for i in range(4)]
    )
    # Merge only the two branch.php flow groups into one divergent
    # group; other.php keeps its own group, so the plan has 2+ chunks.
    tampered = run.reports.deep_copy()
    branch_rids = [
        rid for tag, rids in tampered.groups.items() for rid in rids
        if rid.startswith("r")
    ]
    tampered.groups = {
        tag: rids for tag, rids in tampered.groups.items()
        if not any(rid.startswith("r") for rid in rids)
    }
    tampered.groups["bogus"] = branch_rids
    serial = ssco_audit(app, run.trace, tampered, run.initial_state,
                        strict=False)
    parallel = audit_epochs(app, run, reports=tampered, strict=False,
                            pool=local_pool, backend="hybrid")
    assert serial.accepted and parallel.accepted
    assert parallel.produced == serial.produced
    serial_strict = ssco_audit(app, run.trace, tampered,
                               run.initial_state, strict=True)
    parallel_strict = audit_epochs(app, run, reports=tampered,
                                   strict=True, pool=local_pool,
                                   backend="hybrid")
    assert not serial_strict.accepted and not parallel_strict.accepted
    assert parallel_strict.reason is serial_strict.reason


def test_divergent_error_group_demotes_even_in_strict_mode():
    """The executor groups every errored request of a script under one
    ``error:<script>`` tag regardless of the branch taken before the
    error, so honest executions produce divergent error groups.  Strict
    mode must demote these (retry path), never reject — the fuzzer
    caught the grouped engine falsely rejecting exactly this shape."""
    sources = {
        "boom.php": """
$v = intval(param('v'));
if ($v > 10) { echo "big:", $v; } else { echo "small:", $v; }
nosuchfn($v);
""",
    }
    requests = [
        Request("r1", "boom.php", get={"v": "5"}),
        Request("r2", "boom.php", get={"v": "50"}),
    ]
    app, run = _serve(requests, sources)
    assert list(run.reports.groups) == ["error:boom.php"]
    for strict in (True, False):
        result = ssco_audit(app, run.trace, run.reports,
                            run.initial_state, strict=strict)
        assert result.accepted, (strict, result.reason, result.detail)
        assert result.stats["fallback_requests"] == 2
    # A *non*-error group that diverges still rejects in strict mode:
    # the retry path is scoped to the executor's error-group contract.
    tampered = run.reports.deep_copy()
    tampered.groups = {"bogus": list(run.reports.groups["error:boom.php"])}
    strict_result = ssco_audit(app, run.trace, tampered,
                               run.initial_state, strict=True)
    assert not strict_result.accepted
    assert strict_result.reason is RejectReason.GROUP_DIVERGED


def test_error_group_lookup_does_not_scan_every_group_per_divergence():
    """A forged bundle that labels thousands of diverging pairs
    ``error:*`` must not cost O(groups x requests): strict mode (which
    asks "is this rid in an error group?" at every divergence) stays
    within a small factor of non-strict (which never asks)."""
    import time

    pairs = 3000
    requests = [
        Request(f"r{index:05d}", "branch.php",
                get={"v": "5" if index % 2 else "50"})
        for index in range(2 * pairs)
    ]
    app, run = _serve(requests)
    rids = sorted(request.rid for request in requests)
    forged = run.reports.deep_copy()
    forged.groups = {
        f"error:{index:05d}": rids[2 * index:2 * index + 2]
        for index in range(pairs)
    }

    def cpu_seconds(strict):
        best = None
        for _ in range(2):
            start = time.process_time()
            result = ssco_audit(app, run.trace, forged, run.initial_state,
                                strict=strict)
            spent = time.process_time() - start
            best = spent if best is None else min(best, spent)
            assert result.accepted, (result.reason, result.detail)
            assert result.stats["divergences"] == pairs
            assert result.stats["fallback_requests"] == 2 * pairs
        return best

    # The linear scan made strict 4-5x non-strict at this size.
    assert cpu_seconds(strict=True) <= 2.0 * cpu_seconds(strict=False)
