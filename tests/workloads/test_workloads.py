"""Workload generators: shape, determinism, end-to-end audits at small scale."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.bench import harness, run_workload_pipeline
from repro.lang import compile as compile_module
from repro.workloads import (
    cart_workload,
    forum_workload,
    hotcrp_workload,
    wiki_workload,
    zipf_sample,
    zipf_weights,
)
from repro.workloads.cart import population as cart_population


def test_zipf_weights_decreasing():
    weights = zipf_weights(10, 0.53)
    assert all(a > b for a, b in zip(weights, weights[1:]))
    with pytest.raises(ValueError):
        zipf_weights(0, 0.53)


def test_zipf_sample_skew():
    rng = random.Random(1)
    picks = zipf_sample(rng, list(range(50)), 1.0, 5000)
    counts = Counter(picks)
    assert counts[0] > counts[25] > 0


def test_wiki_workload_deterministic():
    a = wiki_workload(scale=0.01, seed=5)
    b = wiki_workload(scale=0.01, seed=5)
    assert [r.rid for r in a.requests] == [r.rid for r in b.requests]
    assert [r.script for r in a.requests] == [r.script for r in b.requests]


def test_wiki_workload_mix():
    workload = wiki_workload(scale=0.05)
    scripts = Counter(r.script for r in workload.requests)
    assert scripts["wiki_view.php"] > scripts["wiki_edit.php"] > 0
    assert scripts["wiki_list.php"] > 0
    assert scripts["wiki_search.php"] > 0
    assert workload.label == "MediaWiki"


def test_wiki_request_count_scales():
    assert len(wiki_workload(scale=0.01).requests) == 200
    assert len(wiki_workload(scale=0.1).requests) == 2000


def test_forum_guest_registered_ratio():
    workload = forum_workload(scale=0.2)
    with_session = sum(1 for r in workload.requests if r.cookies)
    total = len(workload.requests)
    # 1:40 target ratio, loosely checked.
    assert 0.005 < with_session / total < 0.10
    assert workload.label == "phpBB"


def test_forum_replies_only_from_registered():
    workload = forum_workload(scale=0.2)
    for request in workload.requests:
        if request.script == "forum_reply.php":
            assert "sess" in request.cookies


def test_hotcrp_phases():
    workload = hotcrp_workload(scale=0.05)
    scripts = Counter(r.script for r in workload.requests)
    assert scripts["crp_submit.php"] > 0
    assert scripts["crp_review.php"] > 0
    assert scripts["crp_paper.php"] > 0
    assert scripts["crp_login.php"] > 0
    assert workload.label == "HotCRP"


def test_hotcrp_reviews_have_two_versions():
    workload = hotcrp_workload(scale=0.05)
    reviews = [r for r in workload.requests
               if r.script == "crp_review.php"]
    pairs = Counter((r.get["p"], r.cookies["sess"]) for r in reviews)
    assert all(count == 2 for count in pairs.values())


@pytest.mark.parametrize("factory,scale", [
    (wiki_workload, 0.01),
    (forum_workload, 0.005),
    (hotcrp_workload, 0.012),
])
def test_workload_audits_accept(factory, scale):
    workload = factory(scale=scale)
    run = run_workload_pipeline(workload, seed=2, concurrency=4,
                                run_baseline=False, measure_legacy=False)
    assert run.audit.accepted, (workload.label, run.audit.reason,
                                run.audit.detail)


def test_the_legacy_serve_compiles_nothing(monkeypatch):
    """The legacy serve is timed warm, like the recorded serve after it,
    so the recording overhead is not a compile-cost difference: the
    serve under its timer makes no compile-cache miss."""
    workload = forum_workload(scale=0.005, seed=1)
    compile_module.clear_cache()
    misses = []
    serve = harness.run_online_phase

    def timed(*args, **kwargs):
        before = compile_module.cache_info()["misses"]
        execution = serve(*args, **kwargs)
        misses.append(compile_module.cache_info()["misses"] - before)
        return execution

    monkeypatch.setattr(harness, "run_online_phase", timed)
    harness.measure_legacy_seconds(workload, seed=1, concurrency=4)
    assert misses == [0]


def test_cart_workload_deterministic():
    a = cart_workload(scale=0.02, seed=9)
    b = cart_workload(scale=0.02, seed=9)
    assert [r.rid for r in a.requests] == [r.rid for r in b.requests]
    assert [r.script for r in a.requests] == [r.script for r in b.requests]
    assert a.label == "Cart/Checkout"


def test_cart_workload_mix_and_flow_order():
    workload = cart_workload(scale=0.05)
    scripts = Counter(r.script for r in workload.requests)
    assert scripts["cart_browse.php"] > scripts["cart_reserve.php"] > 0
    assert scripts["cart_pay.php"] > 0
    assert scripts["cart_confirm.php"] > 0
    # Per token, the flow must be reserve -> pay -> confirm/cancel.
    order = {}
    for index, request in enumerate(workload.requests):
        token = request.get.get("t")
        if token:
            order.setdefault(token, []).append(
                (request.script, index))
    rank = {"cart_reserve.php": 0, "cart_pay.php": 1,
            "cart_confirm.php": 2, "cart_cancel.php": 2}
    for token, steps in order.items():
        ranks = [rank[s] for s, _ in steps]
        assert ranks == sorted(ranks), (token, steps)


def test_cart_population_scales():
    small, large = cart_population(0.05), cart_population(1.0)
    assert small["products"] < large["products"]
    assert large["products"] == 60


def test_cart_workload_audit_accepts():
    workload = cart_workload(scale=0.02)
    run = run_workload_pipeline(workload, seed=2, concurrency=4,
                                run_baseline=False, measure_legacy=False)
    assert run.audit.accepted, (run.audit.reason, run.audit.detail)
