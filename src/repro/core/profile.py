"""Per-group (n, α, ℓ) profiles captured during an audit.

Every audited control-flow group already yields the triple the paper's
cost model is built on — ``n`` (requests in the group), ``α`` (the
deduplication fraction: ``1 - multivalent_steps / steps``), and ``ℓ``
(re-executed steps) — as ``stats["group_alphas"]``.  This module turns
those triples into a stable JSON profile document: the scenario
factory emits one per synthesized bundle, and a future size-aware
chunk scheduler consumes them as its training/planning input
(ROADMAP: the factory doubles as the profile source).
"""

from __future__ import annotations

from typing import Mapping

PROFILE_FORMAT = "ssco-group-profile"
PROFILE_VERSION = 1


def group_profile(stats: Mapping, meta: Mapping | None = None) -> dict:
    """Build the profile document from merged audit ``stats``.

    ``meta`` (workload name, scale, seed, ...) is carried through
    verbatim under ``"source"``; the triples are kept in audit order so
    a profile is reproducible byte-for-byte from the same bundle.
    """
    triples = [
        [int(n), round(float(alpha), 6), int(ell)]
        for n, alpha, ell in stats.get("group_alphas", [])
    ]
    requests = sum(t[0] for t in triples)
    steps = sum(t[2] for t in triples)
    profile: dict = {
        "profile": PROFILE_FORMAT,
        "version": PROFILE_VERSION,
        "groups": len(triples),
        "requests": requests,
        "n_alpha_ell": triples,
        "summary": summarize_triples(triples),
        "source": dict(meta) if meta else {},
    }
    profile["summary"]["steps"] = steps
    return profile


def work_ratio(triples) -> float:
    """The paper's cost model over (n, α, ℓ) triples: Σ n·ℓ over Σ ℓ·(α +
    (1−α)·n), a multivalent step charged once per request; 1.0 if none."""
    alone = sum(n * ell for n, _, ell in triples)
    audit = sum(ell * (alpha + (1 - alpha) * n) for n, alpha, ell in triples)
    return alone / audit if audit else 1.0


def summarize_triples(triples: list[list]) -> dict:
    """Aggregate moments a scheduler can use without the full list."""
    if not triples:
        return {
            "mean_n": 0.0, "max_n": 0, "mean_alpha": 0.0,
            "mean_ell": 0.0, "max_ell": 0, "singleton_fraction": 0.0,
        }
    count = len(triples)
    singletons = sum(1 for n, _, _ in triples if n == 1)
    # α averaged over *requests*, not groups: a thousand-request group
    # with high dedup should dominate a thousand singletons.
    weighted_alpha = sum(n * alpha for n, alpha, _ in triples)
    total_n = sum(n for n, _, _ in triples)
    return {
        "mean_n": round(total_n / count, 6),
        "max_n": max(n for n, _, _ in triples),
        "mean_alpha": round(
            weighted_alpha / total_n if total_n else 0.0, 6
        ),
        "mean_ell": round(
            sum(ell for _, _, ell in triples) / count, 6
        ),
        "max_ell": max(ell for _, _, ell in triples),
        "singleton_fraction": round(singletons / count, 6),
    }
