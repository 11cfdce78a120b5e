"""Exact counts an engine change must not move.

Each of the four workloads of ``benchmarks/e2e`` (the three applications
and the request-driven ``compute_singleton`` loop) is built and served
by the benchmark's own ``e2e_workloads`` at its ``--smoke`` size and
seed 1, then audited.  The expected values were recorded on the engine
*before* its operators were fused with their leaf operands (variable
reads and constants taken in line, exact-int fast ops), and that change
had to leave every one of them where it was: the instruction count, the
multivalent steps / slots / classes of the audit, the control-flow
groups on both sides, the bodies the audit produced and the bundle's
bytes.  A later change that moves one of them changes what the engine
computes or how it books it; it must say why and re-record.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core import AuditConfig, Auditor
from repro.io import save_audit_bundle_segmented

sys.path.append(str(Path(__file__).resolve().parents[2]
                    / "benchmarks" / "e2e"))
import e2e_workloads  # noqa: E402

SEED = 1

#: workload -> requests, server groups, audit groups, steps, multi_steps,
#: multi_slots, multi_classes, produced-bodies SHA-256, bundle SHA-256.
#: The bundle holds the control-flow tags: the bundle SHA-256 column was
#: re-recorded when a fold-free loop began folding its trip count once
#: instead of a fold per trip (every tag changed, no group did).
PINNED = {
    "wiki_read": (
        200, 19, 19, 17102, 640, 10235, 2604,
        "47eb7dd4e543c898d0f81725e9fc85dfbfa636026aeac0edba57eaac4b91a962",
        "90b5b7fd85634a8171673e35c35e903377b417f82cf22d555db3c3ab9b216ee2",
    ),
    "hotcrp_query": (
        55, 10, 10, 2623, 155, 1055, 469,
        "dda13eb79cab830860e5c1533b1e05b6360e5147ad7fdb4e678c5602d5b1f54f",
        "64f0eafa3d27a1911a2fe772e9a415d9d158045c5b30193af2ea67e9f6901baf",
    ),
    "cart_write": (
        198, 43, 43, 4224, 1271, 6433, 4206,
        "c2faf846234bf21278a98156a1311fae095eb149ac924e953e8e5fb02ab60129",
        "6b005cca954ca470ce549772b56f81e006dad039efde06f55f4828bfc6147efc",
    ),
    "compute_singleton": (
        60, 56, 56, 225787, 0, 0, 0,
        "74b55549dbdc981bc443b48e23a78af07ea4330296cc199d28d9a9e448ea36f4",
        "25e6b0129b8365c4f76f34261b317e6986daa7db0d6e3b56072d37bb41812a20",
    ),
}

#: workload -> the audit's ``work_ratio`` (the paper's cost model over
#: its groups' (n, α, ℓ): Σ n·ℓ / Σ ℓ·(α + (1−α)·n)), to six places.  A
#: change to grouping, dedup or collapse moves it.
WORK_RATIO = {
    "wiki_read": 6.428213,
    "hotcrp_query": 3.964235,
    "cart_write": 1.855316,
    "compute_singleton": 1.065008,
}


def test_every_benchmark_workload_is_pinned():
    assert set(PINNED) == set(WORK_RATIO) == set(e2e_workloads.SPECS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_serve_and_audit_counts_are_pinned(tmp_path, name):
    workload = e2e_workloads.build_workload(name, SEED, smoke=True)
    execution = e2e_workloads.serve(workload, SEED, record=True, smoke=True)
    result = Auditor(workload.app, AuditConfig()).audit_epochs(
        execution.epochs(), execution.initial_state)
    assert result.accepted

    path = tmp_path / "bundle.jsonl"
    save_audit_bundle_segmented(
        str(path), execution.trace, execution.reports,
        execution.initial_state, execution.epoch_marks)
    stats = result.stats
    produced = json.dumps(sorted(result.produced.items())).encode()
    assert (
        len(workload.requests),
        len(execution.reports.groups),
        stats["groups"],
        stats["steps"],
        stats["multi_steps"],
        stats["multi_slots"],
        stats["multi_classes"],
        hashlib.sha256(produced).hexdigest(),
        hashlib.sha256(path.read_bytes()).hexdigest(),
    ) == PINNED[name]
    assert round(stats["work_ratio"], 6) == WORK_RATIO[name]
