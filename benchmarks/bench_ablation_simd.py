"""E8 — ablation: what makes the audit fast?

Compares, per application:

* the full SSCO audit (grouped SIMD-on-demand + collapse + dedup);
* collapse disabled (every uniform vector stays multivalent — the "SIMD
  without on-demand" strawman of §5.2: the gain comes from collapse);
* per-request re-execution (OOOExec, the simple baseline).
"""

from __future__ import annotations

from repro.bench import render_table
from repro.core import simple_audit, ssco_audit


def test_simd_ablation_table(all_bundles, capsys):
    rows = []
    for label, bundle in all_bundles.items():
        workload, execution, _ = bundle
        full = ssco_audit(workload.app, execution.trace,
                          execution.reports, execution.initial_state)
        no_collapse = ssco_audit(workload.app, execution.trace,
                                 execution.reports,
                                 execution.initial_state, collapse=False)
        baseline = simple_audit(workload.app, execution.trace,
                                execution.reports,
                                execution.initial_state)
        assert full.accepted and no_collapse.accepted and baseline.accepted
        assert full.produced == baseline.produced
        alpha = 1.0 - full.stats["multi_steps"] / max(
            1, full.stats["steps"]
        )
        alpha_nc = 1.0 - no_collapse.stats["multi_steps"] / max(
            1, no_collapse.stats["steps"]
        )
        rows.append({
            "app": label,
            "ssco_s": full.phases["total"],
            "no_collapse_s": no_collapse.phases["total"],
            "per_request_s": baseline.phases["total"],
            "speedup": baseline.phases["total"] / max(
                1e-9, full.phases["total"]),
            "alpha": alpha,
            "alpha_no_collapse": alpha_nc,
        })
        # Collapse is what keeps execution univalent.
        assert alpha > alpha_nc
    with capsys.disabled():
        print()
        print("=== Ablation: SIMD-on-demand vs no-collapse vs"
              " per-request re-execution ===")
        print(render_table(rows, [
            "app", "ssco_s", "no_collapse_s", "per_request_s", "speedup",
            "alpha", "alpha_no_collapse",
        ]))


def test_bench_simple_reexec_baseline(benchmark, wiki_bundle):
    workload, execution, _ = wiki_bundle
    result = benchmark.pedantic(
        lambda: simple_audit(workload.app, execution.trace,
                             execution.reports, execution.initial_state),
        rounds=2, iterations=1,
    )
    assert result.accepted
