#!/usr/bin/env python3
"""Audit a MediaWiki-style workload and show where the acceleration
comes from (Sections 3.1, 4.5, 5.2 of the paper).

Serves a Zipf-distributed wiki workload (views, edits, searches), audits
it with the full SSCO pipeline, audits it again with the simple
per-request re-execution baseline, and prints the speedup plus the
deduplication statistics: control-flow group sizes, the univalent
instruction fraction α, and the read-query dedup hit rate.

Run:  python examples/wiki_audit.py [scale]
      (default scale 0.05 = 1,000 requests over 10 pages)
"""

import sys

from repro.bench import (
    figure9_decomposition,
    render_table,
    run_workload_pipeline,
)
from repro.workloads import wiki_workload

scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05

print(f"building wiki workload at scale {scale} ...")
workload = wiki_workload(scale=scale)
print(f"  {len(workload.requests)} requests")

print("serving (legacy + recorded) and auditing ...")
run = run_workload_pipeline(workload, seed=42, concurrency=8)

audit = run.audit
assert audit.accepted, (audit.reason, audit.detail)

stats = audit.stats
alpha = 1 - stats["multi_steps"] / max(1, stats["steps"])
dedup_total = stats["dedup_hits"] + stats["dedup_misses"]

print("\n=== audit accepted ===")
print(f"  SSCO audit:            {audit.phases['total'] * 1e3:8.1f} ms")
print(f"  simple re-execution:   "
      f"{run.baseline_audit.phases['total'] * 1e3:8.1f} ms")
print(f"  speedup:               "
      f"{run.baseline_audit.phases['total'] / audit.phases['total']:8.2f} x")
print(f"  legacy serving time:   {run.legacy_seconds * 1e3:8.1f} ms")

print("\n=== sources of acceleration ===")
print(f"  control-flow groups:   {stats['groups']}")
print(f"  grouped requests:      {stats['grouped_requests']}")
print(f"  univalent fraction α:  {alpha:.4f}")
print(f"  SELECT dedup hits:     {stats['dedup_hits']}/{dedup_total} "
      f"({100 * stats['dedup_hits'] / max(1, dedup_total):.1f}%)")
print(f"  versioned DB versions: {stats['versioned_db_versions']}")

print("\n=== audit CPU decomposition (Figure 9) ===")
decomposition = figure9_decomposition(run)
rows = [{"phase": key, "seconds": value}
        for key, value in decomposition.items()]
print(render_table(rows, ["phase", "seconds"]))

print("\n=== largest control-flow groups (Figure 11) ===")
triples = sorted(stats["group_alphas"], key=lambda t: -t[0])[:8]
print(render_table(
    [{"requests_n": n, "alpha": a, "instructions_l": steps}
     for n, a, steps in triples],
    ["requests_n", "alpha", "instructions_l"],
))
