"""E12 — time-travel forensics: timeline build, as-of queries, and the
scoped single-request re-audit vs the full audit.

The forensic surface (``repro query --as-of`` / ``repro explain``)
promises interactive cost: building the :class:`Timeline` runs only
the redo-only prepass (no re-execution), an as-of query is a versioned
-store lookup, and ``explain`` replays just one request's control-flow
chunk plus its read-lineage closure.  This benchmark pins those claims
to numbers on the wiki workload:

* ``timeline_vs_full`` — timeline build seconds over the same run's
  full audit seconds (the prepass is a strict subset of the audit's
  work, so this must stay well below 1);
* ``asof_query_seconds`` — mean wall seconds per as-of reconstruction
  (SQL and KV, epoch-end and request points);
* ``explain_steps_fraction`` / ``explain_requests_fraction`` — the
  scoped re-audit's re-exec step count and replayed-request count as a
  fraction of the full audit's (deterministic: counters, not clocks);
* bit-identity of the scoped re-audit's regenerated body with the full
  audit's produced body is asserted, not just measured.

Run standalone to (re)generate the committed baseline::

    PYTHONPATH=src python benchmarks/bench_asof.py --out BENCH_asof.json

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_asof.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time as _time

from repro.bench.harness import run_audit_phase, run_online_phase
from repro.forensics import Timeline, query_asof, reaudit_request
from repro.workloads import wiki_workload


def run(scale: float = 0.02, seed: int = 1, epoch_size: int = 30,
        queries: int = 8):
    workload = wiki_workload(scale=scale, seed=seed)
    execution = run_online_phase(workload, seed=seed,
                                 epoch_size=epoch_size)
    requests = len(workload.requests)

    started = _time.perf_counter()
    full = run_audit_phase(workload, execution, run_baseline=False)
    full_seconds = _time.perf_counter() - started
    assert full.audit.accepted, (full.audit.reason, full.audit.detail)
    full_steps = full.audit.stats["steps"]

    started = _time.perf_counter()
    timeline = Timeline.from_epochs(workload.app, execution.epochs(),
                                    execution.initial_state)
    timeline_seconds = _time.perf_counter() - started
    assert timeline.prepass_rejected is None

    # As-of reconstructions: SQL + KV, alternating epoch-end and
    # request points spread over the trace.
    rids = sorted(timeline.entries)
    points = [str(timeline.epoch_count - 1)] + [
        rids[(i * len(rids)) // max(1, queries - 1) - 1]
        for i in range(1, queries)
    ]
    targets = ["SELECT COUNT(*) FROM pages", "kv:views:Page_000"]
    started = _time.perf_counter()
    for i, point in enumerate(points):
        query_asof(timeline, point, targets[i % len(targets)])
    asof_seconds = (_time.perf_counter() - started) / max(1, len(points))

    # Scoped re-audit of a late request (worst-case lineage depth).
    target = rids[len(rids) // 2]
    started = _time.perf_counter()
    scoped = reaudit_request(timeline, target)
    explain_seconds = _time.perf_counter() - started
    assert scoped.accepted, (scoped.reason, scoped.detail)
    # The acceptance criterion: the scoped replay regenerates the very
    # bytes the full audit produced for that request.
    assert scoped.body == full.audit.produced[target]

    return {
        "benchmark": "asof",
        "workload": workload.label,
        "requests": requests,
        "epochs": timeline.epoch_count,
        "cpu_count": os.cpu_count(),
        "full_audit_seconds": full_seconds,
        "timeline_seconds": timeline_seconds,
        "timeline_vs_full": timeline_seconds / max(full_seconds, 1e-12),
        "asof_query_seconds": asof_seconds,
        "explain_seconds": explain_seconds,
        "full_steps": full_steps,
        "explain_steps": scoped.stats["steps"],
        "explain_steps_fraction": (scoped.stats["steps"]
                                   / max(1, full_steps)),
        "explain_requests": len(scoped.replayed),
        "explain_requests_fraction": (len(scoped.replayed)
                                      / max(1, requests)),
        "explain_chunks": scoped.chunks_replayed,
        "lineage_requests": len(scoped.lineage.requests),
    }


# -- pytest entry point --------------------------------------------------------


def test_scoped_reaudit_is_cheaper_than_full(capsys):
    """The scoped re-audit replays a strict minority of the full
    audit's work (counters, not clocks) and regenerates a bit-identical
    body — the committed baseline gates the actual fractions."""
    row = run(scale=0.01, epoch_size=25, queries=4)
    assert row["explain_steps_fraction"] < 0.5, row
    assert row["explain_requests_fraction"] < 0.5, row
    assert row["timeline_vs_full"] < 1.0, row
    with capsys.disabled():
        print()
        print("=== time-travel forensics (wiki) ===")
        print(f"  full audit     {row['full_audit_seconds'] * 1e3:8.1f} ms "
              f"({row['full_steps']} steps)")
        print(f"  timeline build {row['timeline_seconds'] * 1e3:8.1f} ms "
              f"({row['timeline_vs_full']:.2f}x of full)")
        print(f"  as-of query    {row['asof_query_seconds'] * 1e3:8.2f} ms"
              f"/query")
        print(f"  explain        {row['explain_seconds'] * 1e3:8.1f} ms "
              f"({row['explain_steps']} steps = "
              f"{row['explain_steps_fraction']:.1%} of full, "
              f"{row['explain_requests']} of {row['requests']} requests)")


# -- standalone entry point ----------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--epoch-size", type=int, default=30)
    parser.add_argument("--queries", type=int, default=8)
    parser.add_argument("--out", default="BENCH_asof.json")
    args = parser.parse_args(argv)
    result = run(args.scale, seed=args.seed, epoch_size=args.epoch_size,
                 queries=args.queries)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    print(f"  requests={result['requests']} epochs={result['epochs']}")
    print(f"  full={result['full_audit_seconds'] * 1e3:.1f} ms "
          f"timeline={result['timeline_seconds'] * 1e3:.1f} ms "
          f"asof={result['asof_query_seconds'] * 1e3:.2f} ms/query")
    print(f"  explain: {result['explain_steps']} of "
          f"{result['full_steps']} steps "
          f"({result['explain_steps_fraction']:.1%}), "
          f"{result['explain_requests']} of {result['requests']} "
          f"requests replayed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
