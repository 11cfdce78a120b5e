"""Metric extraction: the rows of Figure 8 and the bars of Figure 9, and
the queueing model behind Figure 8's latency-vs-throughput curves."""

from __future__ import annotations

import heapq
import random

from repro.bench.harness import BenchRun


def figure8_row(run: BenchRun) -> dict[str, object]:
    """One row of Figure 8's left table.

    * **audit speedup**: baseline audit seconds / SSCO audit seconds.  The
      paper's baseline is the legacy serving cost (pessimistic for
      OROCHI); we report both that ratio and the measured simple-re-exec
      audit ratio.
    * **server CPU overhead**: (recorded serve − legacy serve) / legacy.
    * **report sizes**: per-request bytes, OROCHI vs the nondet-only
      baseline, plus the ratio of (trace+reports) sizes.
    * **DB overhead**: versioned store bytes / plain final-DB bytes
      ("temp"), and 1× permanent (only the latest state is kept, §5.1).
    """
    execution = run.execution
    audit = run.audit
    requests = max(1, len(execution.trace.request_ids()))
    trace_bytes = execution.trace.size_bytes()
    report_bytes = execution.reports.total_size_bytes()
    baseline_report_bytes = execution.reports.baseline_size_bytes()

    audit_seconds = max(1e-9, audit.phases.get("total", 0.0))
    baseline_seconds = (
        run.baseline_audit.phases["total"] if run.baseline_audit else 0.0
    )
    legacy = run.legacy_seconds
    recorded = execution.server_seconds

    versioned_bytes = audit.stats.get("versioned_db_bytes", 0)
    final_db_bytes = 0
    if execution.final_state is not None:
        final_db_bytes = execution.final_state.db_engine.size_bytes()

    return {
        "app": run.label,
        "requests": requests,
        "audit_speedup_vs_simple_reexec": baseline_seconds / audit_seconds
        if baseline_seconds
        else float("nan"),
        "audit_speedup_vs_legacy_serve": legacy / audit_seconds
        if legacy
        else float("nan"),
        "server_cpu_overhead_pct": 100.0 * (recorded - legacy) / legacy
        if legacy
        else float("nan"),
        "avg_request_bytes": trace_bytes / requests,
        "baseline_report_bytes_per_req": baseline_report_bytes / requests,
        "orochi_report_bytes_per_req": report_bytes / requests,
        "report_overhead_pct": 100.0
        * (trace_bytes + report_bytes)
        / max(1, trace_bytes + baseline_report_bytes)
        - 100.0,
        "db_temp_overhead_x": versioned_bytes / final_db_bytes
        if final_db_bytes
        else float("nan"),
        "db_permanent_overhead_x": 1.0,
        "accepted": audit.accepted,
    }


def simulate_open_loop(
    service_s: float,
    rate_per_s: float,
    num_requests: int = 4000,
    workers: int = 4,
    seed: int = 7,
) -> dict[str, float]:
    """Figure 8 (right)'s latency percentiles from a per-request service
    time: an M/D/c FCFS queue (Poisson arrivals at ``rate_per_s``,
    deterministic service, ``workers`` servers)."""
    rng = random.Random(seed)
    arrivals = []
    now = 0.0
    for _ in range(num_requests):
        now += rng.expovariate(rate_per_s)
        arrivals.append(now)
    free_at = [0.0] * workers
    heapq.heapify(free_at)
    latencies: list[float] = []
    for arrival in arrivals:
        earliest = heapq.heappop(free_at)
        start = max(arrival, earliest)
        done = start + service_s
        heapq.heappush(free_at, done)
        latencies.append(done - arrival)
    latencies.sort()

    def pct(p: float) -> float:
        return latencies[min(len(latencies) - 1,
                             int(p * len(latencies)))]

    return {"p50_ms": pct(0.50) * 1e3, "p90_ms": pct(0.90) * 1e3,
            "p99_ms": pct(0.99) * 1e3}


def figure9_decomposition(run: BenchRun) -> dict[str, float]:
    """Figure 9's bars: audit-time CPU decomposition (seconds).

    * ``php`` — SIMD-on-demand execution + simulate-and-check;
    * ``db_query`` — versioned-DB SELECTs during re-execution;
    * ``proc_op_reports`` — Figures 5/6;
    * ``db_redo`` — versioned-store construction;
    * ``other`` — balance/nondet checks, output comparison, bookkeeping.
    """
    phases = run.audit.phases
    total = phases.get("total", 0.0)
    db_query = phases.get("db_query", 0.0)
    reexec = phases.get("reexec", 0.0)
    php = max(0.0, reexec - db_query)
    proc = phases.get("proc_op_reports", 0.0)
    redo = phases.get("db_redo", 0.0)
    other = max(0.0, total - php - db_query - proc - redo)
    return {
        "php": php,
        "db_query": db_query,
        "proc_op_reports": proc,
        "db_redo": redo,
        "other": other,
        "total": total,
        "baseline_total": run.baseline_audit.phases["total"]
        if run.baseline_audit
        else float("nan"),
    }
