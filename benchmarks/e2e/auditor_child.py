"""The auditor side of the benchmark, run as its own process.

It is handed a bundle file and rebuilds the trusted program from the
workload name; it never holds the trace, reports or stores of the
serving side, so its peak RSS is the auditor's alone.  The last line of
its standard output is one JSON object for ``run.py``.

``--mode e2e`` repeats the product-default audit until ``--seconds``
have passed.  ``--mode trace`` makes one traced pass per layer
question (phases, back ends, naive baseline, concurrency).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time

from e2e_refclock import RefClock
from e2e_spans import TracedPhase, Tracer, cpu_by_name, self_cpu
from e2e_workloads import build_workload
from repro.core import AuditConfig, Auditor, AuditPipeline, simple_audit
from repro.core.pipeline import default_pipeline
from repro.io import BundleReader

BACKEND_METRICS = {
    "interp": "lang.interp_reexec_cpu_us_per_req",
    "accinterp": "accel.accinterp_reexec_cpu_us_per_req",
    "compinterp": "lang.compile_reexec_cpu_us_per_req",
    "hybrid": "core.hybrid_reexec_cpu_us_per_req",
}
PHASE_METRICS = {
    "core.trace_check": "core.trace_check_cpu_us_per_req",
    "core.proc_op_reports": "core.process_reports_cpu_us_per_req",
    "core.db_redo": "core.build_stores_cpu_us_per_req",
    "core.reexec": "core.reexec_cpu_us_per_req",
    "core.output_compare": "core.output_compare_cpu_us_per_req",
    "core.migrate": "core.migrate_cpu_us_per_req",
}


def peak_rss_kib() -> int:
    """This process's own high-water RSS.  Not ``ru_maxrss``: Linux folds
    the spawning parent's RSS into that at exec, and the parent holds
    the whole serving side."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def produced_digest(produced: dict[str, str]) -> str:
    payload = json.dumps(sorted(produced.items())).encode()
    return hashlib.sha256(payload).hexdigest()


def exact_counts(result) -> dict[str, float]:
    """Layer metrics read off the public ``AuditResult.stats``; they must
    repeat exactly from run to run."""
    stats = result.stats
    groups = stats.get("groups", 0)
    lookups = stats.get("dedup_hits", 0) + stats.get("dedup_misses", 0)
    return {
        "core.graph_nodes": stats.get("graph_nodes", 0),
        "core.graph_edges": stats.get("graph_edges", 0),
        "core.reexec_groups": groups,
        "core.mean_group_size":
            stats.get("grouped_requests", 0) / groups if groups else 0.0,
        "core.reexec_steps": stats.get("steps", 0),
        "core.reexec_multi_steps": stats.get("multi_steps", 0),
        "core.reexec_fallback_requests": stats.get("fallback_requests", 0),
        "core.reexec_divergences": stats.get("divergences", 0),
        "core.dedup_hit_ratio":
            stats.get("dedup_hits", 0) / lookups if lookups else 0.0,
        "sql.queries_issued": stats.get("db_queries_issued", 0),
        "sql.redo_statements": stats.get("redo_statements", 0),
        "sql.versioned_bytes": stats.get("versioned_db_bytes", 0),
        "sql.versioned_versions": stats.get("versioned_db_versions", 0),
    }


def paced(epochs, clock: RefClock):
    """Cut ``clock`` each time the auditor pulls an epoch off the reader."""
    for epoch in epochs:
        clock.cut()
        yield epoch


def timed_audit(app, path: str, config: AuditConfig, clock: RefClock) -> dict:
    """The product path with tracing off: open the bundle, audit it epoch
    by epoch.  Returns its CPU seconds at reference speed (``cpu``) and
    as read (``raw_cpu``), its wall seconds (the clock's kernel runs
    taken out), and what it concluded."""
    wall_start, kernel_start = time.perf_counter(), clock.kernel_cpu
    with clock.measure() as reading:
        with BundleReader.open(path) as reader:
            result = Auditor(app, config).audit_epochs(
                paced(reader.epochs(), clock), reader.initial_state)
        wall = (time.perf_counter() - wall_start
                - (clock.kernel_cpu - kernel_start))
    return {
        "cpu": reading["ref"],
        "raw_cpu": reading["raw"],
        "wall": wall,
        # Program-reported wall seconds, brought to reference speed by
        # the factor the audit around them got.
        "db_query": (result.phases.get("db_query", 0.0)
                     * reading["ref"] / reading["raw"]),
        "accepted": result.accepted,
        "digest": produced_digest(result.produced),
        "counts": exact_counts(result),
    }


def run_e2e(app, path: str, seconds: float, min_reps: int) -> dict:
    """Product-default audits until ``seconds`` have passed."""
    clock = RefClock()
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < min_reps or time.perf_counter() < deadline:
        reps.append(timed_audit(app, path, AuditConfig(), clock))
    return {"reps": reps}


def traced_audit(app, path: str, config: AuditConfig, tracer: Tracer):
    """The same audit with a span around every call into a layer: the
    reader (open, each epoch pulled) and each pipeline phase.  Returns
    (result, audit span, wall seconds of each ``feed_epoch``)."""
    phases = default_pipeline(config.to_options()).phases
    auditor = Auditor(app, config, pipeline=AuditPipeline(
        [TracedPhase(phase, tracer) for phase in phases]
    ))
    epoch_walls = []
    with tracer.span("core.audit") as audit_span:
        with tracer.span("io.decode"):
            reader = BundleReader.open(path)
            state = reader.initial_state
            epochs = reader.epochs()
        with reader, auditor.session(state) as session:
            while True:
                tracer.clock.cut()
                with tracer.span("io.decode"):
                    epoch = next(epochs, None)
                if epoch is None:
                    break
                with tracer.span("core.feed_epoch") as fed:
                    session.feed_epoch(epoch.trace, epoch.reports)
                epoch_walls.append(fed["end"] - fed["start"])
            result = session.close()
    return result, audit_span, epoch_walls


class TraceRun:
    """One traced pass per layer question.  Fills ``metrics`` (final
    per-layer names), ``aux`` (numbers ``run.py`` reports beside them)
    and ``checks`` (what must agree for the run to count)."""

    def __init__(self, app, path: str, requests: int, tracer: Tracer):
        self.app = app
        self.path = path
        self.requests = requests
        self.tracer = tracer
        self.default = AuditConfig()
        self.metrics: dict[str, float] = {}
        self.aux: dict[str, float] = {}
        self.checks: list[tuple[str, bool]] = []
        self.reference: dict = {}

    def per_req(self, cpu: float) -> float:
        return 1e6 * cpu / self.requests

    def check_same(self, what: str, accepted: bool, digest: str,
                   counts: dict | None = None) -> None:
        """An audit must accept and re-execute the reference's bodies;
        a default-configuration one must also repeat its counts."""
        self.checks.append((
            what,
            accepted and digest == self.reference["digest"]
            and counts in (None, self.reference["counts"])))

    def decode(self, passes: int) -> None:
        cpus = []
        for _ in range(passes):
            with self.tracer.span("io.decode_only") as span:
                with BundleReader.open(self.path) as reader:
                    reader.read_initial_state()
                    epochs = sum(1 for _ in reader.epochs())
            cpus.append(span["ref_cpu"])
        self.aux["io.decode_cpu_s"] = statistics.median(cpus)
        self.metrics["io.decode_cpu_us_per_req"] = self.per_req(
            self.aux["io.decode_cpu_s"])
        self.metrics["io.epochs"] = epochs

    def default_audit(self, passes: int) -> None:
        """Untraced and traced default audits alternate after one
        warm-up, so lazy set-up is paid before either is timed."""
        app, path, tracer = self.app, self.path, self.tracer
        self.reference = timed_audit(app, path, self.default, tracer.clock)
        self.checks.append(("untraced audit accepts",
                            self.reference["accepted"]))
        untraced, traced_cpu, glue_cpu, epoch_walls = [], [], [], []
        phase_cpu: dict[str, list[float]] = {n: [] for n in PHASE_METRICS}
        coverage = []
        for _ in range(passes):
            rep = timed_audit(app, path, self.default, tracer.clock)
            untraced.append(rep)
            self.check_same("untraced audit repeats exactly",
                            rep["accepted"], rep["digest"], rep["counts"])
            result, audit_span, walls = traced_audit(
                app, path, self.default, tracer)
            self.check_same(
                "traced audit matches untraced (verdict, bodies, counts)",
                result.accepted, produced_digest(result.produced),
                exact_counts(result))
            family = tracer.spans[audit_span["id"]:]
            by_name = cpu_by_name(family)
            for name in PHASE_METRICS:
                phase_cpu[name].append(by_name.get(name, 0.0))
            glue = sum(self_cpu(family, span) for span in family
                       if span["name"] in ("core.audit", "core.feed_epoch"))
            glue_cpu.append(glue)
            covered = (by_name["io.decode"] + glue
                       + sum(by_name.get(n, 0.0) for n in PHASE_METRICS))
            coverage.append(covered / audit_span["ref_cpu"])
            traced_cpu.append(audit_span["ref_cpu"])
            epoch_walls.extend(walls)

        for name, metric in PHASE_METRICS.items():
            self.metrics[metric] = self.per_req(
                statistics.median(phase_cpu[name]))
        self.metrics["core.auditor_self_cpu_us_per_req"] = self.per_req(
            statistics.median(glue_cpu))
        untraced_cpu = statistics.median(r["cpu"] for r in untraced)
        self.aux["audit_untraced_cpu_s"] = untraced_cpu
        self.aux["audit_traced_cpu_s"] = statistics.median(traced_cpu)
        self.metrics["trace.overhead_pct"] = 100.0 * (
            self.aux["audit_traced_cpu_s"] / untraced_cpu - 1.0)
        self.aux["span_coverage_min"] = min(coverage)
        self.aux["span_coverage_max"] = max(coverage)
        self.checks.append((
            "decode + phase + self spans sum to the audit span within 2 %",
            all(abs(share - 1.0) <= 0.02 for share in coverage)))
        self.metrics["sql.query_us_per_req"] = self.per_req(
            statistics.median(r["db_query"] for r in untraced))
        epoch_walls.sort()
        self.metrics["core.auditor_epoch_p50_ms"] = 1e3 * statistics.median(
            epoch_walls)
        self.metrics["core.auditor_epoch_p90_ms"] = 1e3 * epoch_walls[
            min(len(epoch_walls) - 1, int(0.9 * len(epoch_walls)))]
        self.aux["epoch_samples"] = len(epoch_walls)
        self.aux["audit_best_wall_s"] = min(r["wall"] for r in untraced)
        self.metrics["core.auditor_wall_rps"] = (
            self.requests / self.aux["audit_best_wall_s"])

    def backends(self) -> None:
        """The re-exec span under each back end; all must produce the
        same bodies.  The default back end was measured above."""
        for backend, metric in BACKEND_METRICS.items():
            if backend == self.default.backend:
                self.metrics[metric] = self.metrics[
                    "core.reexec_cpu_us_per_req"]
                continue
            mark = len(self.tracer.spans)
            result, _, _ = traced_audit(
                self.app, self.path, self.default.replace(backend=backend),
                self.tracer)
            self.metrics[metric] = self.per_req(
                cpu_by_name(self.tracer.spans[mark:])["core.reexec"])
            self.check_same(f"backend {backend} agrees on produced",
                            result.accepted,
                            produced_digest(result.produced))

    def naive(self) -> None:
        """Decode the same file, then re-execute every request on its
        own in arrival order (Fig. 8's denominator)."""
        with self.tracer.span("core.ooo_naive") as span:
            with BundleReader.open(self.path) as reader:
                trace, reports, state, _ = reader.read_all()
            result = simple_audit(self.app, trace, reports, state)
        self.metrics["core.ooo_naive_cpu_us_per_req"] = self.per_req(
            span["ref_cpu"])
        self.metrics["core.ooo_speedup_x"] = (
            span["ref_cpu"] / self.aux["audit_untraced_cpu_s"])
        self.check_same("naive baseline agrees on produced",
                        result.accepted, produced_digest(result.produced))

    def concurrency(self) -> None:
        walls = {}
        for key, config in (
            ("core.epochpool_ew2", self.default.replace(epoch_workers=2)),
            ("core.reexec_workers2", self.default.replace(workers=2)),
        ):
            with self.tracer.span(key):
                rep = timed_audit(self.app, self.path, config,
                                  self.tracer.clock)
            self.metrics[key + "_cpu_us_per_req"] = self.per_req(rep["cpu"])
            walls[key] = rep["wall"]
            self.check_same(f"{key} agrees on produced",
                            rep["accepted"], rep["digest"])
        self.metrics["core.epochpool_ew2_wall_x"] = (
            self.aux["audit_best_wall_s"] / walls["core.epochpool_ew2"])


def run_trace(app, path: str, requests: int, tracer: Tracer,
              passes: int) -> dict:
    run = TraceRun(app, path, requests, tracer)
    run.decode(passes)
    run.default_audit(passes)
    run.backends()
    run.naive()
    run.concurrency()
    run.metrics.update(run.reference["counts"])
    return {"metrics": run.metrics, "aux": run.aux, "checks": run.checks,
            "counts": run.reference["counts"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--bundle", required=True)
    parser.add_argument("--mode", choices=("e2e", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = build_workload(args.workload, args.seed, args.smoke)
    app, requests = workload.app, len(workload.requests)
    del workload
    if args.mode == "e2e":
        out = run_e2e(app, args.bundle, args.seconds, args.min_reps)
    else:
        tracer = Tracer(args.workload)
        out = run_trace(app, args.bundle, requests, tracer,
                        passes=args.min_reps)
        out["spans"] = tracer.spans
    out["peak_rss_kib"] = peak_rss_kib()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
