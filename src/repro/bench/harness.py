"""Online + audit pipeline behind ``repro demo`` and the examples."""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

from repro.core.auditor import Auditor
from repro.core.config import AuditConfig
from repro.core.pipeline import AuditResult, simple_audit
from repro.lang.compile import compiled_for
from repro.server.executor import ExecutionResult, Executor
from repro.server.nondet import NondetSource
from repro.server.scheduler import RandomScheduler
from repro.workloads.wiki import Workload


@dataclass
class BenchRun:
    """Everything one workload pipeline produced."""

    label: str
    execution: ExecutionResult
    legacy_seconds: float  # serving without recording (the baseline server)
    audit: AuditResult
    baseline_audit: AuditResult | None = None


def run_online_phase(
    workload: Workload,
    seed: int = 1,
    concurrency: int = 8,
    record: bool = True,
    epoch_size: int = 0,
) -> ExecutionResult:
    """Serve the workload with a seeded-random scheduler."""
    executor = Executor(
        workload.app,
        scheduler=RandomScheduler(seed),
        max_concurrency=concurrency,
        nondet=NondetSource(seed=seed),
        record=record,
        epoch_size=epoch_size,
    )
    return executor.serve(workload.requests)


def measure_legacy_seconds(
    workload: Workload, seed: int = 1, concurrency: int = 8
) -> float:
    """Wall-clock seconds to serve the workload *without* recording: the
    paper's legacy-server baseline (§5.1).  The scripts are compiled
    before the timer starts, so it is timed warm, as the recorded serve
    after it is."""
    app = workload.app
    for name in app.scripts:
        compiled_for(app.script(name), app.db_name, app.kv_name,
                     app.session_cookie)
    started = _time.perf_counter()
    run_online_phase(workload, seed=seed, concurrency=concurrency,
                     record=False)
    return _time.perf_counter() - started


def run_audit_phase(
    workload: Workload,
    execution: ExecutionResult,
    run_baseline: bool = True,
    config: AuditConfig | None = None,
    pool=None,
) -> BenchRun:
    """Audit ``execution`` under ``config`` (the defaults when ``None``)
    and package the outcome for the benchmarks: an epoch session over
    the epochs the execution was recorded in, on ``pool`` when given,
    then the :func:`simple_audit` baseline unless ``run_baseline`` is
    off."""
    audit = Auditor(workload.app, config).audit_epochs(
        execution.epochs(), execution.initial_state, pool
    )
    baseline = simple_audit(
        workload.app, execution.trace, execution.reports,
        execution.initial_state) if run_baseline else None
    return BenchRun(
        label=workload.label,
        execution=execution,
        legacy_seconds=0.0,
        audit=audit,
        baseline_audit=baseline,
    )


def run_workload_pipeline(
    workload: Workload,
    seed: int = 1,
    concurrency: int = 8,
    run_baseline: bool = True,
    measure_legacy: bool = True,
    epoch_size: int = 0,
) -> BenchRun:
    """Full pipeline: legacy serve, recorded serve, audit, baseline audit."""
    legacy_seconds = (
        measure_legacy_seconds(workload, seed=seed, concurrency=concurrency)
        if measure_legacy
        else 0.0
    )
    execution = run_online_phase(workload, seed=seed,
                                 concurrency=concurrency,
                                 epoch_size=epoch_size)
    run = run_audit_phase(workload, execution, run_baseline=run_baseline)
    run.legacy_seconds = legacy_seconds
    return run
