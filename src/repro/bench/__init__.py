"""Online phase + audit phase with phase accounting.

Used by ``repro demo``, the examples and the tests.  The harness runs a
workload through the honest executor twice (with and without recording,
to price the server's overhead), runs the SSCO audit and the
simple-re-execution baseline, and assembles the rows the paper's tables
and figures report.  The benchmark is ``benchmarks/e2e/``.
"""

from repro.bench.harness import (
    BenchRun,
    run_audit_phase,
    run_online_phase,
    run_workload_pipeline,
)
from repro.bench.metrics import (
    figure8_row,
    figure9_decomposition,
    simulate_open_loop,
)
from repro.bench.formatting import render_table

__all__ = [
    "BenchRun",
    "figure8_row",
    "figure9_decomposition",
    "render_table",
    "run_audit_phase",
    "run_online_phase",
    "run_workload_pipeline",
    "simulate_open_loop",
]
