"""E9 — concurrent epoch auditing: wall-clock vs epoch workers.

An epoch session chains epochs serially because epoch k+1's
initial state is epoch k's §4.5 migrated state.  The redo-only state
precompute (``state_precompute_pipeline``) materializes every epoch's
initial state without re-executing anything, which unlocks auditing all
epochs concurrently (``--epoch-workers N``): whole epochs run as work
units on N local fleet workers (``repro.fleet.local_fleet``).  Their
enrollment is paid once per worker count, outside the timed region.

This benchmark serves one wiki workload with epoch draining (a >= 4
epoch bundle), audits it serially and with increasing epoch worker
counts, checks every concurrent audit's produced bodies are bitwise
identical to the serial chain's, and reports wall-clock.

The recorded baseline carries ``cpu_count``: on a single-core host the
workers *pay* for their core-independence serially (each rebuilds its
epoch's stores from the encoded work unit, so with no cores to hide it
behind the redo runs twice).  The speedup materializes with cores,
where whole epochs execute simultaneously in the worker processes with
no GIL in the way of any phase.

Run standalone to (re)generate the committed baseline::

    PYTHONPATH=src python benchmarks/bench_epoch_parallel.py \
        --scale 0.1 --epoch-size 250 --epoch-workers 1,2,4 \
        --out BENCH_epoch_parallel.json

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_epoch_parallel.py
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time as _time

from repro.core import Auditor
from repro.fleet import local_fleet
from repro.server import Executor, RandomScheduler
from repro.server.nondet import NondetSource
from repro.workloads import wiki_workload


def available_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def serve_epochs(workload, epoch_size: int, seed: int = 1):
    """Record the workload with epoch draining so the bundle carries
    interior quiescent cuts (the executor's epoch marks)."""
    executor = Executor(
        workload.app,
        scheduler=RandomScheduler(seed),
        max_concurrency=8,
        nondet=NondetSource(seed=seed),
        epoch_size=epoch_size,
    )
    execution = executor.serve(workload.requests)
    assert execution.epoch_marks, "epoch draining produced no cuts"
    return execution


def measure_epoch_scaling(
    workload,
    execution,
    epoch_workers_list=(1, 2, 4),
    repeats: int = 1,
):
    """Audit the same bundle at each epoch-worker count; returns rows.

    The serial chain (``epoch_workers=1``) is always measured first —
    it is the reference every row's ``speedup_total`` and the
    bitwise-equality check compare against, so a caller passing e.g.
    ``2,4`` still gets honest numbers.
    """
    rows = []
    serial_produced = None
    serial_total = None
    if not epoch_workers_list or epoch_workers_list[0] != 1:
        epoch_workers_list = [1] + [workers_n for workers_n
                                    in epoch_workers_list
                                    if workers_n != 1]
    for epoch_workers in epoch_workers_list:
        # The row tag names the regression gate's metric
        # (``epoch_workers<N>_process_speedup``).
        driver = "serial" if epoch_workers == 1 else "process"
        best = best_total = None
        auditor = Auditor(workload.app)
        with (local_fleet(epoch_workers) if epoch_workers > 1
              else contextlib.nullcontext()) as pool:
            for _ in range(max(1, repeats)):
                # Wall-clock of the call: a session's own ``total`` sums
                # the epochs' audit times, which concurrent epochs
                # overlap.
                started = _time.perf_counter()
                audit = auditor.audit_epochs(execution.epochs(),
                                             execution.initial_state, pool)
                total = _time.perf_counter() - started
                assert audit.accepted, (audit.reason, audit.detail)
                if best is None or total < best_total:
                    best, best_total = audit, total
        if serial_produced is None:
            serial_produced = best.produced
            serial_total = best_total
        else:
            assert best.produced == serial_produced, (
                f"epoch_workers={epoch_workers} ({driver}): produced "
                f"bodies diverge from the serial chain"
            )
        rows.append({
            "epoch_workers": epoch_workers,
            "driver": driver,
            "total_seconds": best_total,
            "reexec_seconds": best.phases["reexec"],
            "state_precompute_seconds": best.phases.get(
                "state_precompute", 0.0),
            "speedup_total": serial_total / max(best_total, 1e-12),
            "epochs": best.stats["shard_count"],
        })
    return rows


def run(scale: float, epoch_size: int, epoch_workers_list,
        seed: int = 1, repeats: int = 1):
    workload = wiki_workload(scale=scale)
    execution = serve_epochs(workload, epoch_size, seed=seed)
    rows = measure_epoch_scaling(workload, execution, epoch_workers_list,
                                 repeats=repeats)
    return {
        "benchmark": "epoch_parallel",
        "workload": "wiki",
        "scale": scale,
        "requests": len(workload.requests),
        "epoch_size": epoch_size,
        "epochs": len(execution.epoch_marks) + 1,
        "cpu_count": os.cpu_count(),
        "available_cpus": available_cpus(),
        "note": "speedup_total requires multiple cores; on a single-core "
                "host the fleet's workers pay their duplicated redo "
                "serially (see module docstring)",
        "rows": rows,
    }


# -- pytest entry point --------------------------------------------------------


def test_epoch_parallel(capsys):
    """Concurrent epoch audits are verdict- and output-identical to the
    serial chain, and wall-clock improves when cores are available.

    Scale/repeats are sized so each audit runs long enough (hundreds of
    ms) that pool startup and scheduler noise cannot flip the
    comparison on a busy CI runner.
    """
    workload = wiki_workload(scale=0.05)
    execution = serve_epochs(workload, epoch_size=125)
    assert len(execution.epoch_marks) + 1 >= 4, "need a >= 4 epoch bundle"
    rows = measure_epoch_scaling(workload, execution,
                                 epoch_workers_list=(1, 2), repeats=3)
    serial = rows[0]
    process = next(r for r in rows if r["driver"] == "process")
    if available_cpus() >= 2:
        # With real cores the concurrent audit must win wall-clock.
        assert process["total_seconds"] < serial["total_seconds"], rows
    else:
        # Single-core host: demand bounded overhead, not speedup (the
        # workers re-run the versioned redo the prepass already did).
        assert process["total_seconds"] < 3.0 * serial["total_seconds"], \
            rows
    with capsys.disabled():
        print()
        print("=== epoch parallel (audit wall-clock) ===")
        for row in rows:
            print(f"  epoch_workers={row['epoch_workers']} "
                  f"[{row['driver']}]: "
                  f"{row['total_seconds']:.3f}s "
                  f"(speedup {row['speedup_total']:.2f}x, "
                  f"{row['epochs']} epochs)")


# -- standalone entry point ----------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--epoch-size", type=int, default=250,
                        help="server drain interval (sets the cut count)")
    parser.add_argument("--epoch-workers", default="1,2,4",
                        help="comma-separated epoch worker counts")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=2,
                        help="audits per worker count (best time wins)")
    parser.add_argument("--out", default="BENCH_epoch_parallel.json")
    args = parser.parse_args(argv)
    epoch_workers_list = [int(part)
                          for part in args.epoch_workers.split(",")]
    result = run(args.scale, args.epoch_size, epoch_workers_list,
                 seed=args.seed, repeats=args.repeats)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out} ({result['epochs']} epochs, "
          f"{result['available_cpus']} cpu(s))")
    for row in result["rows"]:
        print(f"  epoch_workers={row['epoch_workers']} "
              f"[{row['driver']}]: "
              f"{row['total_seconds']:.3f}s total "
              f"(speedup {row['speedup_total']:.2f}x, reexec "
              f"{row['reexec_seconds']:.3f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
