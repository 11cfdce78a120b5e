"""E11 — distributed audit fleet: coordinator + subprocess workers vs
the serial epoch chain.

The fleet coordinator (``repro.fleet``) fans whole epochs out to
remote worker daemons over ``repro.net`` — the same work units the
single-host process pool is handed, with a TCP hop in between.  This
benchmark measures what that hop costs (and buys):

* **serial** — the single-host chained epoch audit of one recorded
  wiki bundle, driven through the incremental session (the reference
  verdict and bodies);
* **fleet** — the same epochs submitted to a session handed
  ``local_fleet(N)``: a ``FleetCoordinator`` with N real ``repro
  worker`` subprocesses joined over loopback, dispatched concurrently
  and merged in feed order.

Worker *enrollment* (interpreter start, retry-connect, registration)
happens once per session and is deliberately excluded from the timed
region — it is reported separately as ``fleet_join_seconds``.  The
timed region is submit → merge with the crew parked idle: the
steady-state number a long-running audit session actually pays per
bundle, and the one ``fleet_speedup`` (serial wall-clock over fleet
wall-clock, dimensionless) gates in CI.  Both runs must produce
bitwise-identical bodies.

Run standalone to (re)generate the committed baseline::

    PYTHONPATH=src python benchmarks/bench_fleet.py \
        --scale 0.1 --epoch-size 250 --fleet-workers 2 \
        --out BENCH_fleet.json

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_fleet.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time as _time

from bench_epoch_parallel import available_cpus
from repro.core import AuditConfig, Auditor
from repro.fleet import local_fleet
from repro.server import Executor, RandomScheduler
from repro.server.nondet import NondetSource
from repro.workloads import wiki_workload


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


def _timed_session(app, shards, initial_state, pool=None):
    """Submit every shard to one audit session (on ``pool``, when
    given) and merge; returns ``(merged, submit_to_merge_seconds)``."""
    auditor = Auditor(app, AuditConfig())
    with auditor.session(initial_state, pool) as session:
        started = _time.perf_counter()
        for shard in shards:
            session.submit_epoch(shard.trace, shard.reports)
    merged = session.close()
    elapsed = _time.perf_counter() - started
    assert merged.accepted, (merged.reason, merged.detail)
    return merged, elapsed


def measure_fleet(workload, execution, fleet_workers: int,
                  repeats: int = 1):
    """Audit the bundle serially, then through a loopback fleet; the
    fleet's bodies must match the serial chain's bitwise."""
    shards = execution.epochs()
    serial = best_serial_seconds = None
    for _ in range(max(1, repeats)):
        merged, elapsed = _timed_session(
            workload.app, shards, execution.initial_state)
        if best_serial_seconds is None or elapsed < best_serial_seconds:
            serial, best_serial_seconds = merged, elapsed

    fleet = best_fleet_seconds = join_seconds = None
    for _ in range(max(1, repeats)):
        # The fleet dismisses its workers on exit, so each repeat gets
        # a fresh crew (and pays enrollment again — that cost is
        # reported, not timed: local_fleet yields with the crew joined).
        enrolling = _time.perf_counter()
        with local_fleet(fleet_workers) as pool:
            enrolled = _time.perf_counter() - enrolling
            assert pool.workers_joined == fleet_workers, \
                "workers never enrolled"
            merged, elapsed = _timed_session(
                workload.app, shards, execution.initial_state, pool)
        assert pool.serial_fallbacks == 0, "an epoch ran locally"
        if best_fleet_seconds is None or elapsed < best_fleet_seconds:
            fleet, best_fleet_seconds = merged, elapsed
            join_seconds = enrolled
    assert fleet.produced == serial.produced, (
        "fleet bodies diverge from the serial chain")
    return (serial, best_serial_seconds, fleet, best_fleet_seconds,
            join_seconds)


def run(scale: float, epoch_size: int, fleet_workers: int,
        seed: int = 1, repeats: int = 1):
    workload = wiki_workload(scale=scale)
    execution = serve_epochs(workload, epoch_size, seed=seed)
    (serial, serial_seconds, fleet, fleet_seconds,
     join_seconds) = measure_fleet(workload, execution, fleet_workers,
                                   repeats=repeats)
    return {
        "benchmark": "fleet",
        "workload": "wiki",
        "scale": scale,
        "epoch_size": epoch_size,
        "requests": len(workload.requests),
        "epochs": serial.stats["shard_count"],
        "fleet_workers": fleet_workers,
        "cpu_count": os.cpu_count(),
        "available_cpus": available_cpus(),
        "serial_seconds": serial_seconds,
        "fleet_seconds": fleet_seconds,
        "fleet_join_seconds": join_seconds,
        "fleet_speedup": serial_seconds / max(fleet_seconds, 1e-12),
        "note": "fleet_speedup times submit->merge with workers "
                "enrolled (enrollment is fleet_join_seconds, paid once "
                "per session); it requires multiple cores — on a "
                "single-core host the loopback fleet pays encoding, "
                "the wire, and the workers' duplicated redo with no "
                "cores to hide them behind",
    }


# -- pytest entry point --------------------------------------------------------


def test_fleet_matches_serial_and_keeps_up(capsys):
    """The loopback fleet produces the serial chain's bodies bitwise,
    and its steady-state wall-clock stays within a loose structural
    bound (real subprocess workers, so noise is expected on busy CI)."""
    row = run(scale=0.05, epoch_size=125, fleet_workers=2, repeats=1)
    assert row["epochs"] >= 4
    if row["available_cpus"] >= 2:
        # Cores available: the fleet must not collapse — an order of
        # magnitude is a structural failure, not scheduler noise.
        assert row["fleet_seconds"] < 5.0 * row["serial_seconds"], row
    with capsys.disabled():
        print()
        print("=== distributed fleet vs serial chain ===")
        print(f"  epochs={row['epochs']} workers={row['fleet_workers']} "
              f"serial={row['serial_seconds'] * 1e3:.1f}ms "
              f"fleet={row['fleet_seconds'] * 1e3:.1f}ms "
              f"(speedup {row['fleet_speedup']:.2f}x, join "
              f"{row['fleet_join_seconds'] * 1e3:.0f}ms)")


# -- standalone entry point ----------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--epoch-size", type=int, default=250)
    parser.add_argument("--fleet-workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per configuration (best time wins)")
    parser.add_argument("--out", default="BENCH_fleet.json")
    args = parser.parse_args(argv)
    result = run(args.scale, args.epoch_size, args.fleet_workers,
                 seed=args.seed, repeats=args.repeats)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    print(f"  epochs={result['epochs']} "
          f"workers={result['fleet_workers']}")
    print(f"  serial: {result['serial_seconds'] * 1e3:.1f} ms")
    print(f"  fleet:  {result['fleet_seconds'] * 1e3:.1f} ms "
          f"({result['fleet_speedup']:.2f}x serial, join "
          f"{result['fleet_join_seconds'] * 1e3:.0f} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
