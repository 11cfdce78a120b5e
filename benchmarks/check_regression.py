"""CI perf-regression gate: compare bench-smoke output to the committed
``BENCH_*.json`` baselines.

The benchmarks the CI ``bench-smoke`` job runs emit JSON result
files; historically those were only uploaded as artifacts, so a PR
could silently halve the audit's parallel speedup.  This gate turns
the committed baselines into an enforced bound::

    python benchmarks/check_regression.py \\
        bench_epoch_parallel_ci.json:BENCH_epoch_parallel.json \\
        --tolerance 0.35

Comparison model — CI runners and the baseline host differ in clock
speed, core count, and load, so raw seconds are never compared.  Every
metric is **normalized within its own run** (dimensionless):

* speedups: a parallel configuration's throughput relative to the same
  run's serial configuration (``serial_seconds / parallel_seconds`` —
  normalized throughput; higher is better);
* overheads: a socket path's cost relative to the same run's file path
  (lower is better).

A metric regresses when the CI value is worse than the baseline value
by more than ``--tolerance`` (relative).  Being *better* than the
baseline never fails.  Only metric names present in both files are
compared, so trimming a worker count from the CI invocation simply
narrows the gate.

Speedup metrics additionally carry an absolute **parity floor** of
1.0: on a multi-core runner, a parallel configuration must at least
roughly match the serial chain (within the same tolerance), even when
the committed baseline was recorded on a single-core host where the
recorded "speedup" is below parity by construction.  Without the
floor, a 1-core baseline would make the speedup half of the gate
vacuous.

Speedup metrics are meaningless without real cores: on a runner with
fewer than ``--min-cores`` available CPUs they are **skipped**, loudly,
and the gate passes on the remaining (overhead) metrics.  Exit codes:
0 pass (or all-skipped), 1 regression, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

#: Default relative tolerance: CI runners are shared and noisy; the
#: gate is meant to catch structural regressions (a lost speedup, a
#: doubled overhead), not 10% scheduler jitter.
DEFAULT_TOLERANCE = 0.35


@dataclass
class Metric:
    """One dimensionless comparison point extracted from a result."""

    name: str
    value: float
    #: True: regression = CI below baseline.  False: regression = above.
    higher_is_better: bool = True
    #: Minimum available CPUs for the metric to be meaningful.
    needs_cores: int = 1
    #: Absolute lower bound (before tolerance) enforced regardless of
    #: the baseline value — speedups carry a parity floor of 1.0 so a
    #: single-core-recorded baseline cannot make the gate vacuous on
    #: multi-core runners.  ``None`` disables it.
    floor: float | None = None


def metrics_epoch_parallel(data) -> list[Metric]:
    """``bench_epoch_parallel``: epoch-parallel speedup over the run's
    serial chain (normalized throughput)."""
    out: list[Metric] = []
    for row in data.get("rows", []):
        epoch_workers = row.get("epoch_workers")
        if epoch_workers in (None, 1):
            continue
        out.append(Metric(
            f"epoch_workers{epoch_workers}_{row['driver']}_speedup",
            row["speedup_total"],
            needs_cores=2, floor=1.0,
        ))
    return out


def metrics_transport(data) -> list[Metric]:
    """``bench_transport``: socket-vs-file overhead of the live
    transport, and the wire's serialization cost per event (both lower
    is better; bytes/event is host-independent, so it catches framing
    bloat even on a noisy runner)."""
    out: list[Metric] = []
    if "socket_overhead" in data:
        out.append(Metric("socket_overhead", data["socket_overhead"],
                          higher_is_better=False))
    if "wire_bytes_per_event" in data:
        out.append(Metric("wire_bytes_per_event",
                          data["wire_bytes_per_event"],
                          higher_is_better=False))
    return out


def metrics_fleet(data) -> list[Metric]:
    """``bench_fleet``: the distributed fleet's steady-state speedup
    over the same run's serial epoch chain (submit→merge with workers
    enrolled; enrollment is reported separately and not gated).  Parity
    floor 1.0: with real cores a two-worker loopback fleet must at
    least roughly match the serial chain — the committed baseline may
    be recorded on a single-core host where the wire and duplicated
    redo run below parity by construction."""
    out: list[Metric] = []
    if "fleet_speedup" in data:
        out.append(Metric("fleet_speedup", data["fleet_speedup"],
                          needs_cores=2, floor=1.0))
    return out


def metrics_asof(data) -> list[Metric]:
    """``bench_asof``: the forensic surface's cost bounds.  The two
    fractions are deterministic counters (re-exec steps and replayed
    requests of the scoped re-audit over the full audit's), so they
    catch a lineage-closure blowup exactly; the timeline ratio is
    normalized within the run (prepass over full audit, lower is
    better)."""
    out: list[Metric] = []
    for name in ("explain_steps_fraction", "explain_requests_fraction",
                 "timeline_vs_full"):
        if name in data:
            out.append(Metric(name, data[name],
                              higher_is_better=False))
    return out


def metrics_synth(data) -> list[Metric]:
    """``bench_synth``: the scenario factory's overhead over a bare
    serve of the same stream, and its peak-RSS growth when the request
    count is multiplied (both dimensionless, lower is better — a
    generator that starts materializing the trace blows up
    ``rss_growth`` on any host)."""
    out: list[Metric] = []
    for name in ("synth_overhead", "rss_growth"):
        if name in data:
            out.append(Metric(name, data[name],
                              higher_is_better=False))
    return out


EXTRACTORS = {
    "epoch_parallel": metrics_epoch_parallel,
    "transport": metrics_transport,
    "fleet": metrics_fleet,
    "asof": metrics_asof,
    "synth": metrics_synth,
}


def runner_cores(data) -> int:
    """CPUs available to the run that produced ``data``."""
    for key in ("available_cpus", "cpu_count"):
        value = data.get(key)
        if isinstance(value, int) and value > 0:
            return value
    return os.cpu_count() or 1


def compare(result: dict, baseline: dict, tolerance: float,
            min_cores: int = 2) -> list[str]:
    """Compare one result file against its baseline.

    Returns the list of regression messages (empty = pass); prints one
    line per metric (ok / SKIP / REGRESSION).  Raises ``ValueError`` on
    mismatched or unknown benchmark kinds.
    """
    kind = result.get("benchmark")
    if kind != baseline.get("benchmark"):
        raise ValueError(
            f"benchmark mismatch: result is {kind!r}, baseline is "
            f"{baseline.get('benchmark')!r}"
        )
    if kind not in EXTRACTORS:
        raise ValueError(
            f"unknown benchmark kind {kind!r} "
            f"(known: {', '.join(sorted(EXTRACTORS))})"
        )
    extractor = EXTRACTORS[kind]
    ci = {m.name: m for m in extractor(result)}
    base = {m.name: m for m in extractor(baseline)}
    cores = runner_cores(result)
    failures: list[str] = []
    compared = 0
    for name in sorted(base):
        if name not in ci:
            print(f"  [{kind}] {name}: not measured in this run; "
                  f"skipping")
            continue
        metric, reference = ci[name], base[name]
        if (metric.needs_cores > 1
                and cores < max(metric.needs_cores, min_cores)):
            print(f"  [{kind}] {name}: SKIP — needs >= "
                  f"{max(metric.needs_cores, min_cores)} cores, runner "
                  f"has {cores} (parallel speedups are unmeasurable "
                  f"here)")
            continue
        compared += 1
        if metric.higher_is_better:
            bound = reference.value * (1.0 - tolerance)
            if metric.floor is not None:
                # A baseline recorded without cores is no excuse for
                # losing parity where cores exist.
                bound = max(bound, metric.floor * (1.0 - tolerance))
            regressed = metric.value < bound
            direction = ">="
        else:
            bound = reference.value * (1.0 + tolerance)
            regressed = metric.value > bound
            direction = "<="
        status = "REGRESSION" if regressed else "ok"
        print(f"  [{kind}] {name}: {metric.value:.4f} vs baseline "
              f"{reference.value:.4f} (must be {direction} {bound:.4f})"
              f" ... {status}")
        if regressed:
            failures.append(
                f"{kind}/{name}: {metric.value:.4f} vs baseline "
                f"{reference.value:.4f} (tolerance {tolerance:.0%})"
            )
    if not compared:
        print(f"  [{kind}] all metrics skipped on this runner")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "pairs", nargs="+", metavar="RESULT:BASELINE",
        help="a bench-smoke output file and the committed baseline to "
             "hold it to, colon-separated",
    )
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="relative tolerance before a worse metric "
                             "fails the gate (default %(default)s)")
    parser.add_argument("--min-cores", type=int, default=2,
                        help="skip core-dependent metrics on runners "
                             "with fewer available CPUs "
                             "(default %(default)s)")
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error(f"--tolerance must be in [0, 1), got "
                     f"{args.tolerance}")

    failures: list[str] = []
    for pair in args.pairs:
        result_path, sep, baseline_path = pair.partition(":")
        if not sep or not result_path or not baseline_path:
            parser.error(f"expected RESULT:BASELINE, got {pair!r}")
        try:
            with open(result_path) as fh:
                result = json.load(fh)
            with open(baseline_path) as fh:
                baseline = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot load {pair!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"{result_path} vs {baseline_path}:")
        try:
            failures.extend(compare(result, baseline, args.tolerance,
                                    args.min_cores))
        except ValueError as exc:
            print(f"error: {pair!r}: {exc}", file=sys.stderr)
            return 2
    if failures:
        print(f"\nFAIL: {len(failures)} perf regression(s) beyond "
              f"{args.tolerance:.0%} tolerance:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: no perf regressions against the committed baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
