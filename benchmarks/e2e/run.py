"""The repo's end-to-end benchmark: CPU cost per audited request.

One run takes one workload through the product path — generate requests,
``Executor.serve(record=True)``, a segmented bundle file on disk, a
separate auditor process that is handed only that file — and checks the
verdict.  ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` makes the traced per-layer passes.  See README.md in
this directory for the metric definitions and BENCHMARK.json at the
repo root for the contract.

    python3 benchmarks/e2e/run.py --workload wiki_read --seed 1 \\
        --seconds 18 --trace 0
    python3 benchmarks/e2e/run.py --workload all --trace 1 \\
        --out layers.json --trace-out spans.jsonl

The last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``) for the last workload run; the
exit code is non-zero if any operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
WORK = os.path.join(REPO, ".bench_work")
# `repro` is not installed in a clean checkout: import it from the tree
# this file sits in, whatever the cwd or PYTHONPATH.
sys.path.insert(0, SRC)

try:
    from repro.core import AuditConfig, Auditor
    from repro.io import BundleReader, record_kind, save_audit_bundle_segmented
    from repro.net import BundlePublisher, RemoteBundleReader
    from repro.scenarios.fuzz import fuzz_bundle
except ImportError as exc:
    sys.exit(f"benchmarks/e2e: cannot import repro from {SRC}: {exc}")

from e2e_refclock import RefClock  # noqa: E402
from e2e_spans import Tracer  # noqa: E402
from e2e_workloads import SPECS, build_workload, serve  # noqa: E402

#: Variables that would change what "product defaults" means.
FORBIDDEN_ENV = ("REPRO_BACKEND", "REPRO_FORCE_SPAWN")
#: Share of ``--seconds`` the timed serves may use before the audits
#: get the rest; serving costs more per repetition and needs fewer.
SERVE_SHARE = 0.5
MAX_SERVES = 5
#: Set-up (workload build, canary round) is repeated; the median counts.
SETUPS = 3

with open(os.path.join(REPO, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)
UNITS = {m["name"]: m["unit"]
         for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}


class Ops:
    """Operations attempted and failed, with the reason for each miss."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def serve_to_bundle(workload, seed: int, smoke: bool, path: str,
                    clock: RefClock) -> dict:
    """The timed serving-side operation: serve with recording on, then
    write the segmented bundle.  Returns its CPU reading."""
    with clock.measure() as reading:
        execution = serve(workload, seed, record=True, smoke=smoke,
                          clock=clock)
        save_audit_bundle_segmented(
            path, execution.trace, execution.reports,
            execution.initial_state, execution.epoch_marks,
        )
    return reading


def run_auditor_child(name: str, args, path: str, mode: str,
                      seconds: float, min_reps: int) -> dict:
    # PYTHONPATH also reaches spawn-started pool workers.
    env = {**os.environ, "PYTHONPATH": SRC, "TMPDIR": os.path.dirname(path)}
    command = [
        sys.executable, os.path.join(HERE, "auditor_child.py"),
        "--workload", name, "--seed", str(args.seed), "--bundle", path,
        "--mode", mode, "--seconds", str(seconds),
        "--min-reps", str(min_reps),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          check=True, timeout=170)
    # Only the last line is the result; anything a library printed
    # before it (or on stderr, which passes through) is ignored.
    return json.loads(done.stdout.splitlines()[-1])


def tamper_bundle(path: str) -> None:
    """Test hook: flip the first response body in the bundle file."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for index, line in enumerate(lines):
        if record_kind(line) == "event" and b'"response"' in line:
            record = json.loads(line)
            record["event"]["response"]["body"] += "<!--tampered-->"
            lines[index] = json.dumps(record).encode()
            break
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")


def summarize(samples: list[float], raw: list[float], scale: float) -> dict:
    """Median of the normalised repetitions (the metric), their range,
    and the raw CPU readings they were scaled from."""
    scaled = [s * scale for s in samples]
    raw = [r * scale for r in raw]
    return {"value": statistics.median(scaled), "min": min(scaled),
            "max": max(scaled), "n": len(scaled), "samples": scaled,
            "raw_median": statistics.median(raw), "raw_min": min(raw),
            "raw_max": max(raw)}


# -- end-to-end run (tracing off) ----------------------------------------------


def canary(name: str, args, workload, path: str, ops: Ops,
           clock: RefClock) -> float:
    """The soundness canary: the honest bundle at ``path`` must ACCEPT
    and single-edit tampers of it must each be REJECTED.  Returns the
    CPU seconds of one round, the median of ``SETUPS`` rounds.

    Where a tamper lands decides how soon its audit stops, and with it
    most of the cost of set-up.  The fuzzer is therefore seeded with the
    round number, not with ``--seed``: the edits then land at about the
    same places in every seed's bundle, and ``setup_s`` does not move by
    a third from one seed to the next.  Each round checks other edits."""
    rounds = []
    for index in range(1 if args.smoke else SETUPS):
        with clock.measure() as reading:
            with BundleReader.open(path) as reader:
                honest = Auditor(workload.app, AuditConfig()).audit_epochs(
                    reader.epochs(), reader.initial_state)
        ops.record(honest.accepted,
                   f"{name}: canary audit of the honest bundle REJECTED")
        rounds.append(reading["ref"])
        for op in SPECS[name].canary_ops:
            with clock.measure() as reading:
                report = fuzz_bundle(path, workload.app, mutations=1,
                                     seed=index, operators=(op,),
                                     shrink=False, edits_per_mutation=1)
            ops.record(report.outcomes[0].rejected,
                       f"{name}: canary tamper {op} was ACCEPTED")
            rounds[-1] += reading["ref"]
    return statistics.median(rounds)


def run_end_to_end(name: str, args, workdir: str, ops: Ops) -> dict:
    smoke = args.smoke
    clock = RefClock()
    # Set-up, part one: inputs and the program, several times over.
    builds = []
    for _ in range(1 if smoke else SETUPS):
        with clock.measure() as reading:
            workload = build_workload(name, args.seed, smoke)
        builds.append(reading["ref"])
    build_cpu = statistics.median(builds)
    requests = len(workload.requests)

    measure_start = time.perf_counter()
    serve_deadline = measure_start + SERVE_SHARE * args.seconds
    min_serves = 1 if smoke else 2
    serves, digests = [], []
    path = os.path.join(workdir, f"{name}.jsonl")
    longest = 0.0
    # After the minimum, one more serve only if it should end in time.
    while len(serves) < min_serves or (
        len(serves) < MAX_SERVES
        and time.perf_counter() + longest < serve_deadline
    ):
        started = time.perf_counter()
        serves.append(serve_to_bundle(workload, args.seed, smoke, path, clock))
        longest = max(longest, time.perf_counter() - started)
        digests.append(file_sha256(path))
        ops.record(digests[-1] == digests[0],
                   f"{name}: serve {len(digests)} wrote a different bundle")
    serve_wall = time.perf_counter() - measure_start
    bundle_bytes = os.path.getsize(path)

    # Set-up, part two: the soundness canary.  It needs a bundle, so it
    # runs after the serves, but its CPU is charged to set-up.
    canary_cpu = canary(name, args, workload, path, ops, clock)

    if args.tamper:
        tamper_bundle(path)
    child = run_auditor_child(
        name, args, path, "e2e",
        seconds=max(0.0, args.seconds - serve_wall),
        min_reps=1 if smoke else 3,
    )
    reps = child["reps"]
    for index, rep in enumerate(reps):
        ops.record(rep["accepted"], f"{name}: audit {index} REJECTED")
        ops.record(rep["digest"] == reps[0]["digest"]
                   and rep["counts"] == reps[0]["counts"],
                   f"{name}: audit {index} differs from audit 0")

    per_req = 1e6 / requests
    metrics = {
        "audit_cpu_us_per_req": summarize(
            [r["cpu"] for r in reps], [r["raw_cpu"] for r in reps], per_req),
        "serve_cpu_us_per_req": summarize(
            [r["ref"] for r in serves], [r["raw"] for r in serves], per_req),
        "bundle_bytes_per_req": {"value": bundle_bytes / requests},
        "audit_peak_rss_mb": {"value": child["peak_rss_kib"] / 1024.0},
        "setup_s": {"value": build_cpu + canary_cpu,
                    "build_s": build_cpu, "canary_s": canary_cpu},
    }
    return {
        "requests": requests,
        "metrics": metrics,
        "bundle_sha256": digests[0],
        "produced_sha256": reps[0]["digest"],
        "counts": reps[0]["counts"],
    }


# -- traced run (per-layer metrics) --------------------------------------------


def replay_over_socket(path: str):
    """Publish the bundle's lines verbatim on a loopback socket, then
    attach one reader and drain it.  Everything is spooled before the
    reader connects, so the benchmark needs no thread of its own."""
    with BundlePublisher("127.0.0.1:0", heartbeat_interval=None) as publisher:
        with open(path, "rb") as fh:
            for line in fh:
                kind = record_kind(line)
                if kind is not None:  # the header travels in HELLO
                    publisher.write_record_payload(line, kind=kind)
        with RemoteBundleReader(publisher.endpoint,
                                idle_timeout=30) as reader:
            reader.read_initial_state()
            request_count = sum(e.request_count for e in reader.epochs())
            return request_count, reader.wire_bytes_received


def run_traced(name: str, args, workdir: str, ops: Ops,
               tracer: Tracer) -> dict:
    smoke = args.smoke
    passes = 1 if smoke else 2
    workload = build_workload(name, args.seed, smoke)
    requests = len(workload.requests)
    per_req = 1e6 / requests
    path = os.path.join(workdir, f"{name}.jsonl")

    # Legacy and recorded serves alternate after a warm-up slice, so
    # neither mode is the one that pays for cold caches.
    warm = type(workload)(workload.app, workload.requests[:requests // 10],
                          workload.label)
    serve(warm, args.seed, record=False, smoke=smoke)
    legacy, recorded, encode = [], [], []
    for _ in range(passes):
        with tracer.span("server.serve_legacy") as span:
            serve(workload, args.seed, record=False, smoke=smoke,
                  clock=tracer.clock)
        legacy.append(span)
        with tracer.span("server.serve_recorded") as span:
            execution = serve(workload, args.seed, record=True, smoke=smoke,
                              clock=tracer.clock)
        recorded.append(span)
        with tracer.span("io.encode") as span:
            save_audit_bundle_segmented(
                path, execution.trace, execution.reports,
                execution.initial_state, execution.epoch_marks)
        encode.append(span)
    groups = len(execution.reports.groups)
    del execution
    legacy_cpu = min(s["ref_cpu"] for s in legacy)
    recorded_cpu = min(s["ref_cpu"] for s in recorded)

    kind_bytes = {"event": 0, "report": 0}
    with open(path, "rb") as fh:
        for line in fh:
            kind = record_kind(line)
            if kind == "event":
                kind_bytes["event"] += len(line)
            elif kind in ("group", "op_log", "op_counts", "nondet"):
                kind_bytes["report"] += len(line)

    with tracer.span("net.replay") as replay:
        replayed, wire_bytes = replay_over_socket(path)
    ops.record(replayed == requests,
               f"{name}: socket replay delivered {replayed} requests")

    with tracer.span("auditor_child") as child_span:
        child = run_auditor_child(name, args, path, "trace", seconds=0.0,
                                  min_reps=passes)
    for what, ok in child["checks"]:
        ops.record(ok, f"{name}: {what}")
    # The child numbered its spans from 0; file them under its span here.
    offset = len(tracer.spans)
    for span in child["spans"]:
        span["id"] += offset
        span["parent"] = (child_span["id"] if span["parent"] is None
                          else span["parent"] + offset)
    tracer.spans.extend(child["spans"])

    metrics = dict(child["metrics"])
    metrics.update({
        "server.legacy_cpu_us_per_req": legacy_cpu * per_req,
        "server.recorded_cpu_us_per_req": recorded_cpu * per_req,
        "server.record_overhead_pct":
            100.0 * (recorded_cpu / legacy_cpu - 1.0),
        "server.groups": groups,
        "server.wall_rps":
            requests / min(s["end"] - s["start"] for s in recorded),
        "io.encode_cpu_us_per_req":
            min(s["ref_cpu"] for s in encode) * per_req,
        "io.trace_bytes_per_req": kind_bytes["event"] / requests,
        "io.report_bytes_per_req": kind_bytes["report"] / requests,
        "net.replay_cpu_us_per_req": replay["ref_cpu"] * per_req,
        "net.wire_bytes_per_req": wire_bytes / requests,
        "net.overhead_x":
            replay["ref_cpu"] / child["aux"]["io.decode_cpu_s"],
    })
    return {
        "requests": requests,
        "metrics": {key: {"value": value} for key, value in metrics.items()},
        "aux": child["aux"],
        "counts": child["counts"],
    }


# -- output --------------------------------------------------------------------


def git_commit() -> str:
    if not os.path.exists(os.path.join(REPO, ".git")):
        return "unknown"  # an exported tree; do not ask a directory above it
    try:
        done = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def print_table(name: str, result: dict) -> None:
    print(f"== {name}: {result['requests']} requests ==")
    for metric, entry in result["metrics"].items():
        spread = ""
        if "n" in entry:
            spread = (f"  (min {entry['min']:.2f}, max {entry['max']:.2f}, "
                      f"n={entry['n']}; raw median {entry['raw_median']:.2f}, "
                      f"min {entry['raw_min']:.2f}, max {entry['raw_max']:.2f})")
        print(f"  {metric:<40} {entry['value']:>14.4f} "
              f"{UNITS[metric]}{spread}")


def result_line(result: dict, ops: Ops) -> str:
    return json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {
            metric: {"value": entry["value"], "unit": UNITS[metric]}
            for metric, entry in result["metrics"].items()
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="all",
                        choices=[*SPECS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=CONTRACT["run_seconds"],
                        help="how long the timed serves and audits of one "
                             "workload run (tracing off)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced per-layer passes instead of the "
                             "end-to-end metrics")
    parser.add_argument("--out", help="write one JSON document here")
    parser.add_argument("--trace-out",
                        help="with --trace 1: write the spans here, JSONL")
    parser.add_argument("--smoke", action="store_true",
                        help="at most 200 requests, one repetition")
    parser.add_argument("--tamper", action="store_true",
                        help="test hook: corrupt the bundle before the "
                             "audit; the run must then fail")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0  # the minimum repetitions, no more

    present = [key for key in FORBIDDEN_ENV if key in os.environ]
    if present:
        sys.exit(f"benchmarks/e2e: unset {', '.join(present)}: the "
                 f"benchmark measures the code's own defaults")

    names = list(SPECS) if args.workload == "all" else [args.workload]
    document = {
        "meta": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_commit": git_commit(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
        },
        "workloads": {},
    }
    spans: list[dict] = []
    failures: list[str] = []
    # Bundles, traces and the fuzzer's scratch files all stay inside the
    # checkout.
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    tempfile.tempdir = workdir
    try:
        for name in names:
            ops = Ops()
            if args.trace:
                tracer = Tracer(name)
                result = run_traced(name, args, workdir, ops, tracer)
                spans.extend(tracer.spans)
            else:
                result = run_end_to_end(name, args, workdir, ops)
            result["ops_attempted"] = ops.attempted
            result["ops_failed"] = len(ops.failures)
            result["failures"] = ops.failures
            document["workloads"][name] = result
            failures.extend(ops.failures)
            print_table(name, result)
            last = result_line(result, ops)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is using it

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1)
            fh.write("\n")
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(last)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
