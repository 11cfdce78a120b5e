"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — serve a built-in workload, audit it, print the verdict and
  the acceleration stats;
* ``record`` — serve a built-in workload and save the audit bundle
  (initial state, then each epoch's events and reports; :mod:`repro.io`);
* ``serve`` — serve a built-in workload and *publish* the audit stream
  over TCP (``--listen HOST:PORT``) for remote auditors, epoch by
  epoch, via :class:`~repro.net.publisher.BundlePublisher`;
* ``audit`` — run the SSCO audit over a bundle file, a file that is
  still being written (``--follow``), or a remote ``serve`` publisher's
  stream (``--connect HOST:PORT``).  All three open a reader and
  call the one epoch loop (:meth:`~repro.core.auditor.Auditor.
  audit_stream`): epoch slices come off the reader one at a time into
  an :class:`~repro.core.auditor.AuditSession`, which carries only
  migrated object state between epochs (§4.1, §4.5); a record that
  does not decode is its ``malformed_bundle`` verdict.
  With ``--fleet-listen [HOST:]PORT`` the session additionally fans
  each epoch out to registered ``repro worker`` daemons (composes
  with ``--connect``: one auditor, N worker hosts, one recorder);
* ``worker`` — join a fleet coordinator (``--join HOST:PORT``) and
  execute dispatched epoch audits until dismissed (see
  :mod:`repro.fleet` and ``docs/fleet.md``);
* ``lint`` — run the static analyzer over a built-in application's
  weblang scripts and print the audit-soundness diagnostics (text or
  ``--json``; ``--fail-on`` gates the exit code — see
  ``docs/analysis.md``);
* ``query`` — time-travel forensics: reconstruct any SQL result, KV
  key, or register from a recorded bundle at any epoch boundary or
  request point (``--as-of <epoch|request-id>``), with producing
  requests attributed (see ``docs/forensics.md``);
* ``explain`` — targeted single-request re-audit: replay exactly one
  request's control-flow chunk plus its read-lineage closure and print
  a scoped ACCEPT/REJECT with the regenerated body.

Every auditing subcommand is driven by one validated
:class:`~repro.core.config.AuditConfig`: flags layer over an optional
``--config audit.json`` file, which layers over the defaults.  That is
what an audit is *computed under*; where its evidence comes from and
where its epochs run (``--listen``, ``--connect``, ``--fleet-listen``,
``--epoch-workers`` and their timeouts) are deployment settings, parsed
here and passed straight to the publisher, the reader and the
coordinator, whose constructor defaults are the only defaults.
``--epoch-workers N`` (``demo``, ``audit``) audits epochs concurrently
on N local ``repro worker`` processes (:func:`~repro.fleet.local_fleet`;
a redo-only state precompute materializes each epoch's initial state
first), and ``--backend`` selects the re-execution engine.
Epochs are cut once, by the recorder: ``--epoch-size N`` on ``demo`` /
``record`` / ``serve`` / ``synth`` makes the server drain every N
requests and mark the epoch, and every audit follows the epochs it is
handed.

The built-in workloads are the paper's three applications: ``wiki``,
``forum``, ``hotcrp``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from repro.apps import (
    build_minicart,
    build_minicrp,
    build_miniforum,
    build_miniwiki,
)
from repro.bench import figure9_decomposition, render_table
from repro.bench.harness import run_audit_phase
from repro.common.errors import MalformedBundle
from repro.core import Auditor, simple_audit
from repro.core.auditor import malformed_verdict
from repro.core.config import AuditConfig
from repro.core.reexec import BACKENDS
from repro.fleet import FleetCoordinator, FleetWorker, local_fleet
from repro.forensics import (
    AsOfError,
    Timeline,
    UnknownRequest,
    query_asof,
    reaudit_request,
)
from repro.lang.analysis import SEVERITIES, analyze_app
from repro.io import (
    BundleReader,
    BundleWriter,
    _enc,
    save_audit_bundle_segmented,
)
from repro.net import (
    BundlePublisher,
    ProtocolError,
    RemoteBundleReader,
    TransportError,
    parse_endpoint,
)
from repro.workloads import (
    cart_workload,
    forum_workload,
    hotcrp_workload,
    wiki_workload,
)

_WORKLOADS = {
    "wiki": wiki_workload,
    "forum": forum_workload,
    "hotcrp": hotcrp_workload,
    "cart": cart_workload,
}

_LINT_APPS = {
    "miniwiki": build_miniwiki,
    "miniforum": build_miniforum,
    "minicrp": build_minicrp,
    "minicart": build_minicart,
}
#: Workload-style names accepted as aliases by ``repro lint``.
_LINT_ALIASES = {"wiki": "miniwiki", "forum": "miniforum",
                 "hotcrp": "minicrp", "cart": "minicart"}


def _build(args):
    factory = _WORKLOADS[args.workload]
    return factory(scale=args.scale, seed=args.seed)


def _serve(workload, args):
    from repro.server import Executor, RandomScheduler
    from repro.server.nondet import NondetSource

    executor = Executor(
        workload.app,
        scheduler=RandomScheduler(args.seed),
        max_concurrency=args.concurrency,
        nondet=NondetSource(seed=args.seed),
        epoch_size=args.epoch_size or 0,
    )
    return executor.serve(workload.requests)


def _endpoint(text: str, dial: bool = False) -> str:
    """argparse ``type=``: a ``HOST:PORT`` to bind (port 0 binds an
    ephemeral port) or, with ``dial``, to connect to."""
    try:
        _, port = parse_endpoint(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if dial and port < 1:
        raise argparse.ArgumentTypeError(
            f"needs a real port (1-65535), got {text!r}")
    return text


def _dial_endpoint(text: str) -> str:
    return _endpoint(text, dial=True)


def _fleet_endpoint(text: str) -> str:
    """``--fleet-listen`` accepts ``PORT`` or ``HOST:PORT``; a bare
    port listens on every interface (workers are remote hosts)."""
    return _endpoint(text if ":" in text else f"0.0.0.0:{text}")


def _positive(text: str) -> float:
    """argparse ``type=``: a number greater than zero (seconds, a
    workload scale)."""
    value = float(text)  # a ValueError is argparse's "invalid value"
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text!r}")
    return value


def _at_least(minimum):
    """argparse ``type=``: a number of ``minimum``'s type no smaller
    than it (``0.0``: seconds, where 0 means none)."""
    def count(text: str):
        value = type(minimum)(text)  # ValueError: "invalid value"
        if not value >= minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {text!r}")
        return value
    return count


def _given(args, **keywords) -> dict:
    """Constructor keywords for the flags the user gave
    (``keyword="flag_dest"``); a flag left out is left to the
    constructor's default."""
    return {keyword: getattr(args, dest)
            for keyword, dest in keywords.items()
            if getattr(args, dest) is not None}


def _config_from_args(parser, args) -> AuditConfig:
    """One validated config from defaults < ``--config`` < flags."""
    try:
        return AuditConfig.from_args(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


def _describe(config: AuditConfig, args) -> str:
    """The banner's knobs: the config's, then where epochs run."""
    workers = args.epoch_workers
    return config.describe() + (
        f" epoch_workers={workers}" if workers > 1 else "")


def _epoch_pool(workers: int, coordinator=None):
    """Where the epochs run: ``workers`` local fleet workers when that
    is more than one (joining ``coordinator``, when there is one), the
    coordinator's remote workers alone, or this process."""
    if workers > 1:
        return local_fleet(workers, coordinator)
    return coordinator or contextlib.nullcontext()


def cmd_demo(args) -> int:
    config = _config_from_args(args._parser, args)
    workload = _build(args)
    print(f"serving {len(workload.requests)} {workload.label} requests "
          f"(concurrency {args.concurrency}) ...")
    execution = _serve(workload, args)
    print(f"auditing ({_describe(config, args)}) ...")
    with _epoch_pool(args.epoch_workers) as pool:
        run = run_audit_phase(workload, execution, config=config,
                              pool=pool)
    audit = run.audit
    if not audit.accepted:
        print(f"REJECTED: {audit.reason.value}: {audit.detail}")
        return 1
    stats = audit.stats
    alpha = 1 - stats["multi_steps"] / max(1, stats["steps"])
    baseline = run.baseline_audit.phases["total"]
    print(f"ACCEPTED in {audit.phases['total'] * 1e3:.1f} ms "
          f"(simple re-execution: {baseline * 1e3:.1f}"
          f" ms, speedup "
          f"{baseline / audit.phases['total']:.2f}x)")
    print(f"groups={stats['groups']} alpha={alpha:.3f} "
          f"classes={stats['multi_classes']}/{stats['multi_slots']} "
          f"dedup={stats['dedup_hits']}/"
          f"{stats['dedup_hits'] + stats['dedup_misses']} "
          f"work_ratio={stats['work_ratio']:.3f}")
    print(f"shards={stats['shard_count']}: " + " ".join(
        f"[{s['shard']}] {s['requests']}req "
        f"{s['reexec_seconds'] * 1e3:.1f}ms"
        for s in stats["shards"]
    ))
    rows = [{"phase": k, "seconds": v}
            for k, v in figure9_decomposition(run).items()]
    print(render_table(rows, ["phase", "seconds"]))
    return 0


def cmd_record(args) -> int:
    workload = _build(args)
    print(f"serving {len(workload.requests)} {workload.label} requests ...")
    execution = _serve(workload, args)
    epochs = save_audit_bundle_segmented(
        args.out, execution.trace, execution.reports,
        execution.initial_state, execution.epoch_marks)
    print(f"wrote {args.out} ({len(execution.trace)} events, "
          f"{execution.reports.op_count_total()} logged ops, "
          f"{epochs} epoch(s))")
    return 0


def cmd_serve(args) -> int:
    """Record a workload and publish the audit stream over TCP."""
    workload = _build(args)
    # Bind before the (long) recording run: a taken or privileged port
    # fails in milliseconds with a clean error, auditors can attach
    # early, and the --out mirror is not yet truncated.
    try:
        publisher = BundlePublisher(
            args.listen, spool_epochs=args.spool_epochs,
            **_given(args, stall_timeout="net_idle_timeout"))
    except OSError as exc:
        print(f"error: cannot listen on {args.listen}: {exc}",
              file=sys.stderr)
        return 2
    writer = None
    try:
        with publisher:
            print(f"listening on {publisher.endpoint}", flush=True)
            print(f"serving {len(workload.requests)} {workload.label} "
                  f"requests (concurrency {args.concurrency}) ...")
            execution = _serve(workload, args)
            epochs = execution.epochs()
            if args.out:
                writer = BundleWriter(args.out)
                publisher.writer = writer
            print(f"publishing {len(epochs)} epoch(s) on "
                  f"{publisher.endpoint} "
                  f"({len(execution.trace)} events, "
                  f"{execution.reports.op_count_total()} logged ops)",
                  flush=True)
            publisher.write_state(execution.initial_state)
            for epoch in epochs:
                publisher.write_epoch(epoch.trace, epoch.reports)
                if args.epoch_delay:
                    time.sleep(args.epoch_delay)
            publisher.write_end()
            drained = publisher.wait_drained(timeout=args.linger)
    finally:
        if writer is not None:
            writer.close()
    if drained:
        print("stream complete (auditor drained)")
    else:
        print("stream complete (no auditor drained the stream within "
              f"--linger {args.linger}s)")
    return 0


def cmd_audit(args) -> int:
    """Audit a bundle file, a file still being written, or a socket:
    open the reader, hand it to the one epoch loop
    (:meth:`Auditor.audit_stream`), print what it says."""
    config = _config_from_args(args._parser, args)
    workload = _build(args)  # the program is the trusted input
    usage = args._parser.error
    if args.connect:
        if args.bundle:
            usage("give either a bundle file or --connect, not both")
        if args.follow:
            usage("--follow tails a bundle file; a --connect stream is "
                  "already live (its patience is --net-idle-timeout)")
        if args.baseline:
            usage("--baseline re-reads a bundle file; a --connect "
                  "stream leaves none behind")
    elif not args.bundle:
        usage("audit needs a bundle file (or --connect HOST:PORT)")
    if args.connect:
        # The verifier on its own machine, no shared filesystem.
        banner = f"auditing live stream from {args.connect}"
        reading = {}  # the reader's own: it follows for its idle_timeout
        try:
            reader = RemoteBundleReader(args.connect, **_given(
                args, connect_timeout="net_connect_timeout",
                idle_timeout="net_idle_timeout",
                reconnect="net_retries"))
        except (ValueError, OSError) as exc:  # no publisher, or not one
            print(f"error: cannot attach to publisher at "
                  f"{args.connect}: {exc}", file=sys.stderr)
            return 2
    else:
        banner = (f"{'following' if args.follow else 'auditing'} "
                  f"{args.bundle}")
        reading = {"follow": args.follow,
                   "idle_timeout": args.follow_timeout}
        try:
            # --follow waits out the startup race: the auditor may
            # launch before the recorder has flushed the header.
            reader = BundleReader.open(args.bundle, **reading)
        except OSError as exc:
            print(f"error: cannot read bundle {args.bundle}: {exc}",
                  file=sys.stderr)
            return 2
        except MalformedBundle as exc:  # not a bundle: no epoch to read
            return _print_verdict(malformed_verdict(exc), args.json)
    coordinator = None
    if args.fleet_listen:
        # Where the epochs run is the caller's to say: the session is
        # handed the coordinator as its pool.
        try:
            coordinator = FleetCoordinator(
                args.fleet_listen, width=args.epoch_workers,
                **_given(args, min_workers="fleet_min_workers",
                         task_timeout="fleet_task_timeout",
                         redundancy="fleet_redundancy",
                         heartbeat_timeout="net_idle_timeout"))
        except OSError as exc:
            reader.close()
            print(f"error: cannot listen for workers on "
                  f"{args.fleet_listen}: {exc}", file=sys.stderr)
            return 2
        banner += f" (workers join {coordinator.endpoint})"
    on_epoch = None
    if not args.json:
        print(f"{banner} against {workload.label} "
              f"({_describe(config, args)}) ...")

        def on_epoch(epoch):
            print(f"epoch {epoch.index}: "
                  f"{'ACCEPTED' if epoch.accepted else 'REJECTED'} "
                  f"({epoch.requests} requests, "
                  f"{epoch.phases.get('total', 0.0) * 1e3:.1f} ms)")

    try:
        with _epoch_pool(args.epoch_workers, coordinator) as pool, reader:
            audit = Auditor(workload.app, config).audit_stream(
                reader, pool, on_epoch, **reading)
    except (TransportError, ProtocolError) as exc:
        # A frame the *wire* mangled, not a record that does not decode.
        print(f"error: live stream failed: {exc}", file=sys.stderr)
        return 2
    base = _baseline(workload, args.bundle) if args.baseline else None
    return _print_verdict(audit, args.json, base)


def cmd_worker(args) -> int:
    """Join a fleet coordinator and execute dispatched epoch audits."""
    try:
        worker = FleetWorker(args.join, name=args.name,
                             heartbeat_interval=args.heartbeat,
                             connect_timeout=args.connect_timeout)
    except ValueError as exc:
        args._parser.error(str(exc))
    print(f"joining fleet coordinator at {args.join} as {worker.name} "
          f"...", flush=True)
    try:
        worker.run()
    except (TransportError, ProtocolError) as exc:
        print(f"error: cannot join fleet at {args.join}: {exc}",
              file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("worker interrupted", file=sys.stderr)
        return 130
    print(f"worker done: {worker.epochs_run} epoch(s) audited, "
          f"{worker.epochs_failed} failed")
    return 0


def cmd_synth(args) -> int:
    """Stream a synthetic Zipf-skewed workload into a bundle."""
    from repro.scenarios import ScenarioSpec, synthesize

    try:
        spec = ScenarioSpec(
            workload=args.workload,
            requests=args.requests,
            scale=args.scale,
            seed=args.seed,
            users=args.users,
            max_sessions=args.max_sessions,
            epoch_size=args.epoch_size or 500,
            concurrency=args.concurrency,
        )
    except ValueError as exc:
        args._parser.error(str(exc))
    checkpoint = None
    if args.resume:
        try:
            with open(args.resume) as fh:
                checkpoint = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read checkpoint {args.resume}: {exc}",
                  file=sys.stderr)
            return 2
    progress = None
    if not args.json:
        print(f"synthesizing {spec.requests} {args.workload} requests "
              f"(scale {spec.scale}, seed {spec.seed}, "
              f"{spec.users} users) into {args.out} ...")
        last = [time.monotonic()]

        def progress(p):
            now = time.monotonic()
            if now - last[0] < 2.0:
                return
            last[0] = now
            rate = p.requests / p.elapsed_seconds
            print(f"  epoch {p.epoch}: {p.requests} requests, "
                  f"{p.events} events, {rate:.0f} req/s", flush=True)

    try:
        summary = synthesize(
            spec, args.out,
            profile_path=args.profile,
            checkpoint=checkpoint,
            checkpoint_path=args.checkpoint_out,
            progress=progress,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary["bundle"] = args.out
    summary["profile"] = args.profile
    summary["checkpoint"] = args.checkpoint_out
    failed = summary["verified"] is False
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 1 if failed else 0
    print(f"wrote {summary['events']} events / {summary['epochs']} "
          f"epoch(s) in {summary['elapsed_seconds']:.1f}s "
          f"({summary['requests_per_second']:.0f} req/s)")
    if args.profile:
        print(f"profile: {summary['profile_groups']} groups -> "
              f"{args.profile}")
    if summary["verified"] is not None:
        print("self-audit:",
              "ACCEPTED" if summary["verified"] else "REJECTED")
    if args.checkpoint_out:
        print(f"checkpoint: {args.checkpoint_out}")
    return 1 if failed else 0


def cmd_fuzz(args) -> int:
    """Tamper-fuzz a recorded bundle; every mutation must be REJECTED."""
    from repro.scenarios import build_scenario_app, fuzz_bundle

    operators = None
    if args.operators:
        operators = tuple(
            name.strip() for name in args.operators.split(",")
            if name.strip()
        )
    app = build_scenario_app(args.workload, args.scale)
    progress = None
    if not args.json:
        print(f"fuzzing {args.bundle} with {args.mutations} mutations "
              f"(seed {args.seed}) against {args.workload} "
              f"scale {args.scale} ...")

        def progress(outcome):
            if not outcome.rejected:
                print(f"  mutation {outcome.index} "
                      f"({outcome.operator}): ACCEPTED "
                      "<- soundness violation", flush=True)

    try:
        report = fuzz_bundle(
            args.bundle, app,
            mutations=args.mutations,
            seed=args.seed,
            operators=operators,
            splice_with=args.splice_with,
            shrink=not args.no_shrink,
            progress=progress,
        )
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = report.to_json()
    payload["workload"] = args.workload
    payload["scale"] = args.scale
    accepted = report.accepted
    if accepted and args.reproducer_out:
        reproducer = {
            "bundle": args.bundle,
            "workload": args.workload,
            "scale": args.scale,
            "seed": args.seed,
            "mutations": [o.to_json() for o in accepted],
        }
        with open(args.reproducer_out, "w") as fh:
            json.dump(reproducer, fh, indent=2, sort_keys=True)
            fh.write("\n")
        payload["reproducer"] = args.reproducer_out
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if accepted else 0
    for name in sorted(payload["operators"]):
        stats = payload["operators"][name]
        print(f"  {name}: {stats['rejected']}/{stats['mutations']} "
              "rejected")
    channels = payload["channels"]
    print(f"channels: audit={channels['audit']} load={channels['load']} "
          f"wire={channels['wire']}")
    if accepted:
        print(f"SOUNDNESS VIOLATION: {len(accepted)} of "
              f"{report.mutations} mutations ACCEPTED")
        for outcome in accepted:
            edits = outcome.shrunk or outcome.edits
            print(f"  [{outcome.index}] {outcome.operator}: "
                  f"{len(edits)} edit(s) in minimal reproducer")
        if args.reproducer_out:
            print(f"reproducer: {args.reproducer_out}")
        return 1
    print(f"all {report.rejected}/{report.mutations} mutations REJECTED "
          f"in {report.elapsed_seconds:.1f}s")
    return 0


def cmd_lint(args) -> int:
    """Statically analyze one built-in app; print the diagnostics."""
    name = _LINT_ALIASES.get(args.app, args.app)
    app = _LINT_APPS[name]()
    reports = analyze_app(app)
    counts = {severity: 0 for severity in SEVERITIES}
    for report in reports.values():
        for severity, n in report.severity_counts().items():
            counts[severity] += n
    if args.json:
        payload = {
            "app": name,
            "scripts": {script: report.to_json()
                        for script, report in reports.items()},
            "summary": {"errors": counts["error"],
                        "warnings": counts["warning"],
                        "infos": counts["info"]},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for script in sorted(reports):
            for diag in sorted(reports[script].diagnostics,
                               key=lambda d: (d.nid, d.code)):
                print(diag.format())
        print(f"lint[{name}]: errors={counts['error']} "
              f"warnings={counts['warning']} infos={counts['info']}")
    threshold = SEVERITIES.index(args.fail_on)
    return 1 if any(counts[s] for s in SEVERITIES[threshold:]) else 0


def _load_timeline(args, workload, config) -> Timeline | None:
    """Build the forensic timeline for ``query``/``explain``; prints
    the error and returns ``None`` when the bundle cannot be primed."""
    try:
        return Timeline.from_bundle(args.bundle, workload.app,
                                    config=config)
    except (OSError, MalformedBundle) as exc:
        print(f"error: cannot load bundle {args.bundle}: {exc}",
              file=sys.stderr)
        return None


def _producer_json(producer) -> dict:
    return {
        "epoch": producer.epoch,
        "request": producer.rid,
        "object": producer.obj,
        "detail": producer.detail,
        "initial": producer.is_initial,
    }


def _producer_text(producer) -> str:
    if producer.is_initial:
        where = "initial state (pre-trace)"
    else:
        where = f"{producer.rid} (epoch {producer.epoch})"
    detail = f" [{producer.detail}]" if producer.detail else ""
    return f"{where}{detail}"


def cmd_query(args) -> int:
    """Reconstruct one value at an as-of point from a recorded bundle."""
    config = _config_from_args(args._parser, args)
    workload = _build(args)
    timeline = _load_timeline(args, workload, config)
    if timeline is None:
        return 2
    try:
        result = query_asof(timeline, args.as_of, args.target)
    except (UnknownRequest, AsOfError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.json:
        payload = {
            "kind": result.kind,
            "target": result.target,
            "as_of": {"epoch": result.point.epoch,
                      "request": result.point.rid},
            "rows": result.rows,
            "value": _enc(result.value),
            "producers": [_producer_json(p) for p in result.producers],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{result.target} as of {result.point.describe()}:")
    if result.kind == "sql":
        if not result.rows:
            print("  (no rows)")
        for row in result.rows or ():
            print("  row: " + ", ".join(f"{k}={v!r}"
                                        for k, v in row.items()))
    else:
        print(f"  value: {result.value!r}")
    for producer in result.producers:
        print(f"  produced by: {_producer_text(producer)}")
    return 0


def cmd_explain(args) -> int:
    """Scoped single-request re-audit of a recorded bundle."""
    config = _config_from_args(args._parser, args)
    workload = _build(args)
    timeline = _load_timeline(args, workload, config)
    if timeline is None:
        return 2
    try:
        result = reaudit_request(timeline, args.request_id,
                                 backend=config.backend)
    except UnknownRequest as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    entry = timeline.entry(args.request_id)
    lineage = result.lineage
    body_matches = None
    if not entry.aborted and result.accepted:
        body_matches = result.body == result.expected_body
    if args.json:
        payload = {
            "request": result.rid,
            "epoch": result.epoch,
            "groups": list(entry.groups),
            "chunk": entry.chunk,
            "verdict": "ACCEPTED" if result.accepted else "REJECTED",
            "accepted": result.accepted,
            "reason": result.reason.value if result.reason else None,
            "detail": result.detail or "",
            "aborted": entry.aborted,
            "body_matches": body_matches,
            "lineage": {
                "requests": [list(node) for node in lineage.requests],
                "edges": len(lineage.edges),
                "initial_reads": lineage.initial_reads,
            },
            "replayed": {"requests": len(result.replayed),
                         "chunks": result.chunks_replayed},
            "stats": result.stats,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if result.accepted else 1
    groups = ", ".join(entry.groups) or "(none)"
    print(f"request {result.rid}: epoch {result.epoch}, "
          f"group {groups}, chunk {entry.chunk}, "
          f"{entry.op_count} claimed op(s)")
    print(f"lineage closure: {len(lineage.requests)} request(s), "
          f"{len(lineage.edges)} edge(s), "
          f"{lineage.initial_reads} initial-state read(s)")
    print(f"replayed {len(result.replayed)} request(s) in "
          f"{result.chunks_replayed} chunk(s), "
          f"{result.stats['steps']} step(s)")
    if result.accepted:
        suffix = ("aborted request, no body to compare"
                  if entry.aborted
                  else "regenerated body matches the trace")
        print(f"ACCEPTED: request {result.rid} scoped re-audit "
              f"({suffix})")
        return 0
    print(f"REJECTED: {result.reason.value}"
          + (f": {result.detail}" if result.detail else ""))
    return 1


def _audit_summary(audit) -> dict:
    """The machine-readable verdict payload of ``audit --json``.

    Stable schema: ``verdict``/``accepted``/``reason``/``detail``,
    per-phase seconds, the summed counter stats, the per-epoch
    summaries (``epochs``), and the first rejecting epoch's index
    (``rejecting_epoch``, ``null`` on an accepted audit).  A
    ``malformed_bundle`` verdict lists the epochs that settled before
    the record that does not decode; its ``rejecting_epoch`` is their
    count — the epoch that record belongs to.  (``AuditResult.to_json``
    without ``produced`` and ``group_alphas``.)
    """
    payload = audit.to_json()
    del payload["produced"]
    payload["stats"].pop("group_alphas", None)
    return payload


def _print_verdict(audit, as_json: bool, base: dict | None = None) -> int:
    """The verdict of ``repro audit`` (and ``--baseline``'s, after it);
    returns the exit code: 1 on REJECTED."""
    if as_json:
        payload = _audit_summary(audit)
        if base is not None:
            payload["baseline"] = base
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if audit.accepted else 1
    if audit.accepted:
        print(f"ACCEPTED in {audit.phases['total'] * 1e3:.1f} ms "
              f"across {audit.stats['shard_count']} epoch(s), "
              f"work ratio {audit.stats['work_ratio']:.3f}")
    else:
        print(f"REJECTED: {audit.reason.value}"
              + (f": {audit.detail}" if audit.detail else ""))
    if base is not None:
        print(f"simple re-execution baseline: "
              f"{'ACCEPTED' if base['accepted'] else 'REJECTED'} in "
              f"{base['seconds'] * 1e3:.1f} ms")
    return 0 if audit.accepted else 1


def _baseline(workload, path: str) -> dict:
    """``--baseline``: re-read the whole file and re-execute every
    request on its own, in arrival order."""
    try:
        with BundleReader.open(path) as reader:
            trace, reports, initial, _ = reader.read_all()
    except MalformedBundle:
        # A record that does not decode: the audit said so, or stopped
        # short of it at a REJECTED epoch and the baseline read on.
        return {"accepted": False, "seconds": 0.0}
    base = simple_audit(workload.app, trace, reports, initial)
    return {"accepted": base.accepted, "seconds": base.phases["total"]}


def audit_knobs(p) -> None:
    """Register the :class:`AuditConfig` knob flags (and ``--config``,
    the file they layer over) on a subcommand parser."""
    # Every knob defaults to None so AuditConfig.from_args can tell
    # "not given" from "given the default" (--config layering).
    p.add_argument("--strict", dest="strict", action="store_true",
                   default=None,
                   help="reject on in-group control-flow divergence "
                        "(default)")
    p.add_argument("--no-strict", dest="strict", action="store_false",
                   help="demote diverged groups to per-request "
                        "re-execution instead of rejecting")
    p.add_argument("--no-dedup", action="store_true", default=None,
                   help="disable read-query deduplication")
    p.add_argument("--no-collapse", action="store_true", default=None,
                   help="disable multivalue collapse")
    p.add_argument("--strict-registers", action="store_true",
                   default=None,
                   help="reject register reads with no logged write")
    p.add_argument("--max-group-size", type=_at_least(1), default=None,
                   help="chunk re-execution groups beyond this size")
    p.add_argument("--backend", choices=sorted(BACKENDS),
                   default=None,
                   help="re-execution backend: hybrid (the compiled "
                        "engine, default) or interp (the oracle); "
                        "accinterp / compinterp are aliases of hybrid "
                        "(compinterp: one request per chunk)")
    p.add_argument("--config", default=None, metavar="AUDIT.JSON",
                   help="audit config file (flags override its "
                        "fields; see AuditConfig.to_json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SSCO/OROCHI reproduction: serve and audit web "
                    "application workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workload", choices=sorted(_WORKLOADS),
                       default="wiki")
        p.add_argument("--scale", type=_positive, default=0.02,
                       help="workload scale (1.0 = the paper's full size)")
        p.add_argument("--seed", type=int, default=1)

    def recording(p):
        common(p)
        p.add_argument("--concurrency", type=_at_least(1), default=8,
                       help="server's max in-flight requests")
        p.add_argument("--epoch-size", type=_at_least(0), default=None,
                       help="drain every N requests and record an epoch "
                            "mark: the epochs the bundle is audited in "
                            "(default: synth 500, the others one epoch)")

    def epoch_workers(p):
        # Where an audit's epochs run, not what it is computed under:
        # not an audit knob, so `query` / `explain` refuse it.
        p.add_argument("--epoch-workers", type=_at_least(1), default=1,
                       metavar="N",
                       help="audit epochs concurrently on N local `repro "
                            "worker` processes after a redo-only state "
                            "precompute (1 = the serial epoch chain; "
                            "with --fleet-listen they join the "
                            "coordinator beside remote workers)")

    demo = sub.add_parser("demo", help="serve + audit, print stats")
    recording(demo)
    audit_knobs(demo)
    epoch_workers(demo)
    demo.set_defaults(func=cmd_demo)

    record = sub.add_parser("record", help="serve and save a bundle")
    recording(record)
    record.add_argument("--out", default="audit_bundle.jsonl",
                        help="segmented JSONL bundle to write")
    record.set_defaults(func=cmd_record)

    serve = sub.add_parser(
        "serve",
        help="serve a workload and publish the live audit stream "
             "over TCP (audit it with: audit --connect HOST:PORT)",
    )
    recording(serve)
    serve.add_argument("--listen", type=_endpoint, required=True,
                       metavar="HOST:PORT",
                       help="publish the framed audit stream here "
                            "(port 0 binds an ephemeral port; the bound "
                            "address is printed)")
    serve.add_argument("--out", default=None, metavar="BUNDLE.JSONL",
                       help="also mirror the stream to a segmented "
                            "JSONL bundle file")
    serve.add_argument("--epoch-delay", type=_at_least(0.0), default=0.0,
                       metavar="SECONDS",
                       help="pause between published epochs (stands in "
                            "for a live recorder mid-stream)")
    serve.add_argument("--linger", type=_at_least(0.0), default=30.0,
                       metavar="SECONDS",
                       help="after the end record, wait this long for "
                            "an auditor to drain the stream")
    serve.add_argument("--net-idle-timeout", type=_positive, default=None,
                       metavar="SECONDS",
                       help="drop a subscriber that lags this long "
                            "(it can reconnect and resume; default 30s)")
    serve.add_argument("--spool-epochs", type=_at_least(1), default=None,
                       metavar="N",
                       help="keep only the newest N sealed epochs for "
                            "late-connect/resume replay (bounds "
                            "publisher memory; default: keep all)")
    serve.set_defaults(func=cmd_serve)

    audit = sub.add_parser("audit", help="audit a saved bundle or a "
                                         "live stream")
    common(audit)
    audit_knobs(audit)
    epoch_workers(audit)
    audit.add_argument("bundle", nargs="?", default=None)
    audit.add_argument("--baseline", action="store_true",
                       help="also re-read the file and run the simple "
                            "re-execution baseline")
    audit.add_argument("--json", action="store_true",
                       help="emit a machine-readable verdict summary "
                            "(verdict, per-epoch stats, rejecting "
                            "epoch) instead of text")
    audit.add_argument("--follow", action="store_true",
                       help="the bundle file is still being written: "
                            "wait for more epochs until its end record")
    audit.add_argument("--follow-timeout", type=_positive, default=3.0,
                       metavar="SECONDS",
                       help="--follow: give up after this long without "
                            "new data (default 3s)")
    audit.add_argument("--connect", type=_dial_endpoint, default=None,
                       metavar="HOST:PORT",
                       help="audit the live stream of a `repro serve` "
                            "publisher instead of a bundle file")
    audit.add_argument("--net-connect-timeout", type=_positive,
                       default=None, metavar="SECONDS",
                       help="--connect: bound on connect + handshake "
                            "(refused connections are retried until it "
                            "expires; default 5s)")
    audit.add_argument("--net-idle-timeout", type=_positive, default=None,
                       metavar="SECONDS",
                       help="--connect: give up after this long without "
                            "a frame; --fleet-listen: drop a worker "
                            "silent this long (default 30s)")
    audit.add_argument("--net-retries", type=_at_least(0), default=None,
                       metavar="N",
                       help="--connect: resume attempts after a "
                            "mid-stream disconnect (default 3)")
    audit.add_argument("--fleet-listen", type=_fleet_endpoint,
                       default=None, metavar="[HOST:]PORT",
                       help="listen for `repro worker` daemons and fan "
                            "epoch audits out to them (bare port = all "
                            "interfaces; composes with --connect)")
    audit.add_argument("--fleet-min-workers", type=_at_least(0),
                       default=None, metavar="N",
                       help="wait for N registered workers before "
                            "dispatching the first epoch (default 0)")
    audit.add_argument("--fleet-task-timeout", type=_positive,
                       default=None, metavar="SECONDS",
                       help="per-epoch straggler deadline on a worker; "
                            "past it the epoch is re-dispatched")
    audit.add_argument("--fleet-redundancy", type=_at_least(1),
                       default=None, metavar="K",
                       help="dispatch each epoch to K workers and "
                            "cross-check their verdicts (default 1)")
    audit.set_defaults(func=cmd_audit)

    lint = sub.add_parser(
        "lint",
        help="statically analyze a built-in app's weblang scripts "
             "(effect inference, state-key footprints, audit-soundness "
             "lint; see docs/analysis.md)",
    )
    lint.add_argument("app",
                      choices=sorted(_LINT_APPS) + sorted(_LINT_ALIASES),
                      help="application to lint (workload names are "
                           "accepted as aliases)")
    lint.add_argument("--json", action="store_true",
                      help="emit the full machine-readable report "
                           "(effects, footprints, diagnostics) instead "
                           "of text diagnostics")
    lint.add_argument("--fail-on", dest="fail_on", choices=SEVERITIES,
                      default="error",
                      help="exit nonzero when any diagnostic of this "
                           "severity (or worse) is found (default: "
                           "error)")
    lint.set_defaults(func=cmd_lint)

    synth = sub.add_parser(
        "synth",
        help="stream a synthetic Zipf-skewed workload (millions of "
             "simulated users) into a segmented bundle, with optional "
             "self-audit profile and checkpoint/resume (see "
             "docs/scenarios.md)",
    )
    recording(synth)
    synth.add_argument("--requests", type=_at_least(1), default=10_000,
                       help="requests to synthesize this run "
                            "(default 10000; resume adds on top)")
    synth.add_argument("--users", type=_at_least(1), default=1_000_000,
                       help="simulated user population sampled with a "
                            "Zipf-like skew (default 1e6)")
    synth.add_argument("--max-sessions", type=_at_least(1), default=64,
                       dest="max_sessions", metavar="N",
                       help="bound on concurrently active sessions "
                            "(the generator's working set; default 64)")
    synth.add_argument("--out", default="synth_bundle.jsonl",
                       metavar="BUNDLE.JSONL",
                       help="segmented JSONL bundle to write")
    synth.add_argument("--profile", default=None, metavar="PROFILE.JSON",
                       help="self-audit each epoch while generating and "
                            "write the per-group (n, alpha, ell) "
                            "profile here")
    synth.add_argument("--resume", default=None, metavar="CKPT.JSON",
                       help="resume from a checkpoint written by a "
                            "previous run's --checkpoint-out")
    synth.add_argument("--checkpoint-out", dest="checkpoint_out",
                       default=None, metavar="CKPT.JSON",
                       help="write this run's final checkpoint for a "
                            "later --resume")
    synth.add_argument("--json", action="store_true",
                       help="emit the generation summary as JSON")
    synth.set_defaults(func=cmd_synth)

    fuzz = sub.add_parser(
        "fuzz",
        help="tamper-fuzz a recorded bundle: randomized mutations "
             "(drop/flip/reorder/splice/truncate/wire-corrupt) that "
             "the stock audit must REJECT; accepted mutations are "
             "shrunk to a minimal reproducer (see docs/scenarios.md)",
    )
    fuzz.add_argument("bundle", help="recorded bundle to attack")
    fuzz.add_argument("--workload", choices=sorted(_WORKLOADS),
                      default="cart",
                      help="the app the bundle was recorded against "
                           "(default: cart)")
    fuzz.add_argument("--scale", type=_positive, default=0.05,
                      help="the scale the bundle was recorded at "
                           "(default 0.05, the committed fixture's)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed; every mutation derives from "
                           "(seed, index) and replays exactly")
    fuzz.add_argument("--mutations", type=_at_least(1), default=100,
                      help="number of randomized mutations (default "
                           "100)")
    fuzz.add_argument("--operators", default=None, metavar="A,B,...",
                      help="restrict to these tamper operators "
                           "(comma-separated; default: all)")
    fuzz.add_argument("--splice-with", dest="splice_with", default=None,
                      metavar="BUNDLE.JSONL",
                      help="donor bundle for cross-bundle epoch "
                           "splices (default: swap epochs in place)")
    fuzz.add_argument("--no-shrink", dest="no_shrink",
                      action="store_true",
                      help="skip ddmin shrinking of accepted mutations")
    fuzz.add_argument("--reproducer-out", dest="reproducer_out",
                      default="fuzz_reproducer.json",
                      metavar="REPRO.JSON",
                      help="where to write the minimal reproducer if "
                           "any mutation is accepted")
    fuzz.add_argument("--json", action="store_true",
                      help="emit the campaign report as JSON")
    fuzz.set_defaults(func=cmd_fuzz)

    query = sub.add_parser(
        "query",
        help="reconstruct a SQL result, KV key, or register from a "
             "recorded bundle at any epoch or request point "
             "(time-travel forensics; see docs/forensics.md)",
    )
    common(query)
    audit_knobs(query)
    query.add_argument("bundle", help="recorded audit bundle")
    query.add_argument("target",
                       help="a SELECT statement, `kv:<key>` (or a bare "
                            "KV key), or `reg:<name>`")
    query.add_argument("--as-of", dest="as_of", required=True,
                       metavar="EPOCH|REQUEST",
                       help="epoch index (state at the end of that "
                            "epoch) or request id (state as of its "
                            "observed response)")
    query.add_argument("--json", action="store_true",
                       help="emit the reconstruction as JSON")
    query.set_defaults(func=cmd_query)

    explain = sub.add_parser(
        "explain",
        help="scoped single-request re-audit: replay one request's "
             "control-flow chunk plus its read-lineage closure and "
             "print ACCEPT/REJECT with the regenerated body",
    )
    common(explain)
    audit_knobs(explain)
    explain.add_argument("bundle", help="recorded audit bundle")
    explain.add_argument("request_id", help="the request to re-audit")
    explain.add_argument("--json", action="store_true",
                         help="emit the scoped verdict as JSON")
    explain.set_defaults(func=cmd_explain)

    worker = sub.add_parser(
        "worker",
        help="join a fleet coordinator (audit --fleet-listen) and "
             "execute dispatched epoch audits",
    )
    worker.add_argument("--join", required=True, metavar="HOST:PORT",
                        help="the coordinator's fleet endpoint")
    worker.add_argument("--name", default=None,
                        help="worker name shown to the coordinator "
                             "(default: hostname-pid)")
    worker.add_argument("--heartbeat", type=_positive, default=2.0,
                        metavar="SECONDS",
                        help="heartbeat interval while an epoch runs "
                             "(default 2s)")
    worker.add_argument("--connect-timeout", type=_positive, default=30.0,
                        dest="connect_timeout", metavar="SECONDS",
                        help="bound on joining; refused connections are "
                             "retried until it expires (workers may "
                             "start before the coordinator binds)")
    worker.set_defaults(func=cmd_worker)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._parser = parser
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
