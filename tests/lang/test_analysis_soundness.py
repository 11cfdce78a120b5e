"""Dynamic-vs-static soundness of the weblang analyzer.

The analyzer's contract is an *over*-approximation: every intent a
program actually yields (state op, nondet, external) and every state key
it actually touches must fall inside the static :class:`EffectReport`.
Two harnesses enforce it:

* **bundled apps** — the three paper applications are served with the
  real executor; every logged operation (op logs, nondet records) is
  checked against the script's static report;
* **randomized programs** — ≥200 fuzz programs (the backend-fuzz
  generator plus session/external augmentation) are driven through the
  plain interpreter with canned intent results, and every yielded
  intent is checked for containment.
"""

from __future__ import annotations

import random

from repro.common.errors import SqlError, WeblangError
from repro.lang.analysis import (
    EffectReport,
    analysis_for,
    analyze_app,
    sql_key_footprint,
)
from repro.lang.interp import (
    ExternalIntent,
    Interpreter,
    NondetIntent,
    StateOpIntent,
)
from repro.lang.parser import parse_program
from repro.objects.base import OpType
from repro.server import Executor, RandomScheduler
from repro.server.nondet import NondetSource
from repro.trace.events import Request
from repro.workloads import forum_workload, hotcrp_workload, wiki_workload

from tests.lang.driver import Canned, drive
from tests.lang.test_fuzz_backends import ProgramGen, canned_results

FUZZ_CASES = 200

#: State-op kinds -> (reads?, writes?) for effect containment.
_KIND_EFFECTS = {
    "kv_get": (True, False),
    "kv_set": (False, True),
    "register_read": (True, False),
    "register_write": (False, True),
    "db_begin": (False, True),
    "db_commit": (False, True),
    "db_rollback": (False, True),
}


def _check_state_intent(report: EffectReport, intent: StateOpIntent,
                        failures: list, label: str) -> None:
    fp = report.footprint
    obj, args = intent.objs[0], intent.args[0]
    if intent.kind == "db_statement":
        sql = args[0]
        try:
            reads, writes = sql_key_footprint(sql)
        except SqlError:
            # The program built unparseable SQL at run time; the static
            # side must have widened that call site to top already.
            reads = writes = ()
            keyset = fp.reads.get(obj)
            if keyset is None or not keyset.top:
                failures.append((label, "unparseable-sql-not-top", sql))
        if reads and "state-read" not in report.effects:
            failures.append((label, "missing state-read effect", sql))
        if writes and "state-write" not in report.effects:
            failures.append((label, "missing state-write effect", sql))
        for table in reads:
            if not fp.covers_read(obj, table):
                failures.append((label, "read table escapes", table, sql))
        for table in writes:
            if not fp.covers_write(obj, table):
                failures.append((label, "write table escapes", table, sql))
        return
    is_read, is_write = _KIND_EFFECTS[intent.kind]
    if is_read and "state-read" not in report.effects:
        failures.append((label, "missing state-read effect", intent.kind))
    if is_write and "state-write" not in report.effects:
        failures.append((label, "missing state-write effect", intent.kind))
    if intent.kind in ("kv_get", "kv_set"):
        key = args[0]
        covered = (fp.covers_read(obj, key) if is_read
                   else fp.covers_write(obj, key))
        if not covered:
            failures.append((label, "kv key escapes", intent.kind, key))
    elif intent.kind in ("register_read", "register_write"):
        covered = (fp.covers_read(obj, obj) if is_read
                   else fp.covers_write(obj, obj))
        if not covered:
            failures.append((label, "register escapes", obj))


def _observe_and_check(report: EffectReport, program, request,
                       canned, nondets, failures: list,
                       label: str) -> None:
    """Drive ``program`` through the interpreter with canned intent
    results and check every yielded intent against ``report``.  A
    runtime :class:`WeblangError` is fine — the intents yielded up to
    that point are still a real execution prefix."""
    _, intents, _ = drive(Interpreter().run(program, request),
                          [Canned(canned, nondets, rest=3)])
    for intent in intents:
        if isinstance(intent, NondetIntent):
            if "nondet" not in report.effects:
                failures.append((label, "missing nondet effect",
                                 intent.func))
        elif isinstance(intent, ExternalIntent):
            if "external" not in report.effects:
                failures.append((label, "missing external effect",
                                 intent.services[0]))
        elif isinstance(intent, StateOpIntent):
            _check_state_intent(report, intent, failures, label)


# -- the three bundled applications ------------------------------------------


def _check_recorded_execution(workload, execution, failures: list) -> None:
    reports = analyze_app(workload.app)
    script_of = {req.rid: req.script for req in workload.requests}
    for obj, log in execution.reports.op_logs.items():
        for record in log:
            report = reports[script_of[record.rid]]
            label = f"{workload.label}:{script_of[record.rid]}"
            fp = report.footprint
            if record.optype is OpType.KV_GET:
                if not fp.covers_read(obj, record.opcontents[0]):
                    failures.append((label, "kv read escapes",
                                     record.opcontents[0]))
            elif record.optype is OpType.KV_SET:
                if not fp.covers_write(obj, record.opcontents[0]):
                    failures.append((label, "kv write escapes",
                                     record.opcontents[0]))
            elif record.optype is OpType.REGISTER_READ:
                if not fp.covers_read(obj, obj):
                    failures.append((label, "register read escapes", obj))
            elif record.optype is OpType.REGISTER_WRITE:
                if not fp.covers_write(obj, obj):
                    failures.append((label, "register write escapes", obj))
            elif record.optype is OpType.DB_OP:
                queries, _succeeded = record.opcontents
                for sql in queries:
                    reads, writes = sql_key_footprint(sql)
                    for table in reads:
                        if not fp.covers_read(obj, table):
                            failures.append((label, "db read escapes",
                                             table, sql))
                    for table in writes:
                        if not fp.covers_write(obj, table):
                            failures.append((label, "db write escapes",
                                             table, sql))
    for rid, records in execution.reports.nondet.items():
        if records and "nondet" not in reports[script_of[rid]].effects:
            failures.append((script_of[rid], "missing nondet effect"))


def test_bundled_apps_recorded_ops_are_contained():
    failures: list = []
    for factory in (wiki_workload, forum_workload, hotcrp_workload):
        workload = factory(scale=0.02, seed=3)
        executor = Executor(
            workload.app,
            scheduler=RandomScheduler(3),
            max_concurrency=4,
            nondet=NondetSource(seed=3),
        )
        execution = executor.serve(workload.requests)
        _check_recorded_execution(workload, execution, failures)
    assert not failures, failures[:5]


def test_bundled_apps_intent_streams_are_contained():
    """Same apps, canned-intent drive: also covers external intents and
    error paths the recorded run does not reach."""
    failures: list = []
    for factory in (wiki_workload, forum_workload, hotcrp_workload):
        workload = factory(scale=0.01, seed=7)
        reports = analyze_app(workload.app)
        rng = random.Random(7)
        for req in workload.requests[:40]:
            program = workload.app.script(req.script)
            _observe_and_check(
                reports[req.script], program, req,
                canned_results(rng),
                [rng.randrange(100) for _ in range(32)],
                failures, f"{workload.label}:{req.script}",
            )
    assert not failures, failures[:5]


# -- randomized programs ------------------------------------------------------

_EXTRA_STMTS = (
    "session_put($a);",
    "$b = session_get();",
    "send_email('x@example.org', 'subject', $a);",
    "$c = external_call('svc', $b);",
    "if ($c) { kv_set('ext', $c); }",
)


def _fuzz_source(rng: random.Random) -> str:
    """A backend-fuzz program augmented with session/external ops so the
    whole effect lattice is exercised."""
    src = ProgramGen(rng).program()
    extras = [rng.choice(_EXTRA_STMTS)
              for _ in range(rng.randrange(0, 4))]
    return src + " " + " ".join(extras)


def test_fuzz_intent_streams_are_contained():
    failures: list = []
    analyzed = 0
    for seed in range(FUZZ_CASES):
        rng = random.Random(9000 + seed)
        src = _fuzz_source(rng)
        try:
            program = parse_program(src)
        except WeblangError:
            continue
        report = analysis_for(program)
        analyzed += 1
        request = Request(
            f"r{seed}", "fuzz.php",
            get={"q": str(rng.randrange(10)), "n": "5"},
            cookies={"sess": "s1"},
        )
        _observe_and_check(report, program, request,
                           canned_results(rng),
                           [rng.randrange(100) for _ in range(32)],
                           failures, f"seed{seed}")
    assert analyzed >= FUZZ_CASES * 0.9
    assert not failures, failures[:5]
