"""Dynamic-vs-static soundness of the weblang purity pass.

The pass's contract is an *over*-approximation at the granularity the
compiler uses: a program with a top-level statement the pass calls pure
runs it as plain Python, and a user function it calls pure is a plain
call.  So every intent a run yields (state op, nondet, external) must
come from an impure program, inside user functions that are all impure.
Three harnesses enforce it:

* **bundled-app op logs** — the three paper applications are served
  with the real executor; every logged operation and nondet record
  belongs to a script the pass calls impure;
* **bundled-app intent streams** — the same apps driven through the
  plain interpreter with canned intent results, which also reaches
  external calls and error paths;
* **randomized programs** — ≥200 fuzz programs (the backend-fuzz
  generator after session/external ops and calls of helper functions),
  driven the same way.

The intent-stream harnesses note the user functions active at each
intent and check each one's purity.
"""

from __future__ import annotations

import random

from repro.common.errors import SqlError, WeblangError
from repro.lang.analysis import Purity
from repro.lang.interp import Interpreter, StateOpIntent
from repro.lang.parser import parse_program
from repro.lang.values import PhpArray, freeze_value
from repro.server import Executor, RandomScheduler
from repro.server.nondet import NondetSource
from repro.sql.engine import StmtResult, _item_name
from repro.sql.parser import parse_sql
from repro.trace.events import Request
from repro.workloads import forum_workload, hotcrp_workload, wiki_workload

from tests.lang.driver import Canned, drive
from tests.lang.test_fuzz_backends import ProgramGen, canned_results

FUZZ_CASES = 200


def _program_pure(program) -> bool:
    facts = Purity(program)
    return all(map(facts.pure, program.body))


class _Watched(Interpreter):
    """The plain interpreter, keeping the user functions it is inside."""

    def __init__(self):
        super().__init__()
        self.active: list[str] = []

    def _call_user(self, func, args, env, state):
        self.active.append(func.name)
        try:
            return (yield from super()._call_user(func, args, env, state))
        finally:
            self.active.pop()


def _noting(run, active: list, seen: list):
    """``run``, noting the functions ``active`` at each intent it
    yields."""
    try:
        intent = next(run)
        while True:
            seen.append((intent, tuple(active)))
            intent = run.send((yield intent))
    except StopIteration as stop:
        return stop.value


#: A register read's reply where the canned one is truthy: an array
#: with every field the three apps keep in a session.
_SESSION = freeze_value(PhpArray.from_dict({
    "name": "alice", "edits": 2, "since": 7, "email": "alice@example.org",
    "role": "reviewer"}))


class _Selecting(Canned):
    """Canned replies, but a SELECT is answered as a database answers
    it, with rows: none where the canned reply is falsy, else one row
    holding it (1 where it is not a scalar) in every column the query
    names (``id`` where it names none it can parse).  A register read
    is answered with no session where the canned reply is falsy, else
    with :data:`_SESSION`."""

    def reply(self, intent):
        got = super().reply(intent)
        if type(intent) is StateOpIntent and intent.kind == "register_read":
            return _SESSION if got else None
        if type(intent) is not StateOpIntent or intent.kind != "db_statement" \
                or not intent.args[0][0].lstrip().upper().startswith("SELECT"):
            return got
        if not got:
            return StmtResult(rows=[])
        try:  # canned values reach the text: it may not parse
            items = parse_sql(intent.args[0][0]).items
        except SqlError:
            items = ()
        value = got if type(got) in (int, float, str) else 1
        names = [item.alias or _item_name(item, index)
                 for index, item in enumerate(items)] or ["id"]
        return StmtResult(rows=[dict.fromkeys(names, value)])


def _observe_and_check(program, request, canned, nondets, failures: list,
                       label: str, slot=Canned) -> Exception | None:
    """Drive ``program`` through the interpreter with canned intent
    results (``slot`` answers them) and check every yielded intent
    against the pass; the :class:`WeblangError` that ended the drive, if
    one did.  Such an error is fine — the intents yielded up to that
    point are still a real execution prefix."""
    facts = Purity(program)
    pure = all(map(facts.pure, program.body))
    engine, seen = _Watched(), []
    _, _, error = drive(
        _noting(engine.run(program, request), engine.active, seen),
        [slot(canned, nondets, rest=3)])
    for intent, active in seen:
        kind = type(intent).__name__
        if pure:
            failures.append((label, "intent from a pure program", kind))
        for name in active:
            if facts.function_pure(name):
                failures.append((label, "intent inside pure function",
                                 name, kind))
    return error


# -- the three bundled applications ------------------------------------------


def _check_recorded_execution(workload, execution, failures: list) -> None:
    app = workload.app
    pure = {name: _program_pure(app.script(name)) for name in app.scripts}
    script_of = {req.rid: req.script for req in workload.requests}
    for log in execution.reports.op_logs.values():
        for record in log:
            script = script_of[record.rid]
            if pure[script]:
                failures.append((f"{workload.label}:{script}",
                                 "operation from a pure script",
                                 record.optype))
    for rid, records in execution.reports.nondet.items():
        if records and pure[script_of[rid]]:
            failures.append((script_of[rid], "nondet from a pure script"))


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
        assert execution.reports.op_logs
        _check_recorded_execution(workload, execution, failures)
    assert not failures, failures[:5]


def test_bundled_apps_intent_streams_are_contained():
    """Same apps, canned-intent drive: also covers external intents and
    error paths the recorded run does not reach.  A SELECT gets rows, a
    register read a session and an array read its frozen form, as a
    store gives them, so every drive goes on past its first query and
    its account check, to the end of its script."""
    failures: list = []
    ended: list = []
    for factory in (wiki_workload, forum_workload, hotcrp_workload):
        workload = factory(scale=0.01, seed=7)
        rng = random.Random(7)
        for req in workload.requests[:40]:
            ended.append(_observe_and_check(
                workload.app.script(req.script), req,
                canned_results(rng),
                [rng.randrange(100) for _ in range(32)],
                failures, f"{workload.label}:{req.script}", _Selecting,
            ))
    assert not failures, failures[:5]
    assert not [error for error in ended
                if "expects a SELECT" in str(error)
                or "indexing a non-array value" in str(error)]
    assert sum(error is None for error in ended) == 120  # every drive


# -- randomized programs ------------------------------------------------------

#: Functions the extra statements call: one that yields an intent, one
#: that does through it, and a pure one.
_FUNCTIONS = ("function sink($x) { kv_set('sink', $x); return $x; } "
              "function relay($x) { return plain(sink($x)); } "
              "function plain($x) { return $x . '!'; }")

_EXTRA_STMTS = (
    "session_put($a);",
    "$b = session_get();",
    "send_email('x@example.org', 'subject', $a);",
    "$c = external_call('svc', $b);",
    "if ($c) { kv_set('ext', $c); }",
    "$a = sink($a);",
    "echo relay($b), plain($c);",
)


def _fuzz_source(rng: random.Random) -> str:
    """A backend-fuzz program after session/external ops and calls of
    :data:`_FUNCTIONS`, so every intent kind is exercised, in and out of
    functions, before the program can fail."""
    src = ProgramGen(rng).program()
    extras = [rng.choice(_EXTRA_STMTS)
              for _ in range(rng.randrange(0, 4))]
    return " ".join([_FUNCTIONS, *extras, src])


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
        analyzed += 1
        request = Request(
            f"r{seed}", "fuzz.php",
            get={"q": str(rng.randrange(10)), "n": "5"},
            cookies={"sess": "s1"},
        )
        _observe_and_check(program, request,
                           canned_results(rng),
                           [rng.randrange(100) for _ in range(32)],
                           failures, f"seed{seed}")
    assert analyzed >= FUZZ_CASES * 0.9
    assert not failures, failures[:5]
