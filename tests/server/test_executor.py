"""The online executor: trace shape, report recording, concurrency."""

from __future__ import annotations

import pytest

import repro.server.executor as executor_module
from repro.common.errors import RejectReason
from repro.core import AuditConfig, Auditor
from repro.io import BundleReader, save_audit_bundle_segmented
from repro.lang.interp import Interpreter
from repro.objects.base import OpType
from repro.server import (
    Application,
    Executor,
    FifoScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
)
from repro.server.executor import ERROR_BODY
from repro.server.nondet import NondetSource
from repro.trace.events import Request
from repro.trace.trace import check_balanced
from tests.conftest import COUNTER_SCHEMA, COUNTER_SRC, counter_requests


def _app():
    return Application.from_sources(
        "counter", COUNTER_SRC, db_setup=COUNTER_SCHEMA
    )


def test_trace_is_balanced(honest_run):
    check_balanced(honest_run.trace)


def test_all_requests_answered(honest_run):
    assert len(honest_run.trace.request_ids()) == 24
    assert len(honest_run.trace.responses()) == 24


def test_op_counts_match_logs(honest_run):
    """M(rid) equals the number of log entries for rid across all logs."""
    from collections import Counter

    per_rid = Counter()
    for log in honest_run.reports.op_logs.values():
        for record in log:
            per_rid[record.rid] += 1
    for rid, count in honest_run.reports.op_counts.items():
        assert per_rid.get(rid, 0) == count


def test_opnums_sequential_per_request(honest_run):
    from collections import defaultdict

    opnums = defaultdict(list)
    for log in honest_run.reports.op_logs.values():
        for record in log:
            opnums[record.rid].append(record.opnum)
    for nums in opnums.values():
        assert sorted(nums) == list(range(1, len(nums) + 1))


def test_groups_cover_all_requests(honest_run):
    grouped = {
        rid for rids in honest_run.reports.groups.values() for rid in rids
    }
    assert grouped == set(honest_run.trace.request_ids())


def test_same_control_flow_same_group():
    app = _app()
    requests = [
        # "warm" takes the cache-miss branch (different control flow);
        # "a" and "b" both hit the warmed counter and share a path.
        Request("warm", "page.php", get={"name": "front"}),
        Request("a", "page.php", get={"name": "front"}),
        Request("b", "page.php", get={"name": "front"}),
    ]
    run = Executor(app, max_concurrency=1).serve(requests)
    tags = {
        rid: tag
        for tag, rids in run.reports.groups.items()
        for rid in rids
    }
    assert tags["a"] == tags["b"]
    assert tags["warm"] != tags["a"]


def test_kv_log_order_is_execution_order(honest_run):
    """Log order must reflect the actual serialization: a get of key K
    after a set of K in the log must also be later in value terms —
    checked by replaying the log against a dict."""
    state = {}
    for record in honest_run.reports.op_logs.get("kv:apc", []):
        if record.optype is OpType.KV_SET:
            key, value = record.opcontents
            state[key] = value
    # Final KV state from the log equals the executor's final state.
    assert state == honest_run.final_state.kv


def test_max_concurrency_one_serializes():
    app = _app()
    run = Executor(app, max_concurrency=1).serve(counter_requests(6))
    events = [(e.kind.value, e.rid) for e in run.trace]
    # With concurrency 1 the trace is strictly request/response alternating.
    for index in range(0, len(events), 2):
        assert events[index][0] == "REQUEST"
        assert events[index + 1][0] == "RESPONSE"
        assert events[index][1] == events[index + 1][1]


def test_concurrency_overlaps_requests():
    app = _app()
    run = Executor(app, scheduler=RoundRobinScheduler(),
                   max_concurrency=6).serve(counter_requests(12))
    events = [(e.kind.value, e.rid) for e in run.trace]
    first_response = next(i for i, e in enumerate(events)
                          if e[0] == "RESPONSE")
    assert first_response > 1  # at least two requests arrived first


def test_different_schedulers_may_change_outputs_but_all_audit():
    """Different interleavings give different hit counters (both valid)."""
    from repro.core import ssco_audit

    app1, app2 = _app(), _app()
    run_fifo = Executor(app1, scheduler=FifoScheduler(),
                        max_concurrency=4).serve(counter_requests(12))
    run_rand = Executor(app2, scheduler=RandomScheduler(99),
                        max_concurrency=4).serve(counter_requests(12))
    assert ssco_audit(app1, run_fifo.trace, run_fifo.reports,
                      run_fifo.initial_state).accepted
    assert ssco_audit(app2, run_rand.trace, run_rand.reports,
                      run_rand.initial_state).accepted


def test_scripted_scheduler_follows_script():
    app = Application.from_sources("tiny", {
        "a.php": "reg_write('X', 'a'); echo reg_read('X');",
    })
    requests = [Request("r1", "a.php"), Request("r2", "a.php")]
    # Let r2 fully run first, then r1.
    run = Executor(
        app,
        scheduler=ScriptedScheduler(["r2", "r2", "r2", "r1", "r1", "r1"]),
        max_concurrency=2,
    ).serve(requests)
    log = run.reports.op_logs["reg:g:X"]
    assert [rec.rid for rec in log] == ["r2", "r2", "r1", "r1"]


def test_db_lock_blocks_conflicting_transaction():
    """While r1 holds a transaction, r2's DB ops wait; the log shows r1's
    transaction strictly before r2's statement."""
    app = Application.from_sources("txapp", {
        "tx.php": """
db_begin();
db_exec("INSERT INTO t (v) VALUES (1)");
db_exec("INSERT INTO t (v) VALUES (2)");
db_commit();
echo 'tx';
""",
        "read.php": """
$rows = db_query("SELECT COUNT(*) AS n FROM t");
echo $rows[0]['n'];
""",
    }, db_setup="CREATE TABLE t (id INT PRIMARY KEY AUTOINCREMENT, v INT)")
    requests = [Request("r1", "tx.php"), Request("r2", "read.php")]
    # Round-robin would interleave, but the lock forces r2 to wait.
    run = Executor(app, scheduler=RoundRobinScheduler(),
                   max_concurrency=2).serve(requests)
    body = run.trace.responses()["r2"].body
    assert body in ("0", "2")  # never 1: the transaction is atomic
    log = run.reports.op_logs["db:main"]
    tx_pos = next(i for i, r in enumerate(log) if r.rid == "r1")
    read_pos = next(i for i, r in enumerate(log) if r.rid == "r2")
    if body == "2":
        assert tx_pos < read_pos
    else:
        assert read_pos < tx_pos


def test_ready_lists_while_a_transaction_holds_the_db():
    """What the scheduler is offered, step by step, pinned from the
    executor that scanned every in-flight request on every step (PR 17):
    all of them while nobody holds the DB; while ``tx`` holds it, ``tx``
    itself, requests on other objects (``kv``), requests not started
    yet (``rd2`` on arrival) — and not the started DB readers."""

    class Recording(RoundRobinScheduler):
        def __init__(self):
            super().__init__()
            self.offered = []

        def pick(self, ready):
            self.offered.append(list(ready))
            return super().pick(ready)

    app = Application.from_sources("txapp", {
        "tx.php": """
db_begin();
db_exec("INSERT INTO t (v) VALUES (1)");
db_exec("INSERT INTO t (v) VALUES (2)");
echo db_commit() ? 'tx' : 'aborted';
""",
        "read.php": """
$rows = db_query("SELECT COUNT(*) AS n FROM t");
echo $rows[0]['n'];
""",
        "kv.php": "kv_set('k', 1); kv_set('k', 2); echo kv_get('k');",
    }, db_setup="CREATE TABLE t (id INT PRIMARY KEY AUTOINCREMENT, v INT)")
    requests = [Request("tx", "tx.php"), Request("rd", "read.php"),
                Request("kv", "kv.php"), Request("rd2", "read.php")]
    scheduler = Recording()
    run = Executor(app, scheduler=scheduler, max_concurrency=3).serve(
        requests)
    assert scheduler.offered == [
        ["tx", "rd", "kv"],  # nothing started
        ["tx", "rd", "kv"],
        ["tx", "rd", "kv"],
        ["tx", "rd", "kv"],  # tx begins here: the DB is held
        ["tx", "kv"],
        ["tx", "kv"],
        ["tx", "kv"],
        ["tx", "kv"],
        ["tx", "kv"],  # kv answers; rd2 is admitted
        ["tx", "rd2"],  # tx commits and answers
        ["rd", "rd2"],
        ["rd2"],
        ["rd2"],
    ]
    assert run.steps == 13
    assert {rid: response.body
            for rid, response in run.trace.responses().items()} == {
        "tx": "tx", "kv": "2", "rd": "2", "rd2": "2"}


def test_recording_off_produces_no_reports():
    app = _app()
    run = Executor(app, record=False).serve(counter_requests(6))
    assert run.reports.op_logs.get("kv:apc") is None
    assert not run.reports.groups
    assert not run.reports.op_counts


def test_nondet_recorded_in_call_order():
    app = _app()
    run = Executor(app, nondet=NondetSource(seed=5)).serve(
        counter_requests(12)
    )
    stats_rids = [r.rid for r in counter_requests(12)
                  if r.script == "stats.php"]
    for rid in stats_rids:
        records = run.reports.nondet[rid]
        assert [r.func for r in records] == ["rand"]


def test_initial_state_unaffected_by_serving():
    app = _app()
    executor = Executor(app)
    run = executor.serve(counter_requests(12))
    assert run.initial_state.db_engine.row_count() == 1  # just the seed row
    assert run.final_state.db_engine.row_count() >= 1


def test_report_sizes_accounting(honest_run):
    sizes = honest_run.reports.size_bytes()
    assert set(sizes) == {"groups", "op_logs", "op_counts", "nondet"}
    assert honest_run.reports.total_size_bytes() == sum(sizes.values())
    assert honest_run.reports.baseline_size_bytes() == sizes["nondet"]


#: script -> (source, body): a float squared past the largest double, an
#: int past a float's range (10 ** 480) met by floats, and floor() /
#: ceil() / round() of INF and NAN.
OVERFLOW_SCRIPTS = {
    "grow.php": ("""
$x = 99999999999.5; $i = 0;
while ($i < 40) { $x = $x * $x; $i += 1; }
echo $x;
""", "INF"),
    "big.php": ("""
$n = 1; $i = 0;
while ($i < 16) { $n = $n * 1000000000000000000000000000000; $i += 1; }
echo 1.5 / $n, ' ', $n * 0.5, ' ', $n / 3, ' ', -$n - 0.5;
""", "0 INF INF -INF"),
    "floor.php": ("""
$x = 99999999999.5; $i = 0;
while ($i < 40) { $x = $x * $x; $i += 1; }
$n = $x - $x;
echo floor($x), ' ', ceil(-$x), ' ', round($x), ' ', round($n, 2), ' ',
     floor($n), ' ', floor(2.5);
""", "INF -INF INF NAN NAN 2"),
}


@pytest.mark.parametrize("backend", ["interp", "hybrid"])
def test_a_float_that_overflows_is_served_as_inf_and_audited(backend):
    """``echo`` of an infinite float used to raise ``OverflowError`` out of
    ``to_str``, and so did arithmetic between a float and an int no float
    holds, and so did ``floor()`` / ``ceil()`` / ``round()`` of INF or
    NAN; the executor catches only ``WeblangError``, so one such
    request ended every other request's serve.  They print PHP's ``INF``
    (or the float the exact result rounds to) on the server and on either
    audit engine."""
    app = Application.from_sources("grow", {
        path: source for path, (source, _) in OVERFLOW_SCRIPTS.items()})
    requests = [Request(f"{path}{index}", path)
                for path in OVERFLOW_SCRIPTS for index in range(3)]
    expected = {request.rid: OVERFLOW_SCRIPTS[request.script][1]
                for request in requests}
    execution = Executor(app, record=True).serve(requests)
    assert {rid: response.body for rid, response
            in execution.trace.responses().items()} == expected
    result = Auditor(app, AuditConfig(backend=backend)).audit_epochs(
        execution.epochs(), execution.initial_state)
    assert result.accepted
    assert result.produced == expected


@pytest.mark.parametrize("backend", ["interp", "hybrid"])
def test_number_format_decimals_never_end_the_serve(backend):
    """``number_format(1.5, -1)`` and a decimals of 2**31 raised
    ``ValueError`` out of the formatter, which the executor does not
    catch: one such request ended every request's serve.  Negative
    decimals now count as none, and a refused count is the request's
    own 500 page, served and audited alike."""
    app = Application.from_sources("nf", {
        "nf.php": "echo number_format(1.5, intval(param('d')));"})
    decimals = {"neg": "-1", "two": "2", "huge": str(2 ** 31)}
    requests = [Request(f"{name}{index}", "nf.php", get={"d": value})
                for name, value in decimals.items() for index in range(2)]
    execution = Executor(app, record=True).serve(requests)
    bodies = {rid: response.body for rid, response
              in execution.trace.responses().items()}
    assert bodies == {"neg0": "2", "neg1": "2", "two0": "1.50",
                      "two1": "1.50", "huge0": ERROR_BODY,
                      "huge1": ERROR_BODY}
    result = Auditor(app, AuditConfig(backend=backend)).audit_epochs(
        execution.epochs(), execution.initial_state)
    assert result.accepted
    assert result.produced == bodies


#: Scripts that turn a request parameter into an int, or an int key.
LONG_PARAM_SCRIPTS = {
    "add.php": "echo param('n') + 1;",
    "key.php": "$a = []; $a[param('n')] = 1; $a[] = 2; "
               "echo implode(',', array_keys($a));",
    "intval.php": "echo intval(param('n'));",
}

#: Past CPython's default int/str digit limit (4300).
LONG = "9" * 5000


def _serve_on(monkeypatch, engine, app, requests):
    """Serve ``requests`` on ``engine``: the compiled engine, or the
    oracle through the executor's one engine name."""
    if engine == "interp":
        monkeypatch.setattr(executor_module, "CompInterpreter", Interpreter)
    return Executor(app, record=True).serve(requests)


@pytest.mark.parametrize("engine", ["interp", "hybrid"])
def test_a_long_numeric_parameter_is_its_own_500(monkeypatch, engine):
    """A parameter of 5000 digits made ``int()`` / ``str()`` raise
    ``ValueError`` (CPython's int/str digit limit), which ended every
    request's serve.  Converting it to an int is now the request's own
    500 page; as an array key it stays a string, as PHP keeps a key past
    ``PHP_INT_MAX``.  Served and audited alike."""
    app = Application.from_sources("long", {
        path: source for path, source in LONG_PARAM_SCRIPTS.items()})
    requests = [Request(f"{path}{value[:1]}", path, get={"n": value})
                for path in LONG_PARAM_SCRIPTS for value in (LONG, "3")]
    execution = _serve_on(monkeypatch, engine, app, requests)
    bodies = {rid: response.body for rid, response
              in execution.trace.responses().items()}
    assert bodies == {"add.php9": ERROR_BODY, "add.php3": "4",
                      "key.php9": f"{LONG},0", "key.php3": "3,4",
                      "intval.php9": ERROR_BODY, "intval.php3": "3"}
    result = Auditor(app, AuditConfig(backend=engine)).audit_epochs(
        execution.epochs(), execution.initial_state)
    assert result.accepted, (result.reason, result.detail)
    assert result.produced == bodies


@pytest.mark.parametrize("engine", ["interp", "hybrid"])
def test_a_bundle_edited_to_a_long_parameter_is_rejected(
        monkeypatch, tmp_path, engine):
    """Recorded honestly with ``n = 3``, then the bundle's parameter
    edited to 5000 digits: the audit re-executes the request into its
    500 page, which is not the recorded body — a verdict, not a
    ``ValueError`` out of the auditor."""
    app = Application.from_sources("long", {
        "add.php": LONG_PARAM_SCRIPTS["add.php"]})
    execution = _serve_on(monkeypatch, engine, app, [
        Request("r0", "add.php", get={"n": "3"})])
    path = tmp_path / "long.jsonl"
    save_audit_bundle_segmented(
        str(path), execution.trace, execution.reports,
        execution.initial_state, execution.epoch_marks)
    auditor = Auditor(app, AuditConfig(backend=engine))
    with BundleReader.open(str(path)) as reader:
        assert auditor.audit_stream(reader).accepted
    text = path.read_text()
    assert text.count('"n": "3"') == 1
    path.write_text(text.replace('"n": "3"', f'"n": "{LONG}"'))
    with BundleReader.open(str(path)) as reader:
        result = auditor.audit_stream(reader)
    assert not result.accepted
    assert result.reason is RejectReason.OUTPUT_MISMATCH


#: Scripts that turn an int past the largest float into a float.
BIG_INT_SCRIPTS = {
    "floor.php": "echo floor(intval(param('n')));",
    "ceil.php": "echo ceil(-intval(param('n')));",
    "round.php": "echo round(intval(param('n')), 2);",
    "floatval.php": "echo floatval(intval(param('n')));",
    "format.php": "echo number_format(intval(param('n')));",
    "compare.php": "echo intval(param('n')) < 1.5 ? 'lt' : 'ge';",
}


@pytest.mark.parametrize("engine", ["interp", "hybrid"])
def test_an_int_past_the_float_range_is_inf(monkeypatch, engine):
    """``to_float`` of an int of 400 digits raised ``OverflowError``
    (``floor``, ``ceil``, ``round``, ``floatval``, ``number_format`` and
    a comparison with a float all take it), which ended every request's
    serve.  It is now ``INF``, signed, as ``$x + 0.5`` already was: the
    request gets its page, the others are served, and the bundle is
    audited alike."""
    app = Application.from_sources("big", BIG_INT_SCRIPTS)
    requests = [Request(f"{path}{value[:1]}", path, get={"n": value})
                for path in BIG_INT_SCRIPTS for value in ("9" * 400, "3")]
    execution = _serve_on(monkeypatch, engine, app, requests)
    bodies = {rid: response.body for rid, response
              in execution.trace.responses().items()}
    assert bodies == {"floor.php9": "INF", "floor.php3": "3",
                      "ceil.php9": "-INF", "ceil.php3": "-3",
                      "round.php9": "INF", "round.php3": "3",
                      "floatval.php9": "INF", "floatval.php3": "3",
                      "format.php9": "inf", "format.php3": "3",
                      "compare.php9": "ge", "compare.php3": "ge"}
    result = Auditor(app, AuditConfig(backend=engine)).audit_epochs(
        execution.epochs(), execution.initial_state)
    assert result.accepted, (result.reason, result.detail)
    assert result.produced == bodies
