"""The server's engine against the oracle.

:class:`~repro.server.executor.Executor` serves on the compiled engine
(:class:`repro.lang.compile.CompInterpreter`); the tree-walking
:class:`repro.lang.interp.Interpreter` is the oracle.  There is no
engine argument: the one seam is the class ``server/executor.py``
imports, which these tests replace.  Served either way, the same
requests must give equal traces, reports, ``steps`` and final state, and
byte-identical segmented bundles.
"""

from __future__ import annotations

import pytest

import repro.server.executor as executor_module
from repro.io import save_audit_bundle_segmented
from repro.lang.interp import Interpreter
from repro.objects.base import OpType
from repro.server import (
    Application,
    Executor,
    FifoScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.server.executor import ERROR_BODY
from repro.server.nondet import NondetSource
from repro.trace.events import EventKind, Request
from repro.workloads import (
    cart_workload,
    forum_workload,
    hotcrp_workload,
    wiki_workload,
)

SCHEDULERS = {
    "fifo": lambda seed: FifoScheduler(),
    "round_robin": lambda seed: RoundRobinScheduler(),
    "random": RandomScheduler,
}

#: factory -> a scale that gives 30-90 requests (epochs of 20).
APPS = {
    "wiki": (wiki_workload, 0.004),
    "forum": (forum_workload, 0.003),
    "hotcrp": (hotcrp_workload, 0.006),
    "cart": (cart_workload, 0.003),
}


class _Oracle(Interpreter):
    """The oracle, counting its runs: a serve that was meant to go
    through the seam and did not would compare the engine to itself."""

    runs = 0

    def run(self, program, request):
        _Oracle.runs += 1
        return super().run(program, request)


def serve(monkeypatch, app, requests, seed, scheduler, oracle, **kwargs):
    with monkeypatch.context() as patch:
        if oracle:
            patch.setattr(executor_module, "CompInterpreter", _Oracle)
        before = _Oracle.runs
        execution = Executor(
            app,
            scheduler=SCHEDULERS[scheduler](seed),
            max_concurrency=4,
            nondet=NondetSource(seed=seed),
            **kwargs,
        ).serve(requests)
        assert _Oracle.runs - before == (len(requests) if oracle else 0)
    return execution


def bundle_bytes(execution, path) -> bytes:
    save_audit_bundle_segmented(
        str(path), execution.trace, execution.reports,
        execution.initial_state, execution.epoch_marks)
    return path.read_bytes()


def state_of(state):
    return state.db_engine.tables, state.kv, state.registers


def assert_same_execution(engine, oracle, tmp_path):
    assert engine.trace.events == oracle.trace.events
    assert engine.reports.groups == oracle.reports.groups
    assert engine.reports.op_logs == oracle.reports.op_logs
    assert engine.reports.op_counts == oracle.reports.op_counts
    assert engine.reports.nondet == oracle.reports.nondet
    assert engine.steps == oracle.steps
    assert engine.epoch_marks == oracle.epoch_marks
    assert state_of(engine.initial_state) == state_of(oracle.initial_state)
    assert state_of(engine.final_state) == state_of(oracle.final_state)
    # Dict equality ignores order; the bundle's bytes do not.
    assert (bundle_bytes(engine, tmp_path / "engine.jsonl")
            == bundle_bytes(oracle, tmp_path / "oracle.jsonl"))


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(APPS))
def test_bundled_apps_serve_alike_on_engine_and_oracle(
        monkeypatch, tmp_path, name, seed, scheduler):
    factory, scale = APPS[name]
    workload = factory(scale=scale, seed=seed)
    engine, oracle = (
        serve(monkeypatch, workload.app, workload.requests, seed, scheduler,
              oracle=oracle, epoch_size=20)
        for oracle in (False, True)
    )
    assert engine.reports.groups and engine.epoch_marks
    assert_same_execution(engine, oracle, tmp_path)


# -- every corner of the executor's loop, in one small application -----------

CORNERS_SRC = {
    # A WeblangError while the request's transaction is open: the
    # executor rolls back (logged), answers 500, files an error: group.
    "boom.php": """
db_begin();
db_exec("INSERT INTO t (v) VALUES (" . intval(param('v')) . ")");
if (param('v') > 1) { echo nope(); }
echo db_commit() ? 'kept' : 'aborted';
""",
    # Commit at the DB's discretion (db_abort_hook decides).
    "tx.php": """
db_begin();
db_exec("UPDATE t SET v = v + 1 WHERE id = 1");
$n = db_query("SELECT v FROM t WHERE id = 1");
echo db_commit() ? 'kept:' : 'aborted:', $n[0]['v'];
""",
    "read.php": """
$rows = db_query("SELECT COUNT(*) AS n FROM t");
echo 'rows=', $rows[0]['n'];
foreach (db_query("SELECT id, v FROM t") as $row) {
  echo ' ', $row['id'], ':', $row['v'];
}
""",
    "nondet.php": """
echo time(), ' ', microtime(), ' ', rand(1, 6), ' ', mt_rand(0, 9), ' ',
     uniqid(), ' ', getpid();
""",
    "notify.php": """
$s = session_get();
if (is_null($s)) { $s = ['n' => 0]; }
$s['n'] += 1;
session_put($s);
send_email(param('to'), 'hello', 'visit ' . $s['n']);
external_call('pay', ['amount' => $s['n'], 'to' => param('to')]);
kv_set('last', param('to'));
reg_write('count', intval(reg_read('count')) + 1);
echo 'sent ', kv_get('last'), ' #', reg_read('count');
""",
}

CORNERS_SCHEMA = (
    "CREATE TABLE t (id INT PRIMARY KEY AUTOINCREMENT, v INT);"
    "INSERT INTO t (v) VALUES (10)"
)


def corner_requests():
    requests = []
    for index in range(30):
        rid = f"c{index:02d}"
        script = sorted(CORNERS_SRC)[index % len(CORNERS_SRC)]
        requests.append(Request(
            rid, script,
            get={"v": str(index % 3), "to": f"user{index % 4}@example.org"},
            cookies={"sess": f"u{index % 3}"},
        ))
    return requests


def abort_every_other(rid: str, queries: tuple) -> bool:
    return int(rid[1:]) % 2 == 0


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_corner_cases_serve_alike_on_engine_and_oracle(
        monkeypatch, tmp_path, scheduler, record):
    app = Application.from_sources("corners", CORNERS_SRC,
                                   db_setup=CORNERS_SCHEMA)
    requests = corner_requests()
    fail_rids = {"c01", "c14"}  # a nondet.php and a tx.php
    engine, oracle = (
        serve(monkeypatch, app, requests, 5, scheduler, oracle=oracle,
              record=record, epoch_size=12, fail_rids=set(fail_rids),
              db_abort_hook=abort_every_other)
        for oracle in (False, True)
    )
    assert_same_execution(engine, oracle, tmp_path)

    # The corners were reached (on the engine; the oracle equals it).
    responses = engine.trace.responses()
    errored = {r.rid for r in requests
               if r.script == "boom.php" and r.get["v"] == "2"}
    assert errored
    assert {responses[rid].body for rid in errored} == {ERROR_BODY}
    assert {responses[rid].abort_info for rid in fail_rids} == {
        "client reset"}
    bodies = {response.body for response in responses.values()
              if response.body}
    assert any(body.startswith("aborted:") for body in bodies)
    assert any(body.startswith("kept:") for body in bodies)
    externals = [event.payload.service for event in engine.trace
                 if event.kind is EventKind.EXTERNAL]
    assert set(externals) == {"email", "pay"}
    if not record:
        reports = engine.reports
        assert not (reports.groups or reports.op_logs or reports.op_counts
                    or reports.nondet)
        return
    error_rids = {rid for tag, rids in engine.reports.groups.items()
                  if tag.split(":", 1)[1] == "error:boom.php"
                  for rid in rids}
    assert error_rids == errored
    rolled_back = {
        record.rid for record in engine.reports.op_logs[app.db_name]
        if record.optype is OpType.DB_OP
        and record.opcontents[0][-1] == "ROLLBACK"
    }
    assert rolled_back == errored
    nondet_rid = next(r.rid for r in requests
                      if r.script == "nondet.php" and r.rid not in fail_rids)
    assert [rec.func for rec in engine.reports.nondet[nondet_rid]] == [
        "time", "microtime", "rand", "mt_rand", "uniqid", "getpid"]
