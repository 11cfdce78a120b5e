"""Shared fixtures: small applications and executions used across tests."""

from __future__ import annotations

import gc
import os
import signal
import threading

import pytest

from repro.server import Application, Executor, RandomScheduler
from repro.server.nondet import NondetSource
from repro.trace.events import Request

# A compact application exercising every object type and non-determinism.
COUNTER_SRC = {
    "page.php": """
$name = param('name', 'front');
$rows = db_query("SELECT id, title, body FROM docs WHERE title = "
                 . sql_quote($name));
if (count($rows) == 0) {
  echo "missing:", $name;
} else {
  $doc = $rows[0];
  $hits = kv_get("hits:" . $name);
  if (is_null($hits)) { $hits = 0; }
  kv_set("hits:" . $name, $hits + 1);
  echo "<h1>", $doc['title'], "</h1><p>", $doc['body'], "</p>",
       "<i>hit ", $hits + 1, "</i>";
}
""",
    "save.php": """
$name = param('name');
$body = post_param('body', '');
db_begin();
$rows = db_query("SELECT id FROM docs WHERE title = " . sql_quote($name));
if (count($rows) == 0) {
  db_exec("INSERT INTO docs (title, body) VALUES (" . sql_quote($name)
          . ", " . sql_quote($body) . ")");
} else {
  db_exec("UPDATE docs SET body = " . sql_quote($body)
          . " WHERE id = " . $rows[0]['id']);
}
db_commit();
$s = session_get();
if (is_null($s)) { $s = ['saves' => 0]; }
$s['saves'] = $s['saves'] + 1;
session_put($s);
echo "saved:", $name, ":", $s['saves'], "@", time();
""",
    "stats.php": """
$counts = db_query("SELECT COUNT(*) AS n FROM docs");
echo "docs=", $counts[0]['n'];
echo " lucky=", rand(1, 6);
""",
}

COUNTER_SCHEMA = (
    "CREATE TABLE docs (id INT PRIMARY KEY AUTOINCREMENT, title TEXT,"
    " body TEXT);"
    "INSERT INTO docs (title, body) VALUES ('front', 'welcome')"
)


@pytest.fixture(autouse=True)
def collector_policy_restored():
    """Fails a test that leaves the cyclic collector's threshold or
    freeze count other than it found them (a
    :func:`repro.common.collector.collector_scope` still open, or one
    that restores wrongly)."""
    before = gc.get_threshold(), gc.get_freeze_count()
    yield
    assert (gc.get_threshold(), gc.get_freeze_count()) == before, \
        "the test left the collector's policy changed"


@pytest.fixture
def counter_app() -> Application:
    return Application.from_sources(
        "counter", COUNTER_SRC, db_setup=COUNTER_SCHEMA
    )


def untimed(payload: dict, *dropped: str) -> dict:
    """An ``audit --json`` payload with its timings (and the named
    top-level keys) taken out — what must be equal between two roads."""
    skipped = ("phases",) + dropped
    kept = {key: value for key, value in payload.items()
            if key not in skipped}
    if kept.get("epochs"):
        kept["epochs"] = [
            {key: value for key, value in epoch.items()
             if key != "reexec_seconds"} for epoch in kept["epochs"]]
    return kept


def audit_epochs(app, execution, trace=None, reports=None, pool=None,
                 **knobs):
    """``execution`` — or a tampered copy of its trace or reports —
    audited in the epochs it was recorded in, through the one driver
    (``knobs`` are :class:`~repro.core.config.AuditConfig` fields;
    ``pool`` is handed to the session)."""
    from repro.core import Auditor
    from repro.core.partition import partition_audit_inputs

    epochs = partition_audit_inputs(trace or execution.trace,
                                    reports or execution.reports,
                                    execution.epoch_marks)
    return Auditor(app, **knobs).audit_epochs(
        epochs, execution.initial_state, pool)


@pytest.fixture(scope="module")
def local_pool():
    """Two local fleet workers shared by a test module: the pool
    ``--epoch-workers 2`` builds.  Its counters add up across the
    module's tests, so compare differences."""
    from repro.fleet import local_fleet

    with local_fleet(2) as pool:
        yield pool


def sigkill_workers_mid_epoch(monkeypatch, victims: int = 1) -> list:
    """SIGKILL the first ``victims`` fleet workers dispatched to, each
    right after its first ``WORK`` frame is on the wire; returns their
    names as they die.  A worker's default name ends in its pid."""
    from repro.fleet.coordinator import FleetCoordinator

    original = FleetCoordinator._dispatch
    killed: list = []
    lock = threading.Lock()

    def dispatch(self, worker, epoch, payload):
        with lock:
            doomed = len(killed) < victims and worker.name not in killed
            if doomed:
                killed.append(worker.name)
        if doomed:
            send = worker.fsock.send_raw

            def send_then_die(frame):
                send(frame)
                os.kill(int(worker.name.rsplit("-", 1)[1]), signal.SIGKILL)

            worker.fsock.send_raw = send_then_die
        return original(self, worker, epoch, payload)

    monkeypatch.setattr(FleetCoordinator, "_dispatch", dispatch)
    return killed


def counter_requests(n: int = 24):
    """A request mix covering all three scripts and sessions."""
    out = []
    for i in range(n):
        rid = f"r{i:03d}"
        if i % 6 == 5:
            out.append(
                Request(rid, "save.php",
                        get={"name": f"doc{i % 3}"},
                        post={"body": f"body {i}"},
                        cookies={"sess": f"u{i % 2}"})
            )
        elif i % 6 == 4:
            out.append(Request(rid, "stats.php"))
        else:
            name = "front" if i % 3 else f"doc{i % 3}"
            out.append(Request(rid, "page.php", get={"name": name}))
    return out


@pytest.fixture
def honest_run(counter_app):
    """An honest execution of the counter app under a random schedule."""
    executor = Executor(
        counter_app,
        scheduler=RandomScheduler(11),
        max_concurrency=4,
        nondet=NondetSource(seed=11),
    )
    return executor.serve(counter_requests())
