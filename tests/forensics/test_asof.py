"""As-of reconstruction: KV, SQL, registers; epoch and request points."""

from __future__ import annotations

import pytest

from repro.forensics import AsOfError, UnknownRequest, query_asof
from repro.forensics.asof import resolve_point
from repro.server import Application, Executor
from repro.trace.events import Request

from tests.conftest import counter_requests
from tests.forensics.conftest import chain_requests, make_timeline, serve


def test_kv_asof_request_points(chain_app):
    run = serve(chain_app, chain_requests())
    timeline = make_timeline(chain_app, run)
    # Before B copies it, k2 does not exist.
    before = query_asof(timeline, "A", "kv:k2")
    assert before.value is None
    assert before.producers == []
    # As of B's response the copy is visible, attributed to B.
    after = query_asof(timeline, "B", "kv:k2")
    assert after.value == "v1"
    assert [p.rid for p in after.producers] == ["B"]
    # k1 is A's write throughout.
    k1 = query_asof(timeline, "C", "kv:k1")
    assert k1.value == "v1"
    assert [p.rid for p in k1.producers] == ["A"]


def test_kv_asof_epoch_end(chain_app):
    run = serve(chain_app, chain_requests())
    timeline = make_timeline(chain_app, run)
    result = query_asof(timeline, "0", "kv:k9")
    assert result.value == "zzz"
    assert [p.rid for p in result.producers] == ["D"]


def test_asof_before_first_write_is_absent(chain_app):
    """The satellite case: a key queried before anything wrote it reads
    as absent, with no producer — not an error."""
    run = serve(chain_app, chain_requests())
    timeline = make_timeline(chain_app, run)
    result = query_asof(timeline, "A", "kv:never-written")
    assert result.value is None
    assert result.producers == []


def test_kv_producer_chains_across_epochs(chain_app):
    """A value carried into a later epoch by §4.5 migration still
    attributes to the epoch that wrote it."""
    run = serve(chain_app, chain_requests(), epoch_size=2)
    timeline = make_timeline(chain_app, run)
    assert timeline.epoch_count > 1
    read_epoch = timeline.entry("C").epoch
    write_epoch = timeline.entry("A").epoch
    assert write_epoch < read_epoch
    result = query_asof(timeline, "C", "kv:k1")
    assert result.value == "v1"
    assert [(p.epoch, p.rid) for p in result.producers] == \
        [(write_epoch, "A")]


def test_sql_asof_counts_and_attributes(counter_app):
    run = serve(counter_app, counter_requests())
    timeline = make_timeline(counter_app, run)
    first = sorted(timeline.entries)[0]
    # Before any save only the schema's seeded row exists...
    early = query_asof(timeline, first, "SELECT COUNT(*) AS n FROM docs")
    assert early.rows == [{"n": 1}]
    assert all(p.is_initial for p in early.producers)
    # ...and at epoch end the saves' insert shows up, attributed to a
    # request (counter_requests saves only doc2, so 2 rows total).
    late = query_asof(timeline, "0", "SELECT COUNT(*) AS n FROM docs")
    assert late.rows == [{"n": 2}]
    writers = [p for p in late.producers if not p.is_initial]
    assert writers and all(
        p.rid in timeline.entries for p in writers
    )


def test_sql_asof_errors(counter_app, honest_run):
    timeline = make_timeline(counter_app, honest_run)
    with pytest.raises(AsOfError, match="bad SQL"):
        query_asof(timeline, "0", "SELECT FROM WHERE")
    with pytest.raises(AsOfError):
        query_asof(timeline, "0", "SELECT * FROM no_such_table")


def test_register_asof():
    src = {
        "get.php": "echo reg_read(param('k'));",
        "set.php": "reg_write(param('k'), param('v')); echo 'ok';",
    }
    app = Application.from_sources("regs", src)
    run = Executor(app).serve([
        Request("r0", "get.php", get={"k": "A"}),
        Request("w1", "set.php", get={"k": "A", "v": "5"}),
        Request("r1", "get.php", get={"k": "A"}),
    ])
    timeline = make_timeline(app, run)
    obj = next(o for o in run.reports.op_logs if o.startswith("reg:"))
    before = query_asof(timeline, "r0", obj)
    assert before.value is None
    assert before.producers == []
    after = query_asof(timeline, "r1", obj)
    assert after.value == "5"
    assert [p.rid for p in after.producers] == ["w1"]
    end = query_asof(timeline, "0", obj)
    assert end.value == "5"


def test_resolve_point_specs(counter_app, honest_run):
    timeline = make_timeline(counter_app, honest_run)
    assert resolve_point(timeline, "0").rid is None
    rid = sorted(timeline.entries)[0]
    point = resolve_point(timeline, rid)
    assert point.rid == rid
    with pytest.raises(AsOfError, match="out of range"):
        resolve_point(timeline, "42")
    with pytest.raises(UnknownRequest):
        resolve_point(timeline, "no-such-request")
    with pytest.raises(AsOfError, match="empty"):
        resolve_point(timeline, "  ")


# -- the versioned store's equality index changes no answer ---------------------


def _sql_answers(workload, epoch_size):
    """Every SELECT the application itself issued, asked again of the
    timeline: ``select_versions`` (full rows with start timestamps) at
    the reading transaction's own timestamp, and ``query --as-of`` at a
    sample of request points and at every epoch's end."""
    from repro.objects.base import OpType
    from repro.sql.versioned import MAXQ

    run = Executor(workload.app, max_concurrency=4,
                   epoch_size=epoch_size).serve(workload.requests)
    timeline = make_timeline(workload.app, run)
    db_name = workload.app.db_name
    answers = []
    for epoch in range(timeline.epoch_count):
        vdb = timeline.context(epoch).sim.vdb[db_name]
        log = timeline.shard(epoch).reports.op_logs.get(db_name, [])
        selects = []
        for seq, record in enumerate(log, 1):
            if record.optype is not OpType.DB_OP:
                continue
            for q, sql in enumerate(record.opcontents[0], 1):
                if sql.upper().startswith("SELECT"):
                    selects.append(sql)
                    answers.append(
                        (epoch, sql, vdb.select_versions(
                            sql, seq * MAXQ + q)))
        rids = [rid for rid, entry in sorted(timeline.entries.items())
                if entry.epoch == epoch]
        for sql in selects[::7]:
            for spec in (*rids[::9], str(epoch)):
                result = query_asof(timeline, spec, sql)
                answers.append((spec, sql, result.rows, result.producers))
    return answers


@pytest.mark.parametrize("name", ["wiki", "forum", "hotcrp", "cart"])
def test_sql_answers_equal_the_full_walk(monkeypatch, name):
    from repro import workloads
    from repro.sql.versioned import _VTable

    workload = getattr(workloads, f"{name}_workload")(scale=0.004, seed=3)
    probed = []
    candidates = _VTable.candidates

    def spying(self, where):
        out = candidates(self, where)
        probed.append(not isinstance(out, type({}.values())))
        return out

    monkeypatch.setattr(_VTable, "candidates", spying)
    indexed = _sql_answers(workload, epoch_size=25)
    assert any(probed), "no scan of this workload used the index"
    monkeypatch.setattr(_VTable, "candidates",
                        lambda self, where: self.rows.values())
    walked = _sql_answers(workload, epoch_size=25)
    assert len(indexed) > 100
    assert indexed == walked
