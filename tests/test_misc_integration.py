"""Remaining integration surfaces: the queueing model, strict-register
mode end-to-end, executor state transplant, report accounting."""

from __future__ import annotations

import pytest

from repro.bench import simulate_open_loop
from repro.common.errors import RejectReason
from repro.core import ssco_audit
from repro.server import Application, Executor
from repro.trace.events import Request


# -- queueing simulation (the Figure 8-right methodology) ---------------------


def test_queue_latency_grows_with_load():
    service = 0.001
    light = simulate_open_loop(service, 500.0, 2000)
    heavy = simulate_open_loop(service, 3900.0, 2000)  # near 4-worker cap
    assert light["p50_ms"] < heavy["p50_ms"]
    assert light["p99_ms"] <= heavy["p99_ms"]


def test_queue_low_load_latency_is_service_time():
    stats = simulate_open_loop(0.002, 10.0, 500)
    assert stats["p50_ms"] == pytest.approx(2.0, rel=0.01)


def test_queue_simulation_deterministic():
    a = simulate_open_loop(0.001, 2000.0, 1000, seed=3)
    b = simulate_open_loop(0.001, 2000.0, 1000, seed=3)
    assert a == b


def test_queue_past_capacity_grows_without_bound():
    """Four 1 ms workers serve at most 4,000 requests/s: past that the
    queue only grows, and doubling the workers absorbs the same load."""
    over = simulate_open_loop(0.001, 4200.0, 4000)
    assert over["p99_ms"] > 20.0
    wider = simulate_open_loop(0.001, 4200.0, 4000, workers=8)
    assert wider["p99_ms"] < 2.0


def test_queue_percentiles_are_ordered_and_at_least_service():
    for rate in (100.0, 2000.0, 3900.0):
        stats = simulate_open_loop(0.001, rate, 2000)
        assert 1.0 - 1e-9 <= stats["p50_ms"] <= stats["p90_ms"] \
            <= stats["p99_ms"]


# -- strict-register mode end-to-end --------------------------------------------


REG_SRC = {
    "get.php": "echo reg_read(param('k'));",
    "set.php": "reg_write(param('k'), param('v')); echo 'ok';",
}


def test_strict_registers_accepts_seeded_reads():
    app = Application.from_sources("regs", REG_SRC)
    run = Executor(app).serve([
        Request("w1", "set.php", get={"k": "A", "v": "5"}),
        Request("r1", "get.php", get={"k": "A"}),
    ])
    result = ssco_audit(app, run.trace, run.reports, run.initial_state,
                        strict_registers=True)
    assert result.accepted, (result.reason, result.detail)


def test_strict_registers_rejects_unseeded_read():
    """A read of a never-written register: lenient mode treats it as a
    fresh session (None); strict mode is the paper's literal SimOp."""
    app = Application.from_sources("regs", REG_SRC)
    run = Executor(app).serve([
        Request("r1", "get.php", get={"k": "FRESH"}),
    ])
    lenient = ssco_audit(app, run.trace, run.reports, run.initial_state)
    assert lenient.accepted
    strict = ssco_audit(app, run.trace, run.reports, run.initial_state,
                        strict_registers=True)
    assert not strict.accepted
    assert strict.reason is RejectReason.NO_PRIOR_WRITE


def test_strict_registers_accepts_with_initial_state():
    from repro.server.app import InitialState

    app = Application.from_sources("regs", REG_SRC)
    run = Executor(app, initial_state=InitialState(
        __import__("repro.sql.engine", fromlist=["Engine"]).Engine(),
        {}, {"reg:g:FRESH": "preset"},
    )).serve([Request("r1", "get.php", get={"k": "FRESH"})])
    assert run.trace.responses()["r1"].body == "preset"
    strict = ssco_audit(app, run.trace, run.reports, run.initial_state,
                        strict_registers=True)
    assert strict.accepted, (strict.reason, strict.detail)


# -- executor state transplant ----------------------------------------------------


def test_executor_initial_state_transplant(counter_app):
    from tests.conftest import counter_requests

    first = Executor(counter_app).serve(counter_requests(12))
    second = Executor(counter_app,
                      initial_state=first.final_state).serve(
        [Request("x1", "stats.php")]
    )
    # The doc count reflects epoch 1's saves, not a fresh setup.
    body = second.trace.responses()["x1"].body
    docs = first.final_state.db_engine.tables["docs"].rows
    assert body.startswith(f"docs={len(docs)}")
    # And epoch 2 audits against its (transplanted) initial state.
    result = ssco_audit(counter_app, second.trace, second.reports,
                        second.initial_state)
    assert result.accepted


def test_transplant_does_not_alias_source_state(counter_app):
    from tests.conftest import counter_requests

    first = Executor(counter_app).serve(counter_requests(6))
    docs_before = [
        dict(row) for row in first.final_state.db_engine.tables["docs"].rows
    ]
    second = Executor(counter_app, initial_state=first.final_state)
    second.serve([
        Request("w1", "save.php", get={"name": "newdoc"},
                post={"body": "x"}, cookies={"sess": "u"}),
    ])
    after = first.final_state.db_engine.tables["docs"].rows
    assert [dict(row) for row in after] == docs_before


# -- report accounting ---------------------------------------------------------------


def test_trace_size_includes_externals():
    app = Application.from_sources("m", {
        "s.php": "send_email('a@b.c', 'subject', 'body'); echo 'ok';",
    })
    run = Executor(app).serve([Request("r1", "s.php")])
    with_email = run.trace.size_bytes()
    app2 = Application.from_sources("m", {"s.php": "echo 'ok';"})
    run2 = Executor(app2).serve([Request("r1", "s.php")])
    assert with_email > run2.trace.size_bytes()


def test_op_record_size_scales_with_contents():
    from repro.objects.base import OpRecord, OpType

    small = OpRecord("r", 1, OpType.KV_SET, ("k", "v"))
    large = OpRecord("r", 1, OpType.KV_SET, ("k", "v" * 1000))
    assert large.size_bytes() > small.size_bytes() + 900
