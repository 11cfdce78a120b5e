"""What an audit with no backend named runs: ``hybrid``, the compiled
engine.

Every chunk — a chunk of one included — runs as a group on the compiled
closures, so a bogus grouping of any size is *observed* to diverge;
demoted groups re-run per request on the same compiled code.  Every
test here drops ``REPRO_BACKEND`` first: the subject is the code's own
default, whatever the CI step exports.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.common.errors import RejectReason
from repro.core import AuditConfig, simple_audit, ssco_audit
from repro.core.reexec import default_backend
from repro.lang.compile import CompInterpreter
from repro.scenarios import fuzz_bundle
from repro.scenarios.generator import build_scenario_app
from repro.server import Application, Executor, RandomScheduler
from repro.trace.events import Request

FIXTURE = str(pathlib.Path(__file__).resolve().parent.parent
              / "data" / "cart_fixture.jsonl")

BRANCHY_SRC = {
    "branch.php": """
$v = intval(param('v'));
if ($v > 10) { echo "big:", $v; } else { echo "small:", $v; }
""",
}


@pytest.fixture(autouse=True)
def no_backend_override(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


def _serve(values):
    app = Application.from_sources("demo", BRANCHY_SRC)
    requests = [Request(f"r{index}", "branch.php", get={"v": str(value)})
                for index, value in enumerate(values)]
    run = Executor(app, scheduler=RandomScheduler(3),
                   max_concurrency=4).serve(requests)
    return app, run


def _one_bogus_group(reports):
    merged = reports.deep_copy()
    merged.groups = {"bogus": [rid for rids in merged.groups.values()
                               for rid in rids]}
    return merged


def test_the_default_is_hybrid():
    assert default_backend() == "hybrid"
    assert AuditConfig().backend == "hybrid"
    app, run = _serve([5, 50, 7])
    # The compiled engine runs every chunk as a group, under its old
    # name too; the per-request names book every request as a fallback.
    for knobs, grouped in (({}, 3), ({"backend": "accinterp"}, 3),
                           ({"backend": "interp"}, 0),
                           ({"backend": "compinterp"}, 0)):
        result = ssco_audit(app, run.trace, run.reports, run.initial_state,
                            **knobs)
        assert result.accepted, (knobs, result.reason, result.detail)
        assert result.stats["grouped_requests"] == grouped, knobs
        assert result.stats["fallback_requests"] == 3 - grouped, knobs


def test_bogus_group_is_rejected_as_diverged_in_strict_mode():
    app, run = _serve([5, 50, 7])
    assert len(run.reports.groups) == 2  # honest: two flow tags
    result = ssco_audit(app, run.trace, _one_bogus_group(run.reports),
                        run.initial_state, strict=True)
    assert not result.accepted
    assert result.reason is RejectReason.GROUP_DIVERGED
    assert result.stats["divergences"] == 1


def test_bogus_group_is_demoted_to_the_compiled_engine_when_not_strict(
        monkeypatch):
    app, run = _serve([5, 50, 7])
    demoted = []
    compiled_run = CompInterpreter.run

    def counting_run(self, program, request):
        demoted.append(request.rid)
        return compiled_run(self, program, request)

    monkeypatch.setattr(CompInterpreter, "run", counting_run)
    result = ssco_audit(app, run.trace, _one_bogus_group(run.reports),
                        run.initial_state, strict=False)
    baseline = simple_audit(app, run.trace, run.reports, run.initial_state)
    assert result.accepted, (result.reason, result.detail)
    assert result.produced == baseline.produced
    assert sorted(demoted) == ["r0", "r1", "r2"]  # ran compiled
    assert result.stats["divergences"] == 1
    assert result.stats["fallback_requests"] == 3
    assert result.stats["grouped_requests"] == 0


def test_a_group_of_one_is_a_group_not_a_fallback():
    """5 and 7 share a flow tag, 50 is alone in its own: an honest
    audit retries nothing, and every request is booked exactly once —
    as grouped, whatever the size of its group."""
    app, run = _serve([5, 50, 7])
    result = ssco_audit(app, run.trace, run.reports, run.initial_state)
    assert result.accepted, (result.reason, result.detail)
    assert result.stats["groups"] == 2
    assert result.stats["grouped_requests"] == 3
    assert result.stats["fallback_requests"] == 0
    assert result.stats["divergences"] == 0
    assert "singleton_requests" not in result.stats
    pinned = ssco_audit(app, run.trace, run.reports, run.initial_state,
                        backend="accinterp")
    assert pinned.produced == result.produced
    for key in ("groups", "grouped_requests", "fallback_requests",
                "divergences", "steps", "multi_steps", "multi_slots",
                "multi_classes"):
        assert pinned.stats[key] == result.stats[key], key


def test_bogus_pair_diverges_whatever_its_size():
    """Before there was one engine only groups routed to the grouped
    interpreter could be seen to diverge; now every chunk can."""
    app, run = _serve([5, 50])
    result = ssco_audit(app, run.trace, _one_bogus_group(run.reports),
                        run.initial_state, strict=True)
    assert not result.accepted
    assert result.reason is RejectReason.GROUP_DIVERGED


def test_deterministic_fuzz_campaign_all_rejected_under_the_default():
    report = fuzz_bundle(FIXTURE, build_scenario_app("cart", 0.05),
                         mutations=25, seed=2, shrink=False)
    assert report.rejected == 25, [o.to_json() for o in report.accepted]
