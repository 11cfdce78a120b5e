"""The identity the paper's work ratio rests on, in exact counts.

``stats["work_ratio"]`` charges a group of ``n`` requests that ran ``ℓ``
steps ``n·ℓ`` for naive re-execution: it assumes that each request,
run alone, runs exactly its group's ``ℓ`` steps.  Here every request of
the four ``benchmarks/e2e`` workloads (``--smoke`` size, seed 1) runs
alone through the oracle :class:`~repro.lang.interp.Interpreter`, and
the sum of what it books must be ``Σ n·ℓ`` over the audit's
``group_alphas`` — but for a named gap: the requests the audit re-ran
one by one (a group that errored or diverged), which are in no group's
``(n, α, ℓ)``; at this size no request of the four does.  Chunks cut at
``max_group_size`` are groups of their own and leave no gap: the audit
runs at the default size and at 8.  A fused closure of the engine that
booked one step more or fewer than its closure tree shows here as well
as in ``test_pinned_counts.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core import AuditConfig, Auditor, ooo, reexec
from repro.lang.interp import Interpreter

sys.path.append(str(Path(__file__).resolve().parents[2]
                    / "benchmarks" / "e2e"))
import e2e_workloads  # noqa: E402

SEED = 1


class _Booked(Interpreter):
    """The oracle, noting each request's steps as it finishes."""

    steps: dict[str, int] = {}

    def run(self, program, request):
        output = yield from super().run(program, request)
        _Booked.steps[request.rid] = output.steps
        return output


@pytest.mark.parametrize("max_group_size", [AuditConfig().max_group_size, 8])
@pytest.mark.parametrize("name", sorted(e2e_workloads.SPECS))
def test_requests_run_alone_book_what_their_groups_booked(monkeypatch, name,
                                                          max_group_size):
    workload = e2e_workloads.build_workload(name, SEED, smoke=True)
    execution = e2e_workloads.serve(workload, SEED, record=True, smoke=True)

    fallen: list[str] = []
    fallback = reexec._fallback

    def noting(app, rids, *args, **kwargs):
        fallen.extend(rids)
        return fallback(app, rids, *args, **kwargs)

    monkeypatch.setattr(reexec, "_fallback", noting)
    # The engine by name: only a grouped run books (n, α, ℓ).
    grouped = Auditor(workload.app, AuditConfig(
        backend="hybrid", max_group_size=max_group_size)).audit_epochs(
        execution.epochs(), execution.initial_state)
    monkeypatch.setattr(reexec, "_fallback", fallback)

    _Booked.steps = {}
    monkeypatch.setattr(ooo, "Interpreter", _Booked)
    alone = Auditor(workload.app, AuditConfig(backend="interp")
                    ).audit_epochs(execution.epochs(),
                                   execution.initial_state)
    assert grouped.accepted and alone.accepted
    assert grouped.produced == alone.produced

    stats = grouped.stats
    alphas = stats["group_alphas"]
    assert max(n for n, _, _ in alphas) <= max_group_size
    rids = [request.rid for request in workload.requests]
    assert sum(n for n, _, _ in alphas) == stats["grouped_requests"]
    assert stats["grouped_requests"] + stats["fallback_requests"] \
        == len(rids) == len(alone.produced)
    # The gap, named: requests re-run one by one are exactly the ones
    # that fell back, and each of them is a request that errored (a 500
    # page, which the oracle ends in an error too: it books no count).
    errored = {rid for rid in rids if rid not in _Booked.steps}
    assert set(fallen) == errored
    assert len(fallen) == stats["fallback_requests"]
    assert sum(_Booked.steps.values()) == sum(
        n * steps for n, _, steps in alphas)
    assert sum(steps for _, _, steps in alphas) == stats["steps"]
