"""The paper's claim as an epoch-size curve, in exact counts.

One synthesized request stream per application (1,600 requests, scale
0.05, seed 0) is re-recorded with epochs of 50, 200, 800 and 1,600
requests and audited on the compiled engine the way ``repro audit``
does it.  A group never spans an epoch cut, so bigger epochs offer
more deduplication (the paper's Figures 8, 10 and 11).  The audit's ``work_ratio`` (the paper's
cost model over the merged ``group_alphas``) and its mean group size
are pinned exactly, and neither may fall as the epoch grows.  A change
that breaks grouping, dedup or collapse fails here on the ratio.
"""

from __future__ import annotations

import pytest

from repro.core import AuditConfig, Auditor
from repro.io import BundleReader
from repro.scenarios.generator import (
    ScenarioSpec,
    build_scenario_app,
    synthesize,
)

EPOCH_SIZES = (50, 200, 800, 1600)

#: The curve is the engine's: a ``REPRO_BACKEND`` in the environment
#: must not swap the oracle in.
ENGINE = AuditConfig(backend="hybrid")

#: workload -> per epoch size: (work_ratio, mean group size), rounded
#: to six places.
CURVE = {
    "wiki": ((6.402791, 10.738255), (9.735456, 25.396825),
             (12.48863, 64.0), (13.407213, 100.0)),
    "cart": ((1.782253, 4.347826), (2.170174, 11.678832),
             (2.374796, 32.0), (2.422136, 53.333333)),
    "hotcrp": ((2.553256, 5.095541), (3.493513, 12.121212),
               (3.759493, 19.753086), (3.829645, 22.857143)),
}


def _point(tmp_path, workload: str, epoch_size: int) -> tuple:
    spec = ScenarioSpec(workload=workload, requests=1600, scale=0.05,
                        seed=0, epoch_size=epoch_size)
    path = str(tmp_path / f"{workload}-{epoch_size}.jsonl")
    synthesize(spec, path)
    app = build_scenario_app(workload, spec.scale)
    with BundleReader.open(path) as reader:
        result = Auditor(app, ENGINE).audit_stream(reader)
    assert result.accepted, (result.reason, result.detail)
    stats = result.stats
    # Honest traffic that never errors: every request ran in a group.
    assert stats["grouped_requests"] == spec.requests
    assert stats["fallback_requests"] == 0
    return (round(stats["work_ratio"], 6),
            round(stats["grouped_requests"] / stats["groups"], 6))


@pytest.mark.parametrize("workload", sorted(CURVE))
def test_work_ratio_grows_with_the_epoch(tmp_path, workload):
    curve = tuple(_point(tmp_path, workload, size) for size in EPOCH_SIZES)
    assert curve == CURVE[workload]
    ratios = [ratio for ratio, _ in curve]
    sizes = [size for _, size in curve]
    assert ratios == sorted(ratios), ratios
    assert sizes == sorted(sizes), sizes
