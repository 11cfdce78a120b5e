"""The four benchmark workloads and how each is served.

Every workload is a stock ``repro.workloads`` factory (or, for
``compute_singleton``, a five-line script) at a fixed size.  The sizes
are the ISSUE-12 starting points times one common ``SIZE_FACTOR``,
chosen so that a whole run fits the driver's time cap with a dozen
audit repetitions; why each workload is here is in README.md and
BENCHMARK.json.

The seed reaches the workload factory, the scheduler and the
non-determinism source; the program under test only ever sees the
generated requests.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

from e2e_refclock import RefClock
from repro.server import Application, ExecutionResult, Executor, NondetSource
from repro.server.scheduler import RandomScheduler
from repro.trace.events import Request
from repro.workloads import cart_workload, hotcrp_workload, wiki_workload
from repro.workloads.wiki import Workload

#: One factor on all four request counts (see the module docstring).
SIZE_FACTOR = 0.6
EPOCH_SIZE = 500
CONCURRENCY = 8
#: CPU seconds of serving between two cuts of the reference clock.
SERVE_SLICE = 0.1

#: A loop whose trip count is request-driven: every distinct ``n`` takes
#: its own control-flow path, so groups degenerate to size 1-4 and raw
#: interpreter speed is all the audit pays for.
COMPUTE_SRC = {
    "compute.php": """
$n = intval(param('n'));
$acc = 0; $i = 0;
while ($i < $n) { $acc = ($acc + $i * 3 + 1) % 9973; $i += 1; }
echo 'acc=', $acc, ' n=', $n;
""",
}


def compute_workload(scale: float, seed: int) -> Workload:
    app = Application.from_sources("compute_singleton", COMPUTE_SRC)
    rng = random.Random(seed)
    requests = [
        Request(f"r{index:06d}", "compute.php",
                get={"n": str(120 + rng.randrange(280))})
        for index in range(max(20, int(1000 * scale)))
    ]
    return Workload(app, requests, "compute_singleton")


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    factory: Callable[..., Workload]
    #: Factory scale before ``SIZE_FACTOR``.
    scale: float
    #: Factory scale of the ``--smoke`` run (at most 200 requests).
    smoke_scale: float
    #: Single-edit tampers the soundness canary must see REJECTED.
    canary_ops: tuple[str, ...] = (
        "flip_response", "flip_op_log", "tamper_state", "drop_event",
    )


SPECS = {
    spec.name: spec
    for spec in (
        WorkloadSpec("wiki_read", wiki_workload,
                     scale=0.25, smoke_scale=0.01),
        WorkloadSpec(
            "hotcrp_query", hotcrp_workload, scale=0.5, smoke_scale=0.012,
            # The app starts from empty tables: nothing in the initial
            # state to tamper with, so doctor an op count in its place.
            canary_ops=("flip_response", "flip_op_log", "tamper_op_count",
                        "drop_event"),
        ),
        WorkloadSpec("cart_write", cart_workload,
                     scale=0.25, smoke_scale=0.0066),
        WorkloadSpec(
            "compute_singleton", compute_workload, scale=1.0, smoke_scale=0.06,
            # No tables and no op log to tamper with: use the report and
            # trace edits that do apply to a stateless script.
            canary_ops=("flip_response", "tamper_op_count",
                        "duplicate_event", "drop_event"),
        ),
    )
}


def build_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    spec = SPECS[name]
    scale = spec.smoke_scale if smoke else spec.scale * SIZE_FACTOR
    return spec.factory(scale=scale, seed=seed)


def epoch_size(smoke: bool) -> int:
    # Smoke bundles are tiny; keep them multi-epoch so the chained and
    # pooled epoch paths still run.
    return 50 if smoke else EPOCH_SIZE


class PacedScheduler(RandomScheduler):
    """The seeded scheduler, cutting ``clock`` every ``SERVE_SLICE`` CPU
    seconds: ``pick`` is the one call the executor makes back into the
    benchmark while it serves.  The picks are ``RandomScheduler``'s."""

    def __init__(self, seed: int, clock: RefClock):
        super().__init__(seed)
        self._clock = clock
        self._picks = 0

    def pick(self, ready):
        self._picks += 1
        # Reading the CPU clock is a system call; one pick in 64 pays it.
        if not self._picks & 63 and self._clock.since_cut() >= SERVE_SLICE:
            self._clock.cut()
        return super().pick(ready)


def serve(workload: Workload, seed: int, record: bool, smoke: bool = False,
          clock: RefClock | None = None) -> ExecutionResult:
    """The product serving path under a seeded scheduler; with ``clock``,
    the scheduler also paces that clock."""
    executor = Executor(
        workload.app,
        scheduler=(RandomScheduler(seed) if clock is None
                   else PacedScheduler(seed, clock)),
        max_concurrency=CONCURRENCY,
        nondet=NondetSource(seed=seed),
        record=record,
        epoch_size=epoch_size(smoke),
    )
    return executor.serve(workload.requests)
