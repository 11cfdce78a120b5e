"""Fixtures for the forensics tests: a hand-built KV chain app whose
read lineage is known by construction, plus timeline helpers."""

from __future__ import annotations

import pytest

from repro.core.config import AuditConfig
from repro.forensics import Timeline
from repro.server import Application, Executor
from repro.trace.events import Request

# Each script's data flow is explicit, so a request's lineage closure
# can be asserted exactly: write → copy (read+write) → read.
CHAIN_SRC = {
    "write.php": """
kv_set(param('k'), param('v'));
echo 'ok:', param('k');
""",
    "copy.php": """
$v = kv_get(param('src'));
kv_set(param('dst'), $v);
echo 'copied:', $v;
""",
    "read.php": """
echo 'val:', kv_get(param('k'));
""",
    "bump.php": """
$v = kv_get('ctr');
if (is_null($v)) { $v = 0; }
kv_set('ctr', $v + 1);
echo 'ctr:', $v + 1;
""",
}


@pytest.fixture
def chain_app() -> Application:
    return Application.from_sources("chain", CHAIN_SRC)


def chain_requests():
    """A: writes k1.  D: writes k9 (unrelated).  B: copies k1 -> k2.
    C: reads k2.  Ground-truth closure(C) = {B, A}."""
    return [
        Request("A", "write.php", get={"k": "k1", "v": "v1"}),
        Request("D", "write.php", get={"k": "k9", "v": "zzz"}),
        Request("B", "copy.php", get={"src": "k1", "dst": "k2"}),
        Request("C", "read.php", get={"k": "k2"}),
    ]


def serve(app, requests, epoch_size: int = 0):
    """Serial, in-order execution (FIFO, one in flight) so the lineage
    ground truth is deterministic and epoch cuts can actually fire."""
    return Executor(
        app, max_concurrency=1, epoch_size=epoch_size
    ).serve(requests)


def make_timeline(app, run, **knobs) -> Timeline:
    return Timeline.from_epochs(app, run.epochs(), run.initial_state,
                                AuditConfig(**knobs))
