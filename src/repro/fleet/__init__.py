"""repro.fleet: one coordinator fanning epochs out to remote workers.

The paper's deployment model is an auditor re-executing a busy
server's trace far from the machine that recorded it; at production
scale that auditor is itself a fleet.  This package connects the two
seams built for exactly this moment:

* the **epoch work unit** already crosses process boundaries by value
  (:mod:`repro.core.epochwork`: one epoch in the bundle's records in,
  the ``repro audit --json`` verdict object out, type-checked — REJECTs
  included, with the partial stats the pipeline accumulated);
* the **wire** already does framing, capability negotiation, and
  heartbeats (:mod:`repro.net.protocol`; the fleet adds the ``WORK`` /
  ``RESULT`` / ``WORKER_HELLO`` / ``WORKER_BYE`` kinds behind
  ``FLAG_FLEET``).

:class:`~repro.fleet.coordinator.FleetCoordinator` implements the
:class:`~repro.core.epochpool.EpochPool` executor contract
(``width`` / ``run(payload)`` / ``serial_fallbacks`` / ``close``) and
is handed to the epoch driver by its caller (``Auditor.session(state,
pool=coordinator)``; ``repro audit --fleet-listen`` does), so
``AuditSession`` keeps strict feed-order merging, prepass
backpressure, and REJECT-drain semantics unchanged; only *where* an
epoch executes moves.  :class:`~repro.fleet.worker.FleetWorker` is the daemon side:
``repro worker --join HOST:PORT`` registers, pulls epochs, runs them
through the stock pipeline with any registered backend, and streams
verdicts back.

Failure policy (``docs/fleet.md`` has the full matrix): heartbeat
miss, task deadline, disconnect, or a worker-side crash re-dispatches
the epoch to the next idle worker, and local serial execution is the
fleet's last-resort worker — infrastructure failures are never
verdicts, and the final merged verdict is bit-identical to a
single-host run.
"""

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.worker import FleetWorker

__all__ = ["FleetCoordinator", "FleetWorker"]
