"""repro.fleet: one coordinator fanning epochs out to workers.

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

:class:`~repro.fleet.coordinator.FleetCoordinator` is the one pool an
audit session is handed (``width`` / ``run(payload)`` /
``serial_fallbacks`` / ``close``; ``Auditor.session(state,
pool=coordinator)``), so ``AuditSession`` keeps strict feed-order
merging, prepass backpressure, and REJECT-drain semantics unchanged;
only *where* an epoch executes moves.
:class:`~repro.fleet.worker.FleetWorker` is the daemon side: ``repro
worker --join HOST:PORT`` registers, pulls epochs, runs them through the
stock pipeline, and streams verdicts back.  :func:`local_fleet` starts
N such workers on this host (``--epoch-workers N``); remote hosts join
``--fleet-listen``; both can serve one coordinator.

Failure policy (``docs/fleet.md`` has the full matrix): a heartbeat
miss, task deadline or disconnect re-dispatches the epoch to the next
idle worker; a worker-side crash, or no live worker at all, runs it in
the coordinator's process, the fleet's last-resort worker.
Infrastructure failures are never verdicts, and the final merged
verdict is bit-identical to the serial chain's.
"""

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.local import local_fleet
from repro.fleet.worker import FleetWorker

__all__ = ["FleetCoordinator", "FleetWorker", "local_fleet"]
