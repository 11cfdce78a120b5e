"""N fleet workers on this host: the one local pool.

``local_fleet(n)`` is what ``repro audit`` / ``repro demo
--epoch-workers N`` build: a :class:`FleetCoordinator` on
``127.0.0.1:0`` (or the one it is given, e.g. the ``--fleet-listen``
coordinator remote hosts join too) and ``n`` ``python -m repro worker
--join`` processes that register with it.  Local and remote epochs
therefore take one dispatch path and one failure policy
(``docs/fleet.md``): a lost worker's epoch is re-dispatched, and with no
worker left the coordinator runs it itself.  The parent never forks: a
worker is a fresh interpreter that is handed bytes over a socket.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys

from repro.common.clock import Deadline
from repro.fleet.coordinator import FleetCoordinator

__all__ = ["local_fleet"]

#: How long entering :func:`local_fleet` waits for its workers to join.
ENROLL_TIMEOUT = 60.0


def worker_command(endpoint: str) -> list[str]:
    """The argv of one local worker joining ``endpoint``."""
    return [sys.executable, "-m", "repro", "worker", "--join", endpoint]


@contextlib.contextmanager
def local_fleet(n: int, coordinator: FleetCoordinator | None = None):
    """Start ``n`` local workers against ``coordinator`` (by default a
    new one on ``127.0.0.1:0``, ``width=n``) and yield it once they have
    joined; on exit, close it, which dismisses every worker.

    Enrollment ends when all ``n`` joined or every worker that did not
    has exited: workers that cannot start leave a coordinator with no
    one to dispatch to, which audits each epoch itself (its
    ``serial_fallbacks``) instead of waiting for them.
    """
    if coordinator is None:
        coordinator = FleetCoordinator("127.0.0.1:0", width=n)
    host = "127.0.0.1" if coordinator.host == "0.0.0.0" \
        else coordinator.host
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    joined = coordinator.workers_joined
    procs: list[subprocess.Popen] = []
    try:
        for _ in range(n):
            procs.append(subprocess.Popen(
                worker_command(f"{host}:{coordinator.port}"),
                env=env, stdout=subprocess.DEVNULL))
        deadline = Deadline(ENROLL_TIMEOUT)
        while (coordinator.workers_joined - joined
               + sum(proc.poll() is not None for proc in procs) < n
               and not deadline.expired()):
            deadline.sleep(0.01)
        yield coordinator
    finally:
        coordinator.close()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
