"""Process-level epoch execution: one persistent pool per audit run.

With ``epoch_workers > 1`` the epoch driver
(:class:`~repro.core.auditor.AuditSession`) makes the epoch the unit of
process-level work:

* an **epoch work unit** is one epoch in the bundle's records (its
  prepass-migrated state, trace and reports), the app's sources and
  the config, encoded by the thread that feeds the session, so the
  pool is handed ``bytes`` (:mod:`repro.core.epochwork`);
* :class:`EpochPool` owns **one persistent**
  :class:`~concurrent.futures.ProcessPoolExecutor` shared by *all*
  epochs of one audit run.  Each work unit carries everything the
  epoch's full pipeline pass needs, so the pool outlives any
  individual epoch and is created exactly once per run;
* the worker runs the stock pipeline with the serial chain's chunk
  plan and answers with the ``--json`` verdict object, which
  :meth:`run` type-checks back into an
  :class:`~repro.core.pipeline.AuditResult`: verdicts, bodies and
  deterministic stats are bit-identical to the serial chain's.

Failure policy: infrastructure failures are never verdicts.  A worker
killed mid-epoch (``BrokenProcessPool``) breaks the shared executor, so
:meth:`EpochPool.run` *recreates* the pool — generation-guarded,
exactly once per breakage, so concurrently failing epochs do not
thrash — and re-runs its own epoch serially in the calling thread.
Other epochs in flight on the broken pool observe the same
``BrokenProcessPool`` from their futures and take the same fallback:
no epoch's work is ever lost, and later epochs submit to the fresh
pool.  Workers that cannot rebuild the backend (e.g. one registered
only in the parent, under a spawn start method) degrade to the same
serial re-run, and so does an answer that does not decode.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.core.epochwork import answer_work_unit, run_work_unit
from repro.core.pipeline import AuditResult

__all__ = ["EpochPool", "available_cpus", "pools_created_total"]

#: Serializes executor creation and submission across every
#: :class:`EpochPool` of the process.  Worker processes are
#: forked/spawned lazily at submit time; without the lock, two pools
#: driven from different threads (two auditors) could fork mid-way
#: through each other's setup.
_POOL_LOCK = threading.Lock()

#: Pools ever created in this process — test instrumentation: the
#: lifecycle tests assert one audit run creates exactly one pool (plus
#: one per recreation after a worker loss).
_POOLS_CREATED = 0


def pools_created_total() -> int:
    """Process-wide pool creation count (monotonic; for tests)."""
    return _POOLS_CREATED


def available_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class EpochPool:
    """One persistent process pool shared by all epochs of a run.

    What an :class:`~repro.core.auditor.AuditSession` asks of the pool
    it is handed is all here: ``width`` (how many epochs it runs at
    once), :meth:`run`, ``serial_fallbacks`` and :meth:`close`.

    Thread-safe: the epoch driver calls :meth:`run` from several epoch
    threads at once.  The underlying executor is created lazily on
    first use (under the process-wide pool lock, so epoch workers are
    never forked mid-way through another pool's setup) and replaced at
    most once per breakage.
    """

    def __init__(self, width: int):
        self.width = max(1, width)
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._generation = 0
        self._closed = False
        self._disabled = False
        #: Executors this instance created (tests assert 1 per run).
        self.pools_created = 0
        #: Epochs that fell back to a serial in-process re-run.
        self.serial_fallbacks = 0

    # -- pool lifecycle ---------------------------------------------------

    def _ensure_pool(self):
        """The live executor and its generation, creating it if needed.
        Returns ``(None, generation)`` when process pools are unusable
        on this platform (the caller runs the epoch inline)."""
        global _POOLS_CREATED
        with self._lock:
            if self._closed:
                raise RuntimeError("epoch pool is closed")
            if self._pool is None and not self._disabled:
                try:
                    with _POOL_LOCK:
                        self._pool = ProcessPoolExecutor(
                            max_workers=self.width)
                        # Bumped under the *global* lock: two pools
                        # creating executors concurrently must not
                        # lose an increment.
                        self.pools_created += 1
                        _POOLS_CREATED += 1
                except (OSError, ValueError):
                    # No process support at all: every epoch of this
                    # run degrades to the in-thread serial path.
                    self._disabled = True
            return self._pool, self._generation

    def _retire(self, generation: int) -> None:
        """Drop a broken executor so the next epoch gets a fresh one.

        Generation-guarded: when several in-flight epochs observe the
        same ``BrokenProcessPool``, only the first retires it; the rest
        see the bumped generation and leave the replacement alone.
        """
        with self._lock:
            if self._generation != generation or self._pool is None:
                return
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._generation += 1

    def close(self) -> None:
        """Shut the executor down.  Idempotent; callers must have
        drained their in-flight epochs first."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    # -- the epoch work unit ----------------------------------------------

    def run(self, payload: bytes):
        """Audit one encoded epoch work unit on the shared pool; blocks
        for its :class:`AuditResult`.  Never raises on infrastructure
        failure (no process support, worker loss) — those re-run the
        unit serially in the calling thread.
        """
        pool, generation = self._ensure_pool()
        if pool is not None:
            try:
                with _POOL_LOCK:
                    # Workers are forked/spawned lazily at submit time;
                    # serialize that moment against other pools.
                    future = pool.submit(answer_work_unit, payload)
                return AuditResult.from_json(json.loads(future.result()))
            except BrokenProcessPool:
                # A worker died mid-epoch.  Recreate the shared pool
                # for everyone else, then finish *this* epoch serially
                # — infrastructure failures never become verdicts, and
                # other epochs' futures fail over through this same
                # path.
                self._retire(generation)
            except Exception:
                # The worker could not run the payload at all (e.g. a
                # backend registered only in the parent, under spawn),
                # or its answer is not a result.  The serial re-run
                # reproduces any genuine deterministic crash, so real
                # bugs still surface — from the fallback.
                pass
        self.serial_fallbacks += 1
        return run_work_unit(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EpochPool width={self.width} "
                f"created={self.pools_created} "
                f"fallbacks={self.serial_fallbacks}>")
