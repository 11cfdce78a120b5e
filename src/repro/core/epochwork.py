"""The epoch work unit: one encoding shared by every epoch driver.

An **epoch work unit** is the pickled tuple ``(app, trace slice,
reports slice, initial state, config)`` — exactly the prepass
artifacts the redo-only state precompute materializes per epoch
(``docs/epoch_workers.md`` documents the payload format).  Its
**outcome** is a plain :class:`~repro.core.pipeline.AuditResult`: a
rejection is a *result* carrying whatever stats the pipeline
accumulated before failing (the same partial-stats discipline as
``reexec._worker_run_chunk``), never an exception — so a verdict
produced on another host merges bit-identically to one produced in a
local worker process.

Three executors consume this unit:

* the serial fallback (:func:`run_epoch_inline`, in the calling
  thread);
* the persistent per-run :class:`~repro.core.epochpool.EpochPool`
  (:func:`run_work_unit` in a pool worker process);
* the distributed fleet (:mod:`repro.fleet`), which ships the same
  pickled payload inside ``WORK`` frames and the same pickled
  :class:`AuditResult` back inside ``RESULT`` frames
  (:func:`encode_work_frame` / :func:`encode_result_frame` below —
  base64 wraps the pickle because the frame payloads are JSON).

Keeping the encode/decode here — instead of inside any one driver —
is what guarantees the drivers cannot diverge: they run byte-identical
payloads through one entry point.
"""

from __future__ import annotations

import base64
import pickle
from typing import Any

__all__ = [
    "epoch_worker_config",
    "run_epoch_inline",
    "encode_work_unit",
    "decode_work_unit",
    "run_work_unit",
    "encode_work_frame",
    "decode_work_frame",
    "encode_result_frame",
    "encode_error_frame",
    "decode_result_frame",
]


def epoch_worker_config(config):
    """The knob set one epoch work unit runs under.

    The serial chain's per-epoch config with the same ``workers``
    count — the chunk *plan* must match the serial
    chain's bit for bit (:func:`run_epoch_inline` executes that plan
    serially inside the worker process instead of fanning out a nested
    pool).  ``migrate`` is off: the chain state is produced by the
    parent's redo-only prepass, so a worker-side §4.5 compaction would
    be built only to be thrown away.  MigratePhase never rejects and
    emits no stats (it still appears as a zero-cost phase timer), so
    disabling it cannot change verdicts, bodies, or deterministic
    stats.  The fleet knobs are cleared for the same reason
    ``epoch_workers`` is: a worker must never recursively open its own
    pool or fleet.
    """
    return config.replace(
        epoch_workers=1,
        migrate=False,
        fleet_listen=None,
        fleet_min_workers=0,
        fleet_redundancy=1,
    )


def run_epoch_inline(app, trace, reports, initial_state, config):
    """One full pipeline pass over an epoch slice, in this process.

    The worker-side entry points (process pool and fleet daemon) and
    the serial fallback all run through here, so the paths cannot
    diverge.  The ``workers``-shaped chunk plan is executed serially
    in-process, never through a nested re-exec pool: epoch-level
    parallelism already owns the cores.  ``next_initial`` is dropped:
    the drivers chain state through the redo-only prepass, and a
    migrated store has no business crossing the process boundary.
    """
    from repro.core.pipeline import AuditContext, default_pipeline

    actx = AuditContext(app, trace, reports, initial_state, config)
    actx.reexec_inline = True
    result = default_pipeline().run(actx)
    result.next_initial = None
    return result


# -- pickle payload ------------------------------------------------------------


def encode_work_unit(app, trace, reports, initial_state, config) -> bytes:
    """Pickle one epoch work unit.  Raises the pickle family of errors
    for unpicklable inputs — the caller decides whether that degrades
    to an inline run (it always should)."""
    return pickle.dumps((app, trace, reports, initial_state, config))


def decode_work_unit(payload: bytes):
    """The inverse of :func:`encode_work_unit`."""
    return pickle.loads(payload)


def run_work_unit(payload: bytes):
    """Executor entry point: decode one epoch work unit and audit it.
    Raises only on genuine crashes (a rejection is a result, never an
    exception — the pipeline converts :class:`AuditReject`)."""
    app, trace, reports, initial_state, config = decode_work_unit(payload)
    return run_epoch_inline(app, trace, reports, initial_state, config)


# -- fleet wire payloads (JSON frame bodies over repro.net) --------------------


def encode_work_frame(epoch: int, payload: bytes) -> dict:
    """``WORK`` frame body: the epoch's feed-order index plus the
    byte-identical pickled work unit, base64-wrapped for JSON."""
    return {
        "epoch": int(epoch),
        "unit": base64.b64encode(payload).decode("ascii"),
    }


def decode_work_frame(obj: Any) -> tuple[int, bytes]:
    """Validate and unpack a ``WORK`` frame body."""
    if not isinstance(obj, dict):
        raise ValueError(f"WORK body must be an object, got {type(obj).__name__}")
    epoch = obj.get("epoch")
    unit = obj.get("unit")
    if not isinstance(epoch, int) or not isinstance(unit, str):
        raise ValueError("WORK body needs integer 'epoch' and base64 'unit'")
    try:
        payload = base64.b64decode(unit.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise ValueError(f"WORK unit is not valid base64: {exc}") from exc
    return epoch, payload


def encode_result_frame(epoch: int, result) -> dict:
    """``RESULT`` frame body for a completed epoch: the pickled
    :class:`AuditResult` verbatim.  REJECT verdicts travel this path
    too — the pickle carries the partial stats the pipeline accumulated
    before rejecting, so a remote REJECT merges with the same stats as
    a local one."""
    return {
        "epoch": int(epoch),
        "ok": True,
        "result": base64.b64encode(pickle.dumps(result)).decode("ascii"),
    }


def encode_error_frame(epoch: int, error: str) -> dict:
    """``RESULT`` frame body for an epoch the worker could not execute
    (a crash, not a verdict).  The coordinator treats this as an
    infrastructure failure and re-runs the epoch itself."""
    return {"epoch": int(epoch), "ok": False, "error": str(error)}


def decode_result_frame(obj: Any) -> tuple[int, bool, Any, str | None]:
    """Validate and unpack a ``RESULT`` body.

    Returns ``(epoch, ok, result, error)`` — ``result`` is the
    unpickled :class:`AuditResult` when ``ok``, else ``None`` with
    ``error`` set.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"RESULT body must be an object, got {type(obj).__name__}")
    epoch = obj.get("epoch")
    if not isinstance(epoch, int):
        raise ValueError("RESULT body needs an integer 'epoch'")
    if not obj.get("ok"):
        error = obj.get("error")
        return epoch, False, None, str(error) if error is not None else "unknown"
    blob = obj.get("result")
    if not isinstance(blob, str):
        raise ValueError("RESULT body needs a base64 'result' when ok")
    try:
        result = pickle.loads(base64.b64decode(blob.encode("ascii"),
                                               validate=True))
    except Exception as exc:
        raise ValueError(f"RESULT payload is not a pickled result: {exc}") from exc
    return epoch, True, result, None
