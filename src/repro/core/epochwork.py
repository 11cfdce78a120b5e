"""The epoch work unit: one encoding shared by every epoch executor.

An **epoch work unit** is the pickled tuple ``(app, trace slice,
reports slice, initial state, config)`` — exactly the prepass
artifacts the redo-only state precompute materializes per epoch
(``docs/epoch_workers.md`` documents the payload format).  Its
**outcome** is a plain :class:`~repro.core.pipeline.AuditResult`: a
rejection is a *result* carrying whatever stats the pipeline
accumulated before failing, never an exception — so a verdict
produced on another host merges bit-identically to one produced in a
local worker process.

The feeding thread encodes the unit where the prepass builds it
(:func:`encode_work_unit`), so an executor is handed bytes and only
ever moves bytes.  Whoever runs them — a worker process of the per-run
:class:`~repro.core.epochpool.EpochPool`, a fleet worker daemon that
received them in a ``WORK`` frame (:func:`encode_work_frame` /
:func:`encode_result_frame` below — base64 wraps the pickles because
frame payloads are JSON), or the thread that found no worker to send
them to — runs them through :func:`run_work_unit`, which is what
guarantees the executors cannot diverge.
"""

from __future__ import annotations

import base64
import pickle
from typing import Any

__all__ = [
    "UNPICKLABLE",
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

    The serial chain's per-epoch config, so the chunk plan matches the
    serial chain's bit for bit.  ``migrate`` is off: the chain state is
    produced by the parent's redo-only prepass, so a worker-side §4.5
    compaction would be built only to be thrown away.  MigratePhase never rejects and
    emits no stats (it still appears as a zero-cost phase timer), so
    disabling it cannot change verdicts, bodies, or deterministic
    stats.  ``epoch_workers`` is cleared so a session opened inside a
    worker would never open a pool of its own.
    """
    return config.replace(epoch_workers=1, migrate=False)


def run_epoch_inline(app, trace, reports, initial_state, config):
    """One full pipeline pass over an epoch slice, in this process.

    Every worker-side entry point, the inline fallback and the feeder's
    own audit of a unit that will not pickle run through here, so the
    paths cannot diverge.  ``next_initial`` is dropped: the drivers
    chain state through the redo-only prepass, and a migrated store has
    no business crossing the process boundary.
    """
    from repro.core.pipeline import AuditContext, default_pipeline

    result = default_pipeline().run(
        AuditContext(app, trace, reports, initial_state, config))
    result.next_initial = None
    return result


# -- pickle payload ------------------------------------------------------------

#: What :func:`encode_work_unit` raises for a unit that will not pickle
#: (an app built around a lambda, say); the feeder audits such an epoch
#: itself, through :func:`run_epoch_inline`.
UNPICKLABLE = (pickle.PickleError, TypeError, AttributeError)


def encode_work_unit(app, trace, reports, initial_state, config) -> bytes:
    """Pickle one epoch work unit; raises one of :data:`UNPICKLABLE`
    for inputs that will not pickle."""
    return pickle.dumps((app, trace, reports, initial_state, config))


def decode_work_unit(payload: bytes):
    """The inverse of :func:`encode_work_unit`."""
    return pickle.loads(payload)


def run_work_unit(payload: bytes):
    """Every executor's entry point, and its inline fallback: decode
    one epoch work unit and audit it.  Raises only on genuine crashes
    (a rejection is a result, never an exception — the pipeline
    converts :class:`AuditReject`)."""
    app, trace, reports, initial_state, config = decode_work_unit(payload)
    return run_epoch_inline(app, trace, reports, initial_state, config)


# -- fleet wire payloads (the JSON bodies of WORK / RESULT frames) -------------


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
