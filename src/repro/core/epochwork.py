"""The epoch work unit: one encoding shared by every epoch executor.

An **epoch work unit** is one epoch in the bundle's own records plus
what it is audited under, as JSON (``docs/epoch_workers.md``)::

    {"app": {"name": ..., "sources": {script: text}, "db_setup": ...},
     "config": AuditConfig.to_json(),
     "records": [state record, event records..., report records...]}

— the records of a one-epoch bundle, so the
:class:`~repro.io.EpochAccumulator` that reads files and sockets decodes
it too.  Its **outcome** is :meth:`AuditResult.to_json
<repro.core.pipeline.AuditResult.to_json>`, the ``repro audit --json``
verdict object plus the produced bodies, read back by the type-checking
:meth:`~repro.core.pipeline.AuditResult.from_json`: what another
process or host sends back is data, never code.  A rejection is a
result carrying the stats the pipeline accumulated before failing.

The feeding thread encodes the unit (:func:`encode_work_unit`), so a
pool only ever moves bytes.  A fleet worker that received them in a
``WORK`` frame and the coordinator thread that found no worker
(:func:`run_work_unit`) both decode them with :func:`decode_work_unit`
and audit them with :func:`run_epoch_inline`, so the two cannot
diverge.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.core.config import AuditConfig
from repro.core.pipeline import AuditContext, AuditResult, default_pipeline
from repro.io import (
    EpochAccumulator,
    event_record,
    iter_report_records,
    state_record,
)
from repro.server.app import Application


def epoch_worker_config(config):
    """The knob set one epoch work unit runs under: the serial chain's
    per-epoch config (so the chunk plan matches bit for bit) without
    ``migrate`` — the parent's redo-only prepass chains the state, and
    MigratePhase never rejects nor emits stats."""
    return config.replace(migrate=False)


def run_epoch_inline(app, trace, reports, initial_state, config):
    """One full pipeline pass over an epoch slice, in this process.
    ``next_initial`` is dropped: the drivers chain state through the
    redo-only prepass, and a migrated store does not cross the process
    boundary."""
    result = default_pipeline().run(
        AuditContext(app, trace, reports, initial_state, config))
    result.next_initial = None
    return result


def encode_work_unit(app, trace, reports, initial_state, config) -> bytes:
    """One epoch work unit, as the bytes a pool or a fleet is handed."""
    records = [state_record(initial_state)]
    records.extend(map(event_record, trace))
    records.extend(iter_report_records(reports))
    return json.dumps({
        "app": {"name": app.name, "sources": app.sources,
                "db_setup": app.db_setup},
        "config": config.to_json(),
        "records": records,
    }, separators=(",", ":")).encode()


#: ``(SHA-256 of the app's JSON, the Application parsed from it)``: one
#: program per process, so the compile caches (keyed by its parsed
#: scripts) last across the epochs a worker audits.
_APP: tuple[str, Application] | None = None


def _application(spec: object) -> Application:
    global _APP
    if (type(spec) is not dict
            or spec.keys() != {"name", "sources", "db_setup"}
            or type(spec["sources"]) is not dict
            or not all(type(text) is str for text in (
                spec["name"], spec["db_setup"], *spec["sources"].values()))):
        raise ValueError("work unit 'app' is not an app's sources")
    digest = hashlib.sha256(
        json.dumps(spec, sort_keys=True).encode()).hexdigest()
    cached = _APP
    if cached is None or cached[0] != digest:
        cached = _APP = (digest, Application.from_sources(
            spec["name"], spec["sources"], spec["db_setup"]))
    return cached[1]


def decode_work_unit(unit: Any):
    """``(app, trace, reports, initial_state, config)`` from a parsed
    unit; a :class:`ValueError` (for a record,
    :class:`~repro.common.errors.MalformedBundle`) on anything that is
    not one epoch."""
    if (type(unit) is not dict
            or unit.keys() != {"app", "config", "records"}
            or type(unit["records"]) is not list):
        raise ValueError("a work unit is an object of 'app', 'config' "
                         "and a list of 'records'")
    accumulator = EpochAccumulator()
    for record in unit["records"]:
        if accumulator.feed(record) is not None:
            raise ValueError("a work unit holds one epoch")
    if accumulator.initial_state is None:
        raise ValueError("work unit has no state record")
    return (_application(unit["app"]), accumulator.trace,
            accumulator.reports, accumulator.initial_state,
            AuditConfig.from_json(unit["config"]))


def run_work_unit(payload: bytes):
    """Decode one encoded unit and audit it here (a pool's fallback).
    Raises only on genuine crashes: a rejection is a result."""
    return run_epoch_inline(*decode_work_unit(json.loads(payload)))


# -- fleet wire payloads (the JSON bodies of WORK / RESULT frames) -------------


def encode_work_frame(epoch: int, payload: bytes) -> bytes:
    """``WORK`` frame body: the epoch's feed-order index and the work
    unit, its bytes spliced in unparsed."""
    return b'{"epoch":%d,"unit":%s}' % (epoch, payload)


def decode_work_frame(obj: Any) -> tuple[int, dict]:
    """Validate and unpack a ``WORK`` frame body (the unit parsed)."""
    if (type(obj) is not dict or type(obj.get("epoch")) is not int
            or type(obj.get("unit")) is not dict):
        raise ValueError("WORK body needs an integer 'epoch' and an "
                         "object 'unit'")
    return obj["epoch"], obj["unit"]


def encode_result_frame(epoch: int, result) -> dict:
    """``RESULT`` frame body for an epoch audited to a verdict, REJECT
    (with its partial stats) included."""
    return {"epoch": int(epoch), "ok": True, "result": result.to_json()}


def encode_error_frame(epoch: int, error: str) -> dict:
    """``RESULT`` frame body for an epoch the worker could not execute:
    a crash, not a verdict; the coordinator re-runs the epoch itself."""
    return {"epoch": int(epoch), "ok": False, "error": str(error)}


def decode_result_frame(obj: Any) -> tuple[int, bool, Any, str | None]:
    """``(epoch, ok, result, error)`` from a ``RESULT`` body — the
    decoded :class:`AuditResult` when ``ok``, else ``error``.  A body
    that does not decode is a :class:`ValueError`."""
    if type(obj) is not dict or type(obj.get("epoch")) is not int:
        raise ValueError("RESULT body needs an integer 'epoch'")
    if not obj.get("ok"):
        error = obj.get("error")
        return obj["epoch"], False, None, (
            "unknown" if error is None else str(error))
    return obj["epoch"], True, AuditResult.from_json(obj.get("result")), None
