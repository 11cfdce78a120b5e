"""Adversarial executors: tamper operators for soundness testing (§2, §3.4).

Each operator takes an honest execution's trace/reports and produces a
corrupted variant, modeling a misbehaving executor that is trying to pass
the audit.  The soundness tests assert that the verifier rejects every one
of them (or, where the corruption is externally indistinguishable from a
valid execution, that it accepts — the paper's Soundness definition demands
nothing stronger).

All operators copy their inputs; the honest artifacts are never mutated.
"""

from __future__ import annotations


from repro.objects.base import OpRecord, OpType
from repro.server.reports import NondetRecord, Reports
from repro.trace.events import Event, EventKind, Response
from repro.trace.trace import Trace


def tamper_response(trace: Trace, rid: str, new_body: str) -> Trace:
    """Deliver a different response body for ``rid`` (the basic attack:
    spurious output with unchanged reports)."""
    events = []
    for event in trace:
        if event.is_response and event.rid == rid:
            old: Response = event.payload
            events.append(
                Event(
                    EventKind.RESPONSE,
                    rid,
                    Response(rid, new_body, old.status, old.abort_info),
                    event.time,
                )
            )
        else:
            events.append(event)
    return Trace(events)


def drop_log_entry(reports: Reports, obj: str, position: int) -> Reports:
    """Remove one operation from an object log (hides a write/read)."""
    tampered = reports.deep_copy()
    log = tampered.op_logs[obj]
    del log[position]
    return tampered


def insert_log_entry(
    reports: Reports, obj: str, position: int, record: OpRecord
) -> Reports:
    """Insert a fabricated operation into an object log."""
    tampered = reports.deep_copy()
    tampered.op_logs.setdefault(obj, []).insert(position, record)
    return tampered


def swap_log_entries(
    reports: Reports, obj: str, first: int, second: int
) -> Reports:
    """Reorder two operations within an object log."""
    tampered = reports.deep_copy()
    log = tampered.op_logs[obj]
    log[first], log[second] = log[second], log[first]
    return tampered


def rewrite_log_entry(
    reports: Reports,
    obj: str,
    position: int,
    opcontents: tuple | None = None,
    optype: OpType | None = None,
    rid: str | None = None,
    opnum: int | None = None,
) -> Reports:
    """Alter fields of one log entry (e.g. the value of a logged write)."""
    tampered = reports.deep_copy()
    log = tampered.op_logs[obj]
    old = log[position]
    log[position] = OpRecord(
        rid if rid is not None else old.rid,
        opnum if opnum is not None else old.opnum,
        optype if optype is not None else old.optype,
        opcontents if opcontents is not None else old.opcontents,
    )
    return tampered


def tamper_op_count(reports: Reports, rid: str, delta: int) -> Reports:
    """Misreport M(rid)."""
    tampered = reports.deep_copy()
    tampered.op_counts[rid] = tampered.op_counts.get(rid, 0) + delta
    return tampered


def move_to_group(reports: Reports, rid: str, target_tag: str) -> Reports:
    """Claim ``rid`` has a different control flow."""
    tampered = reports.deep_copy()
    for tag in list(tampered.groups):
        if rid in tampered.groups[tag]:
            tampered.groups[tag] = [
                r for r in tampered.groups[tag] if r != rid
            ]
            if not tampered.groups[tag]:
                del tampered.groups[tag]
    tampered.groups.setdefault(target_tag, []).append(rid)
    return tampered


def drop_from_groups(reports: Reports, rid: str) -> Reports:
    """Omit ``rid`` from the groupings entirely (incomplete map, §3.1)."""
    tampered = reports.deep_copy()
    for tag in list(tampered.groups):
        if rid in tampered.groups[tag]:
            tampered.groups[tag] = [
                r for r in tampered.groups[tag] if r != rid
            ]
            if not tampered.groups[tag]:
                del tampered.groups[tag]
    return tampered


def duplicate_in_group(reports: Reports, rid: str) -> Reports:
    """List ``rid`` twice in its group (the verifier must tolerate or
    filter duplicates; §3.1: re-execution is idempotent)."""
    tampered = reports.deep_copy()
    for tag in tampered.groups:
        if rid in tampered.groups[tag]:
            tampered.groups[tag].append(rid)
            break
    return tampered


def tamper_nondet_value(
    reports: Reports, rid: str, index: int, value: object
) -> Reports:
    """Rewrite one recorded non-deterministic value."""
    tampered = reports.deep_copy()
    records = tampered.nondet[rid]
    old = records[index]
    records[index] = NondetRecord(old.func, old.args, value)
    return tampered


def drop_nondet_record(reports: Reports, rid: str, index: int) -> Reports:
    tampered = reports.deep_copy()
    del tampered.nondet[rid][index]
    return tampered


def tamper_transaction_flag(
    reports: Reports, obj: str, position: int, succeeded: bool
) -> Reports:
    """Flip a DB transaction's commit/abort flag (§4.6 discretion abuse)."""
    tampered = reports.deep_copy()
    log = tampered.op_logs[obj]
    old = log[position]
    queries, _ = old.opcontents
    log[position] = OpRecord(
        old.rid, old.opnum, old.optype, (queries, succeeded)
    )
    return tampered
