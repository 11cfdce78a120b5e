"""Patch-based auditing (§7; the Poirot [53] use case).

"Here, one replays prior requests against patched code to see if the
responses are now different."  Given an accepted trace from the *original*
application, :func:`patch_audit` re-executes every request against a
*patched* application and classifies each request:

* ``unchanged`` — the patched code produces the same response;
* ``changed`` — the patched code produces a different response (these are
  the requests the operator must review: e.g., users who saw the
  pre-patch, vulnerable behaviour);
* ``incomparable`` — the patched code's interaction with shared objects
  diverges from the logged one, so its reads cannot be fed from this
  epoch's logs (Poirot handles this with query templates; we report it).

Mechanics: re-execution uses a *lenient* operation handler.  Reads are
still fed by position from the logs/versioned stores, but mismatching
write operands do not reject — the patch is allowed to write different
values; what matters is where its reads land.  A patched request that
issues a different *sequence* of operations (extra, missing, or
retargeted ops) is incomparable.

This supports the common patch shape — rendering/logic changes that
preserve the state-operation sequence — and degrades explicitly
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import AuditReject, RejectReason
from repro.core.ooo import execute_one
from repro.core.process_reports import process_op_reports
from repro.core.simulate import OpHandler, SimContext
from repro.objects.base import OpType
from repro.server.app import Application, InitialState
from repro.server.reports import Reports
from repro.trace.trace import Trace, check_balanced


class _LenientOpHandler(OpHandler):
    """CheckOp that tolerates different write *operands* (not different
    operation sequences)."""

    def __init__(self, ctx: SimContext, rid: str):
        super().__init__(ctx, rid)
        self.comparable = True

    def handle(self, kind: str, obj: str, args: tuple) -> object:
        try:
            return super().handle(kind, obj, args)
        except AuditReject as reject:
            if reject.reason is not RejectReason.OP_MISMATCH:
                raise
            return self._lenient(kind, obj, args, reject)

    def _lenient(self, kind: str, obj: str, args: tuple,
                 reject: AuditReject) -> object:
        """Resolve an operand mismatch: writes pass through; anything
        structural marks the request incomparable."""
        from repro.sql.ast import Select
        from repro.sql.parser import parse_sql
        from repro.sql.versioned import MAXQ

        if kind in ("register_write", "kv_set"):
            # The opnum was already consumed by the failed super().handle.
            obj_hat, _, record = self.ctx.lookup_op(self.rid, self.opnum)
            expected = {
                "register_write": OpType.REGISTER_WRITE,
                "kv_set": OpType.KV_SET,
            }[kind]
            if obj_hat == obj and record.optype is expected:
                return None  # same op, different operand: a patch effect
            raise _Incomparable()
        if kind == "db_statement":
            if self.tx is not None:
                tx = self.tx
                if tx.q >= len(tx.queries) - 1:
                    raise _Incomparable()
                logged_sql = tx.queries[tx.q]
                ts = tx.seq * MAXQ + tx.q + 1

                def advance():
                    tx.q += 1
            else:
                # Auto-commit: super().handle already bumped opnum.
                obj_hat, seq, record = self.ctx.lookup_op(
                    self.rid, self.opnum
                )
                if obj_hat != obj or record.optype is not OpType.DB_OP:
                    raise _Incomparable()
                queries, _succeeded = record.opcontents
                if len(queries) != 1:
                    raise _Incomparable()
                logged_sql = queries[0]
                ts = seq * MAXQ + 1

                def advance():
                    pass
            try:
                patched_is_read = isinstance(parse_sql(args[0]), Select)
                logged_is_read = isinstance(parse_sql(logged_sql), Select)
            except Exception:
                raise _Incomparable() from None
            if patched_is_read or logged_is_read:
                # A read moved or changed: its value cannot be derived
                # from this epoch's logs (Poirot uses templates here).
                raise _Incomparable()
            advance()
            return self.ctx.db_write_result(obj, ts)
        raise _Incomparable()


class _Incomparable(Exception):
    pass


@dataclass
class PatchAuditResult:
    """Outcome of re-auditing a trace against patched code (§7)."""

    accepted_original: bool
    unchanged: list[str] = field(default_factory=list)
    changed: dict[str, tuple[str | None, str | None]] = field(
        default_factory=dict
    )  # rid -> (original body, patched body)
    incomparable: list[str] = field(default_factory=list)
    reason: RejectReason | None = None
    detail: str = ""


def patch_audit(
    original: Application,
    patched: Application,
    trace: Trace,
    reports: Reports,
    initial_state: InitialState,
) -> PatchAuditResult:
    """Replay the audited epoch against ``patched`` and report which
    responses change.

    The trace+reports must first pass the ordinary audit against
    ``original`` (a corrupt epoch cannot be patch-audited); we run the
    per-request audit for that, reusing its context for the replay.
    """
    result = PatchAuditResult(accepted_original=False)
    try:
        check_balanced(trace)
        _, opmap = process_op_reports(trace, reports)
        ctx = SimContext(original, reports, opmap, initial_state)
        ctx.build_versioned_stores()
        requests = trace.requests()
        originals: dict[str, str] = {}
        for rid in trace.request_ids():
            originals[rid] = execute_one(original, requests[rid], ctx)
            observed = trace.responses()[rid]
            if observed.abort_info is None and \
                    originals[rid] != observed.body:
                raise AuditReject(
                    RejectReason.OUTPUT_MISMATCH,
                    f"request {rid}: the epoch fails the original audit",
                )
        result.accepted_original = True
    except AuditReject as reject:
        result.reason = reject.reason
        result.detail = reject.detail
        return result

    patched_ctx = SimContext(patched, reports, opmap, initial_state)
    patched_ctx.build_versioned_stores()
    for rid in trace.request_ids():
        try:
            body = execute_one(patched, requests[rid], patched_ctx,
                               handler=_LenientOpHandler)
        except (_Incomparable, AuditReject):
            result.incomparable.append(rid)
            continue
        if body == originals[rid]:
            result.unchanged.append(rid)
        else:
            result.changed[rid] = (originals[rid], body)
    return result
