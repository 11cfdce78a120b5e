"""The untrusted reports (Sections 3, 4.6).

``Reports`` carries the four report types the executor maintains for the
audit.  Everything here is *data the verifier must not trust*: the audit
algorithms validate it; the tamper operators in
:mod:`repro.server.faulty` corrupt it for the soundness tests.

Sizes: :meth:`Reports.size_bytes` approximates the compressed-report
accounting of Figure 8 (we report raw structure sizes; the paper's
compression constant does not change the ratios' shape).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.objects.base import OpRecord
from repro.trace.trace import Trace


@dataclass(frozen=True)
class NondetRecord:
    """One recorded non-deterministic built-in invocation (§4.6)."""

    func: str
    args: tuple
    value: object

    def size_bytes(self) -> int:
        return len(self.func) + 2 + len(str(self.args)) + len(str(self.value))


@dataclass
class Reports:
    """All four report types, as delivered by the executor."""

    #: C: control-flow tag -> requestIDs (§3.1).
    groups: dict[str, list[str]] = field(default_factory=dict)
    #: OL_i: object name -> operation log (§3.3).
    op_logs: dict[str, list[OpRecord]] = field(default_factory=dict)
    #: M: requestID -> total op count (§3.3).
    op_counts: dict[str, int] = field(default_factory=dict)
    #: rid -> recorded non-deterministic values, in call order (§4.6).
    nondet: dict[str, list[NondetRecord]] = field(default_factory=dict)

    def deep_copy(self) -> Reports:
        """Independent copy (tamper tests mutate copies)."""
        return Reports(
            {tag: list(rids) for tag, rids in self.groups.items()},
            {name: list(log) for name, log in self.op_logs.items()},
            dict(self.op_counts),
            {rid: list(records) for rid, records in self.nondet.items()},
        )

    # -- accounting -------------------------------------------------------

    def op_count_total(self) -> int:
        return sum(len(log) for log in self.op_logs.values())

    def size_bytes(self) -> dict[str, int]:
        """Per-component approximate sizes in bytes."""
        groups_size = sum(
            16 + sum(len(rid) for rid in rids)
            for rids in self.groups.values()
        )
        logs_size = sum(
            sum(record.size_bytes() for record in log)
            for log in self.op_logs.values()
        )
        counts_size = sum(len(rid) + 4 for rid in self.op_counts)
        nondet_size = sum(
            sum(record.size_bytes() for record in records)
            for records in self.nondet.values()
        )
        return {
            "groups": groups_size,
            "op_logs": logs_size,
            "op_counts": counts_size,
            "nondet": nondet_size,
        }

    def total_size_bytes(self) -> int:
        return sum(self.size_bytes().values())

    def baseline_size_bytes(self) -> int:
        """Report bytes a non-accelerated record-replay baseline would need
        (§5.1): just the non-determinism records."""
        return self.size_bytes()["nondet"]


@dataclass
class EpochSlice:
    """One epoch's worth of audit inputs: the trace between two of the
    recorder's quiescent cuts and the reports of its requests.  The one
    slice type — :meth:`ExecutionResult.epochs()
    <repro.server.executor.ExecutionResult.epochs>` (memory),
    :meth:`BundleReader.epochs() <repro.io.BundleReader.epochs>` (file)
    and :meth:`RemoteBundleReader.epochs()
    <repro.net.RemoteBundleReader.epochs>` (socket) all yield it."""

    index: int
    trace: Trace
    reports: Reports

    @property
    def request_count(self) -> int:
        return len(self.trace.request_ids())
