"""ProcessOpReports (Figure 5): consistent ordering verification.

Builds the audit graph G with three kinds of edges —

* time-precedence edges from the trace (via the Figure 6 frontier
  algorithm, then SplitNodes);
* program-order edges (AddProgramEdges), implicit in how SplitNodes
  numbers a request's events;
* alleged log-order edges (AddStateEdges);

— validates the logs against the op-count reports while building the OpMap
(CheckLogs), and rejects if G has a cycle: a cycle means no schedule can
order all events consistently with the trace and the alleged operations
(the Figure 4 examples).
"""

from __future__ import annotations


from repro.common.errors import AuditReject, RejectReason
from repro.core.graph import Graph
from repro.core.opmap import OpMap
from repro.core.timeprec import (
    TimePrecedenceGraph,
    create_time_precedence_graph,
)
from repro.server.reports import Reports
from repro.trace.trace import Trace


def split_nodes(
    gtr: TimePrecedenceGraph, op_counts: dict[str, int]
) -> tuple[Graph, dict[str, int]]:
    """SplitNodes and AddProgramEdges (Figure 5, lines 14-26): each
    request becomes a chain from its arrival (rid, 0) through its alleged
    operations to its departure (rid, ∞) — implicit in the numbering —
    and GTr's edges become (r1, ∞) -> (r2, 0).  Returns G and each
    request's arrival node.

    Allocates one node per claimed operation: inside the audit it runs
    after :func:`check_logs` has tied the claims to log records that
    exist."""
    graph = Graph()
    base: dict[str, int] = {}
    ends: dict[str, int] = {}  # rid -> its departure
    for rid in gtr.nodes:
        if rid not in base:
            ops = op_counts.get(rid, 0)
            base[rid] = graph.add_request(rid, ops)
            ends[rid] = base[rid] + ops + 1
    src, dst = graph.src, graph.dst
    for child, parents in gtr.parents.items():
        arrival = base[child]
        for parent in parents:
            departure = ends.get(parent)
            if departure is None:  # unbalanced trace: response, no request
                departure = ends[parent] = graph.add_request(parent, -1)
            src.append(departure)
            dst.append(arrival)
    return graph, base


def check_logs(trace: Trace, reports: Reports) -> OpMap:
    """CheckLogs (Figure 5, lines 28-42): validate the op counts and the
    log entries against the trace; build the OpMap; ensure the logs cover
    exactly the claimed operations."""
    rids = trace.request_ids()
    op_counts = reports.op_counts
    claimed = 0
    for rid in rids:
        count = op_counts.get(rid, 0)
        if type(count) is not int or count < 0:
            raise AuditReject(
                RejectReason.LOG_BAD_OPNUM,
                f"op count for {rid} is {count!r}",
            )
        claimed += count
    trace_rids = set(rids)
    opmap = OpMap()
    entries = opmap.entries
    for obj_name in sorted(reports.op_logs):
        for seq, record in enumerate(reports.op_logs[obj_name], 1):
            rid, opnum = record.rid, record.opnum
            if rid not in trace_rids:
                raise AuditReject(
                    RejectReason.LOG_UNKNOWN_RID,
                    f"log {obj_name}[{seq}] names unknown request "
                    f"{rid!r}",
                )
            if type(opnum) is not int or opnum <= 0:
                raise AuditReject(
                    RejectReason.LOG_BAD_OPNUM,
                    f"log {obj_name}[{seq}] has opnum {opnum!r}",
                )
            if opnum > op_counts.get(rid, 0):
                raise AuditReject(
                    RejectReason.LOG_BAD_OPNUM,
                    f"log {obj_name}[{seq}] opnum {opnum} exceeds "
                    f"M({rid}) = {op_counts.get(rid, 0)}",
                )
            entry = (obj_name, seq)
            if entries.setdefault((rid, opnum), entry) is not entry:
                raise AuditReject(
                    RejectReason.LOG_DUPLICATE_OP,
                    f"operation ({rid}, {opnum}) appears in "
                    "two log positions",
                )
    # Every entry is a distinct claimed operation, so the logs cover the
    # claims exactly when there are as many entries as claims.  (This
    # also keeps a forged count from costing more than the records the
    # bundle actually carries.)
    if len(entries) != claimed:
        for rid in trace_rids:
            for opnum in range(1, op_counts.get(rid, 0) + 1):
                if (rid, opnum) not in entries:
                    raise AuditReject(
                        RejectReason.LOG_MISSING_OP,
                        f"operation ({rid}, {opnum}) is claimed by M but "
                        "appears in no log",
                    )
    return opmap


def add_state_edges(
    graph: Graph, base: dict[str, int], reports: Reports
) -> None:
    """AddStateEdges (Figure 5, lines 44-54): adjacent log entries from
    different requests are ordered; same-request entries must have
    non-decreasing opnums (program order already covers their edge).

    ``graph`` must hold the program chains of the operations the logs
    name, which is what :func:`check_logs` passing guarantees."""
    src, dst = graph.src, graph.dst
    for obj_name in sorted(reports.op_logs):
        records = iter(reports.op_logs[obj_name])
        previous = next(records, None)
        for seq, current in enumerate(records, 2):
            if previous.rid != current.rid:
                src.append(base[previous.rid] + previous.opnum)
                dst.append(base[current.rid] + current.opnum)
            elif previous.opnum > current.opnum:
                raise AuditReject(
                    RejectReason.LOG_OPNUM_NOT_INCREASING,
                    f"log {obj_name}[{seq}]: opnum regressed for "
                    f"request {current.rid}",
                )
            previous = current


def process_op_reports(
    trace: Trace, reports: Reports
) -> tuple[Graph, OpMap]:
    """ProcessOpReports (Figure 5, lines 2-12).

    Returns (G, OpMap) or raises :class:`AuditReject`.  CheckLogs runs
    before the graph is built rather than between its edge passes: it
    needs no graph, and the graph is then sized by log records that are
    there, not by counts the executor merely claims.
    """
    opmap = check_logs(trace, reports)
    graph, base = split_nodes(create_time_precedence_graph(trace),
                              reports.op_counts)
    add_state_edges(graph, base, reports)
    if graph.has_cycle():
        raise AuditReject(
            RejectReason.ORDERING_CYCLE,
            "events cannot be consistently ordered",
        )
    return graph, opmap
