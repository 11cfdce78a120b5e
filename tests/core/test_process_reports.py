"""ProcessOpReports (Figure 5): CheckLogs, edges, OpMap construction."""

from __future__ import annotations

import pytest

from repro.common.errors import AuditReject, RejectReason
from repro.core.graph import OPNUM_INF, Graph
from repro.core.process_reports import (
    add_state_edges,
    check_logs,
    process_op_reports,
    split_nodes,
)
from repro.core.timeprec import create_time_precedence_graph
from repro.objects.base import OpRecord, OpType
from repro.server.reports import Reports
from repro.trace.events import Event, Request, Response
from repro.trace.trace import Trace


def _trace_two_sequential():
    return Trace([
        Event.request(Request("r1", "s"), 1),
        Event.response(Response("r1", "x"), 2),
        Event.request(Request("r2", "s"), 3),
        Event.response(Response("r2", "y"), 4),
    ])


def _reports(**overrides):
    base = Reports(
        groups={"t": ["r1", "r2"]},
        op_logs={
            "reg:g:A": [
                OpRecord("r1", 1, OpType.REGISTER_WRITE, (5,)),
                OpRecord("r2", 1, OpType.REGISTER_READ, ()),
            ]
        },
        op_counts={"r1": 1, "r2": 1},
        nondet={},
    )
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


def test_valid_reports_pass():
    graph, opmap = process_op_reports(_trace_two_sequential(), _reports())
    assert len(opmap) == 2
    assert opmap.get("r1", 1) == ("reg:g:A", 1)
    assert opmap.get("r2", 1) == ("reg:g:A", 2)


def _adjacency(graph):
    """``{label: [successor labels]}``, program order included."""
    labels = graph.nodes
    adj = {label: [] for label in labels}
    for node, (rid, opnum) in enumerate(labels):
        if opnum != OPNUM_INF:
            adj[(rid, opnum)].append(labels[node + 1])
    for src, dst in zip(graph.src, graph.dst):
        adj[labels[src]].append(labels[dst])
    return adj


def test_split_nodes_shape():
    trace = _trace_two_sequential()
    graph, base = split_nodes(create_time_precedence_graph(trace), {})
    adj = _adjacency(graph)
    assert ("r1", 0) in adj and ("r1", OPNUM_INF) in adj
    assert base == {"r1": 0, "r2": 2}
    # The r1 -> r2 precedence edge connects departure to arrival.
    assert ("r2", 0) in adj[("r1", OPNUM_INF)]


def test_program_edges_chain():
    trace = _trace_two_sequential()
    graph, base = split_nodes(create_time_precedence_graph(trace),
                              {"r1": 3, "r2": 0})
    # Each request's events are consecutive numbers: the chain is the
    # numbering.
    assert graph.nodes == [("r1", 0), ("r1", 1), ("r1", 2), ("r1", 3),
                           ("r1", OPNUM_INF), ("r2", 0), ("r2", OPNUM_INF)]
    adj = _adjacency(graph)
    assert ("r1", 1) in adj[("r1", 0)]
    assert ("r1", 2) in adj[("r1", 1)]
    assert ("r1", 3) in adj[("r1", 2)]
    assert ("r1", OPNUM_INF) in adj[("r1", 3)]
    # Zero ops: arrival connects straight to departure.
    assert ("r2", OPNUM_INF) in adj[("r2", 0)]
    assert graph.edge_count() == 4 + 1 + 1


def test_checklogs_rejects_unknown_rid():
    reports = _reports()
    reports.op_logs["reg:g:A"].append(
        OpRecord("ghost", 1, OpType.REGISTER_READ, ())
    )
    with pytest.raises(AuditReject) as exc:
        check_logs(_trace_two_sequential(), reports)
    assert exc.value.reason is RejectReason.LOG_UNKNOWN_RID


def test_checklogs_rejects_zero_opnum():
    reports = _reports()
    reports.op_logs["reg:g:A"][0] = OpRecord(
        "r1", 0, OpType.REGISTER_WRITE, (5,)
    )
    with pytest.raises(AuditReject) as exc:
        check_logs(_trace_two_sequential(), reports)
    assert exc.value.reason is RejectReason.LOG_BAD_OPNUM


def test_checklogs_rejects_opnum_beyond_m():
    reports = _reports(op_counts={"r1": 1, "r2": 0})
    with pytest.raises(AuditReject) as exc:
        check_logs(_trace_two_sequential(), reports)
    assert exc.value.reason is RejectReason.LOG_BAD_OPNUM


def test_checklogs_rejects_duplicate_op():
    reports = _reports()
    reports.op_logs["reg:g:B"] = [
        OpRecord("r1", 1, OpType.REGISTER_WRITE, (6,))
    ]
    with pytest.raises(AuditReject) as exc:
        check_logs(_trace_two_sequential(), reports)
    assert exc.value.reason is RejectReason.LOG_DUPLICATE_OP


def test_checklogs_rejects_missing_op():
    reports = _reports(op_counts={"r1": 2, "r2": 1})
    with pytest.raises(AuditReject) as exc:
        check_logs(_trace_two_sequential(), reports)
    assert exc.value.reason is RejectReason.LOG_MISSING_OP


def test_state_edges_cross_request_only():
    trace = _trace_two_sequential()
    reports = _reports()
    graph, base = split_nodes(create_time_precedence_graph(trace),
                              reports.op_counts)
    before = graph.edge_count()
    add_state_edges(graph, base, reports)
    assert graph.edge_count() == before + 1
    assert ("r2", 1) in _adjacency(graph)[("r1", 1)]


def test_state_edges_reject_opnum_regression():
    reports = Reports(
        groups={},
        op_logs={
            "reg:g:A": [
                OpRecord("r1", 2, OpType.REGISTER_READ, ()),
                OpRecord("r1", 1, OpType.REGISTER_WRITE, (1,)),
            ]
        },
        op_counts={"r1": 2},
        nondet={},
    )
    with pytest.raises(AuditReject) as exc:
        add_state_edges(Graph(), {}, reports)
    assert exc.value.reason is RejectReason.LOG_OPNUM_NOT_INCREASING


def test_same_request_adjacent_entries_no_edge_needed():
    """Same-request adjacent log entries rely on program order (l.45-47)."""
    trace = Trace([
        Event.request(Request("r1", "s"), 1),
        Event.response(Response("r1", "x"), 2),
    ])
    reports = Reports(
        groups={"t": ["r1"]},
        op_logs={
            "reg:g:A": [
                OpRecord("r1", 1, OpType.REGISTER_WRITE, (1,)),
                OpRecord("r1", 2, OpType.REGISTER_READ, ()),
            ]
        },
        op_counts={"r1": 2},
        nondet={},
    )
    graph, opmap = process_op_reports(trace, reports)
    assert len(opmap) == 2


def test_cycle_between_time_and_log_order_rejected():
    """Log claims r2's op precedes r1's, but the trace shows r1 finished
    before r2 arrived."""
    reports = Reports(
        groups={"t": ["r1", "r2"]},
        op_logs={
            "reg:g:A": [
                OpRecord("r2", 1, OpType.REGISTER_WRITE, (9,)),
                OpRecord("r1", 1, OpType.REGISTER_READ, ()),
            ]
        },
        op_counts={"r1": 1, "r2": 1},
        nondet={},
    )
    with pytest.raises(AuditReject) as exc:
        process_op_reports(_trace_two_sequential(), reports)
    assert exc.value.reason is RejectReason.ORDERING_CYCLE


def test_negative_op_count_rejected():
    reports = _reports(op_counts={"r1": -1, "r2": 1})
    with pytest.raises(AuditReject):
        process_op_reports(_trace_two_sequential(), reports)


def test_empty_reports_with_no_op_requests():
    """Requests that issue no operations need no log entries."""
    reports = Reports(groups={"t": ["r1", "r2"]}, op_logs={},
                      op_counts={"r1": 0, "r2": 0}, nondet={})
    graph, opmap = process_op_reports(_trace_two_sequential(), reports)
    assert len(opmap) == 0


# -- the graph, against Figure 5 written out edge by edge ----------------------
#
# ``figure5`` is ProcessOpReports as the paper lists it — every node and
# edge spelled out in a dict of labels, CheckLogs between the two edge
# passes — kept here as the reference the production passes must agree
# with: same nodes, same edges, and for a defective bundle the same
# reason (the first one Figure 5's order of checks meets).


def figure5(trace, reports):
    import networkx as nx

    adj = {}

    def add_edge(src, dst):
        adj.setdefault(src, []).append(dst)
        adj.setdefault(dst, [])

    gtr = create_time_precedence_graph(trace)
    for rid in gtr.nodes:
        adj.setdefault((rid, 0), [])
        adj.setdefault((rid, OPNUM_INF), [])
    for child, parents in gtr.parents.items():
        for parent in parents:
            add_edge((parent, OPNUM_INF), (child, 0))
    counts = reports.op_counts
    for rid in trace.request_ids():
        if counts.get(rid, 0) < 0:
            raise AuditReject(RejectReason.LOG_BAD_OPNUM)
        previous = (rid, 0)
        for opnum in range(1, counts.get(rid, 0) + 1):
            add_edge(previous, (rid, opnum))
            previous = (rid, opnum)
        add_edge(previous, (rid, OPNUM_INF))
    rids = set(trace.request_ids())
    seen = set()
    for obj in sorted(reports.op_logs):
        for record in reports.op_logs[obj]:
            if record.rid not in rids:
                raise AuditReject(RejectReason.LOG_UNKNOWN_RID)
            if not 0 < record.opnum <= counts.get(record.rid, 0):
                raise AuditReject(RejectReason.LOG_BAD_OPNUM)
            if (record.rid, record.opnum) in seen:
                raise AuditReject(RejectReason.LOG_DUPLICATE_OP)
            seen.add((record.rid, record.opnum))
    for rid in rids:
        for opnum in range(1, counts.get(rid, 0) + 1):
            if (rid, opnum) not in seen:
                raise AuditReject(RejectReason.LOG_MISSING_OP)
    for obj in sorted(reports.op_logs):
        log = reports.op_logs[obj]
        for previous, current in zip(log, log[1:]):
            if previous.rid != current.rid:
                add_edge((previous.rid, previous.opnum),
                         (current.rid, current.opnum))
            elif previous.opnum > current.opnum:
                raise AuditReject(RejectReason.LOG_OPNUM_NOT_INCREASING)
    if not nx.is_directed_acyclic_graph(nx.DiGraph(
            [(src, dst) for src, out in adj.items() for dst in out])):
        raise AuditReject(RejectReason.ORDERING_CYCLE)
    return adj


def _verdict(build, trace, reports):
    try:
        return build(trace, reports)
    except AuditReject as reject:
        return reject.reason


def test_graph_equals_figure5(honest_run):
    trace, reports = honest_run.trace, honest_run.reports
    graph, opmap = process_op_reports(trace, reports)
    reference = figure5(trace, reports)
    assert sorted(graph.nodes) == sorted(reference)
    assert graph.node_count() == len(reference)
    # A request's parents come out of a set, so the edges of one node
    # are compared as a multiset.
    assert ({node: sorted(out) for node, out in _adjacency(graph).items()}
            == {node: sorted(out) for node, out in reference.items()})
    assert graph.edge_count() == sum(map(len, reference.values())) > len(
        opmap) > 0
    # The schedule OOOAudit is handed orders every edge of Figure 5.
    position = {node: index for index, node in enumerate(graph.topo_sort())}
    assert all(position[src] < position[dst]
               for src, out in reference.items() for dst in out)
    assert {key: (obj, seq) for obj, log in reports.op_logs.items()
            for seq, record in enumerate(log, 1)
            for key in [(record.rid, record.opnum)]} == opmap.entries


def _defects(reports):
    """Single defects by name; each edits ``reports`` in place."""
    obj = max(reports.op_logs, key=lambda name: len(reports.op_logs[name]))
    log = reports.op_logs[obj]
    first = log[0]
    other = next(r for r in log if r.rid != first.rid)

    def rewrite(position, **fields):
        record = log[position]
        log[position] = OpRecord(
            fields.get("rid", record.rid), fields.get("opnum", record.opnum),
            record.optype, record.opcontents)

    return {
        "negative_count": lambda: reports.op_counts.update({other.rid: -2}),
        "unknown_rid": lambda: rewrite(0, rid="ghost"),
        "zero_opnum": lambda: rewrite(1, opnum=0),
        "beyond_m": lambda: rewrite(2, opnum=10_000),
        "duplicate": lambda: log.append(first),
        "missing": lambda: reports.op_counts.update(
            {first.rid: reports.op_counts[first.rid] + 1}),
        "cycle": lambda: log.reverse(),
    }


@pytest.mark.parametrize("names", [
    (name,) for name in ("negative_count", "unknown_rid", "zero_opnum",
                         "beyond_m", "duplicate", "missing", "cycle")
] + [
    ("missing", "negative_count"), ("unknown_rid", "negative_count"),
    ("duplicate", "unknown_rid"), ("missing", "duplicate"),
    ("cycle", "missing"), ("cycle", "beyond_m"), ("zero_opnum", "missing"),
    ("cycle", "duplicate", "negative_count"),
])
def test_same_reason_wins_as_in_figure5(honest_run, names):
    reports = honest_run.reports.deep_copy()
    defects = _defects(reports)
    for name in names:
        defects[name]()
    expected = _verdict(figure5, honest_run.trace, reports)
    assert isinstance(expected, RejectReason), names
    assert _verdict(process_op_reports, honest_run.trace,
                    reports) is expected, names


# -- report scalars the executor made up ---------------------------------------


def test_forged_op_count_is_rejected_before_anything_is_allocated(
        counter_app, honest_run):
    """An op count is the executor's claim: a forged 3,000,000 must cost
    what the log records that exist cost, not three million nodes."""
    import resource
    import time

    from repro.core import Auditor

    reports = honest_run.reports.deep_copy()
    rid = honest_run.trace.request_ids()[0]
    reports.op_counts[rid] += 3_000_000
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.process_time()
    result = Auditor(counter_app).audit(
        honest_run.trace, reports, honest_run.initial_state)
    cpu = time.process_time() - started
    grown_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kib
    assert not result.accepted
    assert result.reason is RejectReason.LOG_MISSING_OP
    assert cpu < 0.5, f"{cpu:.2f} CPU-s"
    assert grown_kib < 50 * 1024, f"{grown_kib / 1024:.0f} MiB"


@pytest.mark.parametrize("forged", ["3", 2.5, None, [1], True])
def test_non_integer_scalars_in_reports_are_a_verdict(forged):
    """``Reports`` built in process never pass through the decoder's
    type check; CheckLogs must still answer with a verdict."""
    counts = _reports(op_counts={"r1": forged, "r2": 1})
    with pytest.raises(AuditReject) as exc:
        process_op_reports(_trace_two_sequential(), counts)
    assert exc.value.reason is RejectReason.LOG_BAD_OPNUM
    opnums = _reports()
    opnums.op_logs["reg:g:A"][1] = OpRecord(
        "r2", forged, OpType.REGISTER_READ, ())
    with pytest.raises(AuditReject) as exc:
        process_op_reports(_trace_two_sequential(), opnums)
    assert exc.value.reason is RejectReason.LOG_BAD_OPNUM
