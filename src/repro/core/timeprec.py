"""Time-precedence materialization (Section 3.5, Figure 6, §A.8).

``r1 <Tr r2`` iff the trace shows r1's response departing before r2's
request arrives (Lamport's precedes relation on intervals).  The verifier
needs a graph whose paths are exactly ``<Tr``, with as few edges as
possible (Lemma 12: the frontier algorithm is edge-optimal).

Three implementations:

* :func:`create_time_precedence_graph` — the paper's streaming frontier
  algorithm, O(X + Z) (Figure 6);
* :func:`baseline_time_precedence` — an Anderson-et-al.-style offline
  algorithm: O(X log X + Z) because it first sorts the events by timestamp
  (the streaming algorithm instead consumes the collector's arrival order);
  used by the E6 benchmark;
* :func:`naive_precedence_relation` — O(X²) ground truth for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.trace.events import EventKind
from repro.trace.trace import Trace


@dataclass
class TimePrecedenceGraph:
    """GTr: request-level precedence edges (before node splitting)."""

    nodes: list[str] = field(default_factory=list)
    #: child rid -> parent rids (the edges point parent -> child).
    parents: dict[str, list[str]] = field(default_factory=dict)

    def edges(self) -> list[tuple[str, str]]:
        return [
            (parent, child)
            for child, parent_list in self.parents.items()
            for parent in parent_list
        ]

    def edge_count(self) -> int:
        return sum(len(parent_list) for parent_list in self.parents.values())


def create_time_precedence_graph(trace: Trace) -> TimePrecedenceGraph:
    """CreateTimePrecedenceGraph (Figure 6): one pass, O(X + Z).

    Tracks the *frontier* — the set of latest, mutually concurrent,
    completed requests.  Every new arrival gets an edge from each frontier
    member; when a request's response departs, the request evicts its
    parents from the frontier and joins it.
    """
    gtr = TimePrecedenceGraph()
    nodes, parents = gtr.nodes, gtr.parents
    request = EventKind.REQUEST
    frontier: set[str] = set()
    for event in trace:
        rid = event.rid
        if event.kind is request:
            nodes.append(rid)
            parents[rid] = list(frontier)
        else:
            frontier.difference_update(parents.get(rid, ()))
            frontier.add(rid)
    return gtr


def baseline_time_precedence(trace: Trace) -> TimePrecedenceGraph:
    """An offline O(X log X + Z) construction in the style of Anderson et
    al. [14]: collect the events, sort them by timestamp (the log-factor
    step the streaming algorithm avoids), then sweep.

    Produces the same edge set as :func:`create_time_precedence_graph`;
    exists so the E6 benchmark can measure the asymptotic difference.
    """
    stamped = [(event.time, index, event) for index, event in
               enumerate(trace)]
    stamped.sort(key=lambda item: (item[0], item[1]))
    gtr = TimePrecedenceGraph()
    frontier: set[str] = set()
    for _, _, event in stamped:
        if event.is_request:
            rid = event.rid
            gtr.nodes.append(rid)
            gtr.parents[rid] = list(frontier)
        else:
            rid = event.rid
            for parent in gtr.parents.get(rid, ()):
                frontier.discard(parent)
            frontier.add(rid)
    return gtr


def naive_precedence_relation(trace: Trace) -> set[tuple[str, str]]:
    """Ground-truth ``<Tr``: (r1, r2) iff RESPONSE(r1) precedes
    REQUEST(r2) in the trace.  O(X²); tests only."""
    relation: set[tuple[str, str]] = set()
    responded: list[str] = []
    for event in trace:
        if event.is_request:
            for earlier in responded:
                relation.add((earlier, event.rid))
        else:
            responded.append(event.rid)
    return relation


def reachability(gtr: TimePrecedenceGraph) -> set[tuple[str, str]]:
    """All (ancestor, descendant) pairs in GTr.  O(X·Z); tests only."""
    children: dict[str, list[str]] = {}
    for child, parent_list in gtr.parents.items():
        for parent in parent_list:
            children.setdefault(parent, []).append(child)
    closure: set[tuple[str, str]] = set()
    for start in gtr.nodes:
        seen: set[str] = set()
        stack = list(children.get(start, ()))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            closure.add((start, node))
            stack.extend(children.get(node, ()))
    return closure
