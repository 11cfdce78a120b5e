"""The audit graph G (Section 3.5).

Nodes are events: ``(rid, 0)`` is the request's arrival, ``(rid, opnum)``
for ``1 <= opnum <= M(rid)`` are its alleged operations, and
``(rid, OPNUM_INF)`` is the departure of its response.  Edges are
precedence.  The only queries the audit needs are "add node/edge",
"has cycle?", and "topological order" (the proofs' implied schedule, used
by the OOO audit and the equivalence tests).

The nodes are numbered: a request's events take consecutive numbers —
arrival ``base``, operation k ``base + k``, departure ``base + M + 1`` —
so its program-order chain is implicit, and only the other edges are
stored, as two int lists.  Both queries are Kahn's algorithm over an
indegree list, walking a chain without a push while it can: no
recursion, so traces with hundreds of thousands of events are fine.
"""

from __future__ import annotations

#: The ``∞`` opnum marking the response-departure node.
OPNUM_INF = float("inf")

Node = tuple[str, object]  # (rid, opnum) with opnum int or OPNUM_INF


class Graph:
    """Directed graph over numbered event nodes."""

    def __init__(self) -> None:
        #: The request of each chain, and its arrival node.
        self.rids: list[str] = []
        self.bases: list[int] = []
        self.size = 0
        #: The stored (time-precedence and state) edges, ``src[i] ->
        #: dst[i]``.
        self.src: list[int] = []
        self.dst: list[int] = []

    # -- construction -------------------------------------------------------

    def add_request(self, rid: str, ops: int) -> int:
        """A chain of ``ops + 2`` nodes (``ops = -1``: a departure only);
        returns its arrival."""
        base = self.size
        self.rids.append(rid)
        self.bases.append(base)
        self.size += ops + 2
        return base

    def add_edge(self, src: int, dst: int) -> None:
        self.src.append(src)
        self.dst.append(dst)

    # -- queries --------------------------------------------------------------

    def node_count(self) -> int:
        return self.size

    def edge_count(self) -> int:
        return len(self.src) + self.size - len(self.bases)

    @property
    def nodes(self) -> list[Node]:
        """``(rid, opnum)`` of every node, by number."""
        labels: list[Node] = []
        ends = self.bases[1:] + [self.size]
        for rid, base, end in zip(self.rids, self.bases, ends):
            labels += [(rid, opnum) for opnum in range(end - base - 1)]
            labels.append((rid, OPNUM_INF))
        return labels

    def order(self) -> list[int] | None:
        """Kahn's algorithm; None if the graph has a cycle."""
        size = self.size
        indegree = [1] * size
        stored: list[list[int] | None] = [None] * size
        for src, dst in zip(self.src, self.dst):
            indegree[dst] += 1
            out = stored[src]
            if out is None:
                stored[src] = [dst]
            else:
                out.append(dst)
        last = bytearray(size)  # departures: no program successor
        for base in self.bases:
            indegree[base] -= 1
            if base:
                last[base - 1] = 1
        if size:
            last[size - 1] = 1
        ready = [base for base in self.bases if not indegree[base]]
        order: list[int] = []
        append = order.append
        while ready:
            node = ready.pop()
            while True:
                append(node)
                out = stored[node]
                if out is not None:
                    for dst in out:
                        indegree[dst] -= 1
                        if not indegree[dst]:
                            ready.append(dst)
                if last[node]:
                    break
                node += 1
                indegree[node] -= 1
                if indegree[node]:
                    break
        return order if len(order) == size else None

    def has_cycle(self) -> bool:
        return self.order() is None

    def topo_sort(self) -> list[Node] | None:
        """A topological order of the labels; None on a cycle."""
        order = self.order()
        return None if order is None else list(map(self.nodes.__getitem__,
                                                   order))
