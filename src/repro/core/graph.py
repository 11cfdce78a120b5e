"""The audit graph G (Section 3.5).

Nodes are events: ``(rid, 0)`` is the request's arrival, ``(rid, opnum)``
for ``1 <= opnum <= M(rid)`` are its alleged operations, and
``(rid, OPNUM_INF)`` is the departure of its response.  Edges are
precedence.  The only queries the audit needs are "add node/edge",
"has cycle?", and "topological order" (the proofs' implied schedule, used
by the OOO audit and the equivalence tests).

Cycle detection is an iterative three-color DFS (the standard algorithm
the paper cites, [32, Ch. 22]), implemented without recursion so that
traces with hundreds of thousands of events do not hit Python's stack
limit.
"""

from __future__ import annotations

from collections.abc import Iterable

#: The ``∞`` opnum marking the response-departure node.
OPNUM_INF = float("inf")

Node = tuple[str, object]  # (rid, opnum) with opnum int or OPNUM_INF


class Graph:
    """Directed graph over event nodes, adjacency-list based."""

    def __init__(self) -> None:
        self.adj: dict[Node, list[Node]] = {}

    # -- construction -------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node not in self.adj:
            self.adj[node] = []

    def add_edge(self, src: Node, dst: Node) -> None:
        self.add_node(src)
        self.add_node(dst)
        self.adj[src].append(dst)

    # -- queries --------------------------------------------------------------

    @property
    def nodes(self) -> Iterable[Node]:
        return self.adj.keys()

    def node_count(self) -> int:
        return len(self.adj)

    def edge_count(self) -> int:
        return sum(len(out) for out in self.adj.values())

    def has_cycle(self) -> bool:
        """Three-color DFS, iterative: absent from ``color`` is white,
        on the current path gray, finished black."""
        GRAY, BLACK = 1, 2
        adj = self.adj
        color: dict[Node, int] = {}
        for start in adj:
            if start in color:
                continue
            color[start] = GRAY
            # ``path[i]``'s unvisited successors are what is left of
            # ``pending[i]``.
            path = [start]
            pending = [iter(adj[start])]
            while path:
                for nxt in pending[-1]:
                    state = color.get(nxt)
                    if state is None:
                        color[nxt] = GRAY
                        path.append(nxt)
                        pending.append(iter(adj[nxt]))
                        break
                    if state == GRAY:
                        return True
                else:
                    color[path.pop()] = BLACK
                    pending.pop()
        return False

    def topo_sort(self) -> list[Node] | None:
        """Kahn's algorithm; None if the graph has a cycle."""
        indegree: dict[Node, int] = {node: 0 for node in self.adj}
        for out in self.adj.values():
            for dst in out:
                indegree[dst] += 1
        ready = [node for node, deg in indegree.items() if deg == 0]
        order: list[Node] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for dst in self.adj[node]:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
        if len(order) != len(self.adj):
            return None
        return order
