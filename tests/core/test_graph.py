"""Audit graph: cycle detection and topological sorting over numbered
nodes, where a request's program-order chain is implicit."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import Graph, OPNUM_INF


def _graph(n, edges=()):
    """``n`` requests without operations; vertex ``i`` is request i's
    arrival.  Each departure only follows its arrival and leads nowhere,
    so it adds no cycle and breaks none."""
    graph = Graph()
    nodes = [graph.add_request(f"r{i}", 0) for i in range(n)]
    for a, b in edges:
        graph.add_edge(nodes[a], nodes[b])
    return graph, nodes


def _all_edges(graph):
    """Every edge, the implicit program-order ones included."""
    ends = graph.bases[1:] + [graph.size]
    program = [(node, node + 1) for base, end in zip(graph.bases, ends)
               for node in range(base, end - 1)]
    return program + list(zip(graph.src, graph.dst))


def test_empty_graph_has_no_cycle():
    assert not Graph().has_cycle()
    assert Graph().topo_sort() == []


def test_self_loop_is_a_cycle():
    graph, _ = _graph(1, [(0, 0)])
    assert graph.has_cycle()


def test_two_cycle():
    graph, _ = _graph(2, [(0, 1), (1, 0)])
    assert graph.has_cycle()


def test_diamond_is_acyclic():
    graph, nodes = _graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert not graph.has_cycle()
    order = graph.topo_sort()
    assert order is not None
    position = {node: index for index, node in enumerate(order)}
    r0, r1, r2, r3 = [("r%d" % i, 0) for i in range(4)]
    assert position[r0] < position[r1] < position[r3]
    assert position[r0] < position[r2] < position[r3]
    assert all(position[(rid, 0)] < position[(rid, OPNUM_INF)]
               for rid in graph.rids)


def test_topo_sort_none_on_cycle():
    graph, _ = _graph(3, [(0, 1), (1, 2), (2, 0)])
    assert graph.topo_sort() is None


def test_long_chain_no_recursion_error():
    """Deep graphs (10^5 nodes), as stored edges and as one request's
    program order."""
    graph, _ = _graph(100_001, [(i, i + 1) for i in range(100_000)])
    assert not graph.has_cycle()
    graph = Graph()
    graph.add_request("r", 100_000)
    assert graph.topo_sort()[-2:] == [("r", 100_000), ("r", OPNUM_INF)]


def test_long_cycle_detected():
    n = 50_000
    graph, _ = _graph(n, [(i, (i + 1) % n) for i in range(n)])
    assert graph.has_cycle()
    # One stored edge back along a request's own chain closes a cycle.
    graph = Graph()
    base = graph.add_request("r", n)
    graph.add_edge(base + n, base + 1)
    assert graph.has_cycle()


def test_parallel_edges_tolerated():
    graph, _ = _graph(2, [(0, 1), (0, 1)])
    assert not graph.has_cycle()
    assert graph.edge_count() == 2 + 2  # and each arrival -> departure


def test_inf_nodes_are_distinct_from_numbered():
    graph = Graph()
    graph.add_request("r1", 1)
    graph.add_request("r0", -1)  # a departure alone
    assert graph.node_count() == 4
    assert graph.nodes == [("r1", 0), ("r1", 1), ("r1", OPNUM_INF),
                           ("r0", OPNUM_INF)]
    assert graph.edge_count() == 2


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=2, max_value=60),
)
def test_random_dag_never_reports_cycle(seed, n):
    """Edges only from lower to higher node number: guaranteed acyclic,
    whatever the chains."""
    rng = random.Random(seed)
    graph = Graph()
    while graph.size < n:
        graph.add_request(f"r{graph.size}", rng.randrange(-1, 4))
    for _ in range(n * 2):
        a = rng.randrange(graph.size - 1)
        graph.add_edge(a, rng.randrange(a + 1, graph.size))
    assert not graph.has_cycle()
    order = graph.order()
    assert sorted(order) == list(range(graph.size))
    position = {node: index for index, node in enumerate(order)}
    for src, dst in _all_edges(graph):
        assert position[src] < position[dst]
    labels = graph.nodes
    assert graph.topo_sort() == [labels[node] for node in order]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=2, max_value=40),
)
def test_random_graph_cycle_matches_networkx(seed, n):
    import networkx as nx

    rng = random.Random(seed)
    graph = Graph()
    while graph.size < n:
        graph.add_request(f"r{graph.size}", rng.randrange(-1, 4))
    for _ in range(n * 2):
        graph.add_edge(rng.randrange(graph.size), rng.randrange(graph.size))
    nxg = nx.DiGraph()
    nxg.add_nodes_from(range(graph.size))
    nxg.add_edges_from(_all_edges(graph))
    assert graph.has_cycle() == (not nx.is_directed_acyclic_graph(nxg))
