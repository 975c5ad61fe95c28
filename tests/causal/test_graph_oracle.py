"""CausalGraph against networkx as an oracle.

``CausalGraph`` is a stdlib DAG whose queries are specified as "what
``networkx.DiGraph`` returns on the same insertion order".  networkx is a
test-only dependency: these tests build both graphs from the same random
node and edge sequences and compare every query list for list.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xaidb.causal import CausalGraph
from xaidb.exceptions import ValidationError

# Mixed hashables, including ``str`` collisions (1 / "1", 0 / "0") so the
# insertion-id tie-break of the lexicographic sort is exercised.
NODE_POOL = [0, 1, 2, 10, "0", "1", "a", "b", "B", ("a", 1), (0,), "x y"]


@st.composite
def dags(draw, max_nodes: int = 6):
    """(nodes, edges): nodes may repeat, edges may repeat; every edge
    points forward in a random rank, so the graph is acyclic."""
    nodes = draw(st.lists(st.sampled_from(NODE_POOL), max_size=max_nodes))
    distinct = list(dict.fromkeys(nodes))
    if len(distinct) < 2:
        return nodes, []
    rank = draw(st.permutations(distinct))
    index = st.integers(0, len(rank) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=12))
    edges = [(rank[min(i, j)], rank[max(i, j)]) for i, j in pairs if i != j]
    return nodes, edges


def _networkx(nodes, edges) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph


DIAMOND = (["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


@settings(max_examples=150, deadline=None)
@given(dags(), st.integers(1, 6))
@example(DIAMOND, 1)
@example(([], []), 1)
@example((list("dcba"), []), 3)
@example(([1, "1", 0, "0"], [("0", 1), (0, "1")]), 2)
def test_every_query_matches_networkx(graph, limit):
    nodes, edges = graph
    ours = CausalGraph(nodes, edges)
    oracle = _networkx(nodes, edges)

    assert ours.nodes == list(oracle.nodes)
    assert ours.edges == list(oracle.edges)
    for node in oracle.nodes:
        assert ours.parents(node) == sorted(oracle.predecessors(node), key=str)
        assert ours.children(node) == sorted(oracle.successors(node), key=str)
        assert ours.ancestors(node) == nx.ancestors(oracle, node)
        assert ours.descendants(node) == nx.descendants(oracle, node)
    assert ours.roots() == [n for n in oracle.nodes if oracle.in_degree(n) == 0]
    assert ours.topological_order() == list(
        nx.lexicographical_topological_sort(oracle, key=str)
    )
    every = [list(order) for order in nx.all_topological_sorts(oracle)]
    assert ours.all_topological_orders() == every
    assert ours.all_topological_orders(limit=limit) == every[:limit]


@settings(max_examples=100, deadline=None)
@given(dags(), st.data())
@example(DIAMOND, None)
def test_subgraph_is_induced_in_parent_order(graph, data):
    """networkx's own subgraph view iterates a ``set`` when the kept nodes
    are few, so the oracle is the induced graph built in parent order."""
    nodes, edges = graph
    distinct = list(dict.fromkeys(nodes))
    if data is None:
        keep = ["d", "b", "a"]
    else:
        keep = data.draw(st.permutations(distinct)).copy()
        del keep[data.draw(st.integers(0, len(keep))):]
    parent = CausalGraph(nodes, edges)
    sub = parent.subgraph_on(keep)
    kept = set(keep)
    oracle = _networkx(
        [n for n in parent.nodes if n in kept],
        [(s, t) for s, t in parent.edges if s in kept and t in kept],
    )

    assert sub.nodes == list(oracle.nodes)
    assert sub.edges == list(oracle.edges)
    assert sub.all_topological_orders() == [
        list(order) for order in nx.all_topological_sorts(oracle)
    ]


@settings(max_examples=100, deadline=None)
@given(dags(), st.data())
def test_cycles_raise_like_before(graph, data):
    nodes, edges = graph
    distinct = list(dict.fromkeys(nodes))
    if not distinct:
        return
    if edges:
        # close a cycle of any length: an edge back from a descendant
        source = data.draw(st.sampled_from(edges))[0]
        below = sorted(nx.descendants(_networkx(nodes, edges), source), key=str)
        back = (data.draw(st.sampled_from(below)), source)
    else:
        node = data.draw(st.sampled_from(distinct))
        back = (node, node)  # a self-loop is a cycle too
    cyclic = edges + [back]
    assert not nx.is_directed_acyclic_graph(_networkx(nodes, cyclic))
    with pytest.raises(ValidationError, match="causal graph must be acyclic"):
        CausalGraph(nodes, cyclic)


@settings(max_examples=50, deadline=None)
@given(dags(), st.booleans())
def test_unknown_edge_endpoints_raise_like_before(graph, as_source):
    nodes, edges = graph
    anchor = nodes[0] if nodes else "a"
    bad = ("zz", anchor) if as_source else (anchor, "zz")
    message = f"edge ({bad[0]!r}, {bad[1]!r}) references unknown node"
    with pytest.raises(ValidationError) as caught:
        CausalGraph(nodes, edges + [bad])
    assert str(caught.value) == message
