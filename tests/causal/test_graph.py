import pytest

from xaidb.causal import CausalGraph
from xaidb.exceptions import ValidationError


@pytest.fixture()
def diamond():
    #    a
    #   / \
    #  b   c
    #   \ /
    #    d
    return CausalGraph(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )


class TestCausalGraph:
    def test_rejects_cycles(self):
        with pytest.raises(ValidationError, match="acyclic"):
            CausalGraph(["a", "b"], [("a", "b"), ("b", "a")])

    def test_rejects_unknown_edge_endpoints(self):
        with pytest.raises(ValidationError, match="unknown node"):
            CausalGraph(["a"], [("a", "z")])

    def test_parents_children(self, diamond):
        assert diamond.parents("d") == ["b", "c"]
        assert diamond.children("a") == ["b", "c"]
        assert diamond.parents("a") == []

    def test_ancestors_descendants(self, diamond):
        assert diamond.ancestors("d") == {"a", "b", "c"}
        assert diamond.descendants("a") == {"b", "c", "d"}

    def test_roots(self, diamond):
        assert diamond.roots() == ["a"]

    def test_topological_order_is_causal(self, diamond):
        order = diamond.topological_order()
        assert diamond.is_causal_order(order)
        assert order[0] == "a"
        assert order[-1] == "d"

    def test_all_topological_orders_of_diamond(self, diamond):
        orders = diamond.all_topological_orders()
        assert len(orders) == 2  # b,c interchangeable
        assert all(diamond.is_causal_order(o) for o in orders)

    def test_all_orders_limit(self):
        independent = CausalGraph(list("abcd"), [])
        assert len(independent.all_topological_orders(limit=5)) == 5

    def test_is_causal_order_rejects_wrong_sets(self, diamond):
        assert not diamond.is_causal_order(["a", "b", "c"])
        assert not diamond.is_causal_order(["d", "c", "b", "a"])

    def test_subgraph(self, diamond):
        sub = diamond.subgraph_on(["a", "b", "d"])
        assert set(sub.nodes) == {"a", "b", "d"}
        assert ("a", "b") in sub.edges
        assert ("b", "d") in sub.edges
        assert len(sub.edges) == 2

    def test_contains(self, diamond):
        assert "a" in diamond
        assert "z" not in diamond

    def test_unknown_node_queries_raise(self, diamond):
        with pytest.raises(ValidationError):
            diamond.parents("z")

    def test_returned_node_and_edge_lists_are_copies(self, diamond):
        diamond.nodes.append("z")
        diamond.edges.append(("d", "a"))  # would make it cyclic
        diamond.nodes.clear()
        diamond.edges.clear()
        assert diamond.nodes == ["a", "b", "c", "d"]
        assert diamond.edges == [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        assert "z" not in diamond
        assert diamond.is_causal_order(diamond.topological_order())
