"""Causal DAGs.

:class:`CausalGraph` is a small validated DAG exposing exactly the queries
the explainers need: parents, topological orderings consistent with the
causal structure (asymmetric Shapley values restrict permutations to
these), ancestors / descendants (causal Shapley's direct/indirect split),
and edge enumeration (Shapley flow assigns credit to edges).

The graph is two insertion-ordered dict-of-dicts (successors and
predecessors), so every query is deterministic given the order nodes and
edges were added.  Query results follow ``networkx.DiGraph`` on the same
insertion order, list for list: edges are grouped by source in node
order, :meth:`topological_order` is the lexicographic Kahn sort keyed by
``(str(node), insertion id)``, and :meth:`all_topological_orders` is the
Knuth–Szwarcfiter enumeration in networkx's order.  The tests check this
against networkx as an oracle.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Hashable, Iterable, Sequence

from xaidb.exceptions import ValidationError

__all__ = ["CausalGraph"]


class CausalGraph:
    """A directed acyclic graph over named variables."""

    def __init__(
        self,
        nodes: Iterable[Hashable],
        edges: Iterable[tuple[Hashable, Hashable]],
    ) -> None:
        # Values are unused: dicts serve as insertion-ordered sets.
        self._succ: dict[Hashable, dict] = {n: {} for n in nodes}
        self._pred: dict[Hashable, dict] = {n: {} for n in self._succ}
        for source, target in edges:
            if source not in self._succ or target not in self._succ:
                raise ValidationError(
                    f"edge ({source!r}, {target!r}) references unknown node"
                )
            self._succ[source][target] = None
            self._pred[target][source] = None
        # Kahn's algorithm peels every node of a DAG; a cycle never reaches
        # in-degree 0.
        if len(self.topological_order()) != len(self._succ):
            raise ValidationError("causal graph must be acyclic")

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list:
        return list(self._succ)

    @property
    def edges(self) -> list[tuple]:
        return [(s, t) for s, targets in self._succ.items() for t in targets]

    def __contains__(self, node: Hashable) -> bool:
        try:
            return node in self._succ
        except TypeError:  # unhashable: never a node
            return False

    def parents(self, node: Hashable) -> list:
        self._require(node)
        return sorted(self._pred[node], key=str)

    def children(self, node: Hashable) -> list:
        self._require(node)
        return sorted(self._succ[node], key=str)

    def ancestors(self, node: Hashable) -> set:
        self._require(node)
        return self._reach(node, self._pred)

    def descendants(self, node: Hashable) -> set:
        self._require(node)
        return self._reach(node, self._succ)

    def roots(self) -> list:
        """Nodes with no parents (exogenous-only variables)."""
        return [n for n, parents in self._pred.items() if not parents]

    def topological_order(self) -> list:
        """One deterministic topological ordering of all nodes: Kahn's
        algorithm taking the ready node with the smallest ``str`` first,
        ties broken by insertion order."""
        node_id = {n: i for i, n in enumerate(self._succ)}
        indegree = {n: len(p) for n, p in self._pred.items()}
        heap = [(str(n), node_id[n], n) for n, d in indegree.items() if d == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            node = heapq.heappop(heap)[2]
            for child in self._succ[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(heap, (str(child), node_id[child], child))
            order.append(node)
        return order

    def all_topological_orders(self, *, limit: int | None = None) -> list[list]:
        """All topological orderings (optionally truncated at ``limit``).

        Asymmetric Shapley values average marginal contributions over
        exactly these orderings.  Knuth & Szwarcfiter (1974), iteratively:
        ``ready`` holds the in-degree-0 nodes and is rotated to try each
        one at a position; ``bases`` remembers the first node tried at each
        position, which is exhausted once its base is back at the right end.
        """
        count = {n: len(p) for n, p in self._pred.items()}
        ready = deque(n for n, d in count.items() if d == 0)
        bases: list = []
        current: list = []
        orders: list[list] = []
        while True:
            if len(current) == len(self._succ):
                orders.append(list(current))
                if limit is not None and len(orders) >= limit:
                    return orders
                while current:
                    node = current.pop()
                    for child in self._succ[node]:
                        count[child] += 1
                    while ready and count[ready[-1]] > 0:
                        ready.pop()
                    ready.appendleft(node)
                    if ready[-1] == bases[-1]:
                        bases.pop()
                    else:
                        break
            else:
                node = ready.pop()
                for child in self._succ[node]:
                    count[child] -= 1
                    if count[child] == 0:
                        ready.append(child)
                current.append(node)
                if len(bases) < len(current):
                    bases.append(node)
            if not bases:
                return orders

    def is_causal_order(self, order: Sequence[Hashable]) -> bool:
        """Whether ``order`` places every node after all its ancestors."""
        position = {node: i for i, node in enumerate(order)}
        if set(position) != set(self._succ):
            return False
        return all(
            position[source] < position[target]
            for source, target in self.edges
        )

    def subgraph_on(self, nodes: Iterable[Hashable]) -> "CausalGraph":
        """Induced subgraph on ``nodes``, in this graph's node order (so
        its orderings never depend on the caller's order or hash seed)."""
        nodes = list(nodes)
        for node in nodes:
            self._require(node)
        keep = set(nodes)
        edges = [(s, t) for s, t in self.edges if s in keep and t in keep]
        return CausalGraph([n for n in self._succ if n in keep], edges)

    # ------------------------------------------------------------------
    def _require(self, node: Hashable) -> None:
        if node not in self:
            raise ValidationError(f"unknown node {node!r}")

    @staticmethod
    def _reach(node: Hashable, adjacency: dict) -> set:
        """Every node reachable from ``node`` along ``adjacency``, excluding
        ``node`` itself."""
        seen: set = set()
        frontier = [node]
        while frontier:
            for nxt in adjacency[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n_edges = sum(len(t) for t in self._succ.values())
        return f"CausalGraph({len(self._succ)} nodes, {n_edges} edges)"
