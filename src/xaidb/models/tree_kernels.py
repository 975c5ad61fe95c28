"""Batched tree-inference kernels (level-synchronous frontier traversal).

Every perturbation explainer in the survey is model-evaluation-bound: a
single KernelSHAP or Anchors call pushes 10^4-10^5 synthetic rows
through ``predict_proba``.  The seed implementation walked one Python
``while`` loop per row (:meth:`TreeStructure.apply_row`), so inference
cost was interpreter overhead, not arithmetic.  The kernels here replace
the n-row Python loop with ~``max_depth`` vectorized frontier steps —
``node = where(X[rows, feature[node]] <= threshold[node], left[node],
right[node])`` — over an *active set* that shrinks as rows land on
leaves, so total work is the sum of root-to-leaf path lengths, paid in
numpy instead of bytecode:

- :class:`TreeKernel` descends all rows of one tree simultaneously;
- :class:`EnsembleKernel` stacks every tree of a forest/GBM into one
  flat node arena (per-tree arrays concatenated with index offsets —
  the dense equivalent of padded ``(n_trees, max_nodes)`` tensors,
  without the padding waste), so a single traversal serves the whole
  ensemble, and the per-tree class-code realignment the forest
  previously re-derived with a Python loop per call is a precomputed
  scatter into the stacked value tensor.

Exactness contract (enforced by ``tests/models/test_tree_kernels.py``):
leaf routing is **bitwise identical** to the row-wise reference on
threshold ties (both use ``<=``), NaN inputs (``NaN <= t`` is False in
both, routing right) and single-node trees (zero traversal steps), and
accumulated probabilities/raw scores match the sequential reference
because per-tree contributions are summed in the same tree order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TreeKernel", "EnsembleKernel"]

_LEAF = -1


def _traverse(
    X: np.ndarray,
    row_of: np.ndarray,
    node: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    is_internal: np.ndarray,
) -> np.ndarray:
    """Advance every active (row, node) pair one level per iteration.

    ``node`` is mutated in place and returned; entries whose node is a
    leaf drop out of the active set, so each iteration only touches
    rows still descending.
    """
    active = np.flatnonzero(is_internal[node])
    while active.size:
        current = node[active]
        go_left = (
            X[row_of[active], feature[current]] <= threshold[current]
        )
        advanced = np.where(go_left, left[current], right[current])
        node[active] = advanced
        active = active[is_internal[advanced]]
    return node


class TreeKernel:
    """Vectorized ``apply`` for one :class:`~xaidb.models.tree.
    TreeStructure`.

    Caches only the *routing* arrays (children, split features,
    thresholds) — these are immutable once a tree is built.  Leaf
    values are deliberately not cached, so callers that re-estimate
    leaf values in place (the GBM's per-stage Newton step) always read
    fresh values through ``tree.value[kernel.apply(X)]``.
    """

    def __init__(self, tree) -> None:
        self.left = np.asarray(tree.children_left, dtype=np.intp)
        self.right = np.asarray(tree.children_right, dtype=np.intp)
        self.feature = np.asarray(tree.feature, dtype=np.intp)
        self.threshold = np.asarray(tree.threshold, dtype=float)
        self.is_internal = self.left != _LEAF

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row of ``X`` — the whole frontier at
        once."""
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        node = np.zeros(n, dtype=np.intp)
        return _traverse(
            X,
            np.arange(n),
            node,
            self.left,
            self.right,
            self.feature,
            self.threshold,
            self.is_internal,
        )


class EnsembleKernel:
    """Stacked traversal over all trees of a forest/GBM at once.

    The per-tree flat arrays are concatenated into one node arena with
    per-tree index offsets (child pointers rebased at pack time), and
    the frontier state is one flat ``(n_trees * n_rows,)`` node vector:
    a single vectorized step advances every row in every tree, and
    (tree, row) pairs retire from the active set the moment they reach
    their leaf.

    ``values`` is packed per tree by the factory helpers:

    - :meth:`for_forest_classifier` scatters each tree's local class
      distributions into the forest's full class space using the tree's
      fitted class codes — the precomputed replacement for the per-call
      realignment loop;
    - :meth:`for_regressors` stacks the scalar leaf values of
      forest-regressor / GBM stage trees.
    """

    def __init__(self, structures: list, values: np.ndarray) -> None:
        counts = np.asarray([tree.node_count for tree in structures])
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        self.n_trees = len(structures)
        self.offsets = offsets
        self.counts = counts
        # training covers, packed alongside the routing arrays: the
        # path-dependent TreeSHAP kernel weighs absent features by
        # cover ratios, so the arena carries them too
        self.covers = np.concatenate(
            [np.asarray(tree.n_node_samples) for tree in structures]
        )
        #: per-tree output scales (set by :meth:`for_terms`); ``None``
        #: for inference packs, which apply scales via ``accumulate``
        self.scales: np.ndarray | None = None
        #: structures derived from the immutable routing arrays, built
        #: once per pack by the kernels that need them (the TreeSHAP
        #: lane plans, keyed by tree range)
        self.plans: dict = {}
        left = []
        right = []
        feature = []
        threshold = []
        for tree, offset in zip(structures, offsets):
            child_left = np.asarray(tree.children_left, dtype=np.intp)
            child_right = np.asarray(tree.children_right, dtype=np.intp)
            internal = child_left != _LEAF
            # rebase child pointers into the arena; leaves keep _LEAF so
            # is_internal stays a single comparison on the packed array
            left.append(np.where(internal, child_left + offset, _LEAF))
            right.append(np.where(internal, child_right + offset, _LEAF))
            feature.append(np.asarray(tree.feature, dtype=np.intp))
            threshold.append(np.asarray(tree.threshold, dtype=float))
        self.left = np.concatenate(left)
        self.right = np.concatenate(right)
        self.feature = np.concatenate(feature)
        self.threshold = np.concatenate(threshold)
        self.is_internal = self.left != _LEAF
        self.values = values

    # ------------------------------------------------------------------
    @classmethod
    def for_forest_classifier(
        cls, estimators: list, n_classes: int
    ) -> "EnsembleKernel":
        """Pack fitted :class:`DecisionTreeClassifier` trees, realigning
        each tree's local class distributions into the forest's full
        class space (a bootstrap sample can miss classes; the tree's
        ``classes_`` are the forest-level integer codes it did see)."""
        structures = [tree.tree_ for tree in estimators]
        total_nodes = sum(tree.node_count for tree in structures)
        values = np.zeros((total_nodes, n_classes))
        start = 0
        for estimator in estimators:
            tree = estimator.tree_
            codes = np.asarray(estimator.classes_, dtype=int)
            values[start : start + tree.node_count][:, codes] = tree.value
            start += tree.node_count
        return cls(structures, values)

    @classmethod
    def for_regressors(cls, structures: list) -> "EnsembleKernel":
        """Pack regression trees (scalar leaf values) — forest
        regressors and GBM stages."""
        values = np.concatenate([tree.value[:, 0] for tree in structures])
        return cls(structures, values)

    @classmethod
    def for_terms(cls, terms: list) -> "EnsembleKernel":
        """Pack a :class:`TreeShapExplainer` term decomposition —
        ``(structure, leaf_scalars, scale)`` triples — into one arena.

        Unlike the inference factories, the scalar node values come
        from the explainer's decomposition (a class-probability column,
        a realigned bootstrap column, a GBM stage) rather than
        ``tree.value``, and the per-term output scales ride along in
        :attr:`scales` so the SHAP kernels can fold trees in term
        order.
        """
        structures = [tree for tree, _, _ in terms]
        values = np.concatenate(
            [np.asarray(leaf_scalars, dtype=float) for _, leaf_scalars, _ in terms]
        )
        kernel = cls(structures, values)
        kernel.scales = np.asarray([scale for _, _, scale in terms], dtype=float)
        return kernel

    # ------------------------------------------------------------------
    def apply(self, X: np.ndarray) -> np.ndarray:
        """Arena-global leaf index per (tree, row): shape
        ``(n_trees, n_rows)``.  Subtract :attr:`offsets` per tree to
        recover tree-local node ids."""
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        # every (tree, row) pair starts at that tree's root
        node = np.repeat(self.offsets.astype(np.intp), n)
        row_of = np.tile(np.arange(n), self.n_trees)
        _traverse(
            X,
            row_of,
            node,
            self.left,
            self.right,
            self.feature,
            self.threshold,
            self.is_internal,
        )
        return node.reshape(self.n_trees, n)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Per-tree leaf values for every row.

        Shape ``(n_trees, n_rows, n_classes)`` for classifier packs and
        ``(n_trees, n_rows)`` for regressor packs.
        """
        leaves = self.apply(X)
        return self.values[leaves]

    def accumulate(
        self, X: np.ndarray, out: np.ndarray, *, scale: float = 1.0
    ) -> np.ndarray:
        """Sum per-tree leaf values into ``out`` **in tree order**.

        Sequential per-tree addition (not ``np.sum``'s pairwise
        reduction) keeps the result bitwise identical to the historical
        one-tree-at-a-time accumulation loops; ``scale=1.0`` multiplies
        through bitwise-unchanged (values are finite), so one code path
        serves forests and GBM stages.
        """
        contributions = self.leaf_values(X)
        for t in range(self.n_trees):
            out += scale * contributions[t]
        return out
