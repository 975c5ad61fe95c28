"""Batched tree-inference kernels (fixed-depth descent).

Every perturbation explainer in the survey is model-evaluation-bound: a
single KernelSHAP or Anchors call pushes 10^4-10^5 synthetic rows
through ``predict_proba``.  The seed implementation walked one Python
``while`` loop per row (:meth:`TreeStructure.apply_row`), so inference
cost was interpreter overhead, not arithmetic.  The kernels here replace
the n-row Python loop with ``depth`` vectorized steps over every
(tree, row) pair at once.

At pack time each leaf becomes a fixed point of the step: its threshold
is ``+inf``, its split feature ``0`` and both its children point to
itself, and the pack's maximum depth is computed once.  A step is then

``node = children[2 * node + ~(Xflat[base + feature[node]] <=
threshold[node])]``

over one C-ordered ``X.ravel()`` (``base`` is the row's offset in it)
and the interleaved ``(left, right)`` child array.  A pair that lands
on a leaf early keeps stepping in place (``x <= +inf`` holds, and ``NaN`` goes right, to the
same leaf) until ``depth`` steps have passed.

- :class:`TreeKernel` descends all rows of one tree;
- :class:`EnsembleKernel` stacks every tree of a forest/GBM into one
  flat node arena (per-tree arrays concatenated with index offsets —
  the dense equivalent of padded ``(n_trees, max_nodes)`` tensors,
  without the padding waste), so a single descent serves the whole
  ensemble, and the per-tree class-code realignment the forest
  previously re-derived with a Python loop per call is a precomputed
  scatter into the stacked value tensor.

Both keep the ``_LEAF``-sentinel ``left``/``right``/``is_internal``
arrays the TreeSHAP plans read; the self-looping step arrays sit beside
them.

Exactness contract (enforced by ``tests/models/test_tree_kernels.py``):
leaf routing is **bitwise identical** to the row-wise reference on
threshold ties (both use ``<=``), NaN inputs (``NaN <= t`` is False in
both, routing right) and single-node trees (a pack of them has depth 0
and takes no step), and accumulated probabilities/raw scores match the
sequential reference because per-tree contributions are summed in the
same tree order.
"""

from __future__ import annotations

import numpy as np

from xaidb.exceptions import ValidationError

__all__ = ["TreeKernel", "EnsembleKernel"]

_LEAF = -1


class _Descent:
    """The self-looping step arrays of a node arena and its depth.

    ``left``/``right`` are arena-global child pointers with ``_LEAF``
    at leaves; ``roots`` are the arena ids the descent starts from, one
    per tree.
    """

    def _pack_steps(
        self,
        left: np.ndarray,
        right: np.ndarray,
        feature: np.ndarray,
        threshold: np.ndarray,
        roots: np.ndarray,
    ) -> None:
        self.left = left
        self.right = right
        self.feature = feature
        self.threshold = threshold
        self.is_internal = left != _LEAF
        self.roots = np.asarray(roots, dtype=np.intp)
        internal = self.is_internal
        nodes = np.arange(left.shape[0], dtype=np.intp)
        #: interleaved ``(left, right)`` children, leaves pointing to
        #: themselves: ``step_children[2 * node + goes_right]``
        self.step_children = np.stack(
            [np.where(internal, left, nodes), np.where(internal, right, nodes)],
            axis=1,
        ).ravel()
        self.step_feature = np.where(internal, feature, 0)
        self.step_threshold = np.where(internal, threshold, np.inf)
        #: the narrowest ``X`` the splits can read
        self.n_split_features = int(feature[internal].max(initial=-1)) + 1
        depth = 0
        level = self.roots[internal[self.roots]]
        while level.size:
            depth += 1
            level = np.concatenate([left[level], right[level]])
            level = level[internal[level]]
        #: steps every (tree, row) pair takes: the deepest leaf's depth
        self.depth = depth

    def _descend(self, X: np.ndarray) -> np.ndarray:
        """Leaf per (tree, row) pair, tree-major: shape ``(n_trees *
        n_rows,)``.  Every pair starts at its tree's root and steps
        ``depth`` times."""
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] < self.n_split_features:
            raise ValidationError(
                f"X must be 2-D with at least {self.n_split_features} "
                f"columns; got shape {X.shape}"
            )
        n, d = X.shape
        flat = X.ravel()
        node = np.repeat(self.roots, n)
        # each pair's row offset into ``flat``
        base = np.tile(np.arange(n, dtype=np.intp) * d, self.roots.size)
        children = self.step_children
        feature = self.step_feature
        threshold = self.step_threshold
        for _ in range(self.depth):
            goes_left = flat[base + feature[node]] <= threshold[node]
            node = children[2 * node + ~goes_left]
        return node


class TreeKernel(_Descent):
    """Vectorized ``apply`` for one :class:`~xaidb.models.tree.
    TreeStructure`.

    Caches only the *routing* arrays (children, split features,
    thresholds) — these are immutable once a tree is built.  Leaf
    values are deliberately not cached, so callers that re-estimate
    leaf values in place (the GBM's per-stage Newton step) always read
    fresh values through ``tree.value[kernel.apply(X)]``.
    """

    def __init__(self, tree) -> None:
        self._pack_steps(
            np.asarray(tree.children_left, dtype=np.intp),
            np.asarray(tree.children_right, dtype=np.intp),
            np.asarray(tree.feature, dtype=np.intp),
            np.asarray(tree.threshold, dtype=float),
            np.zeros(1, dtype=np.intp),
        )

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row of ``X``."""
        return self._descend(X)


class EnsembleKernel(_Descent):
    """Stacked descent over all trees of a forest/GBM at once.

    The per-tree flat arrays are concatenated into one node arena with
    per-tree index offsets (child pointers rebased at pack time), and
    the descent state is one flat ``(n_trees * n_rows,)`` node vector:
    a single vectorized step advances every row in every tree, and the
    pack's depth — its deepest tree's — is the number of steps.

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
        self._pack_steps(
            np.concatenate(left),
            np.concatenate(right),
            np.concatenate(feature),
            np.concatenate(threshold),
            offsets.astype(np.intp),
        )
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
        return self._descend(X).reshape(self.n_trees, -1)

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
