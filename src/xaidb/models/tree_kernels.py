"""Batched tree-inference kernels (fixed-depth descent).

Every perturbation explainer in the survey is model-evaluation-bound: a
single KernelSHAP or Anchors call pushes 10^4-10^5 synthetic rows
through ``predict_proba``.  The seed implementation walked one Python
``while`` loop per row, so inference cost was interpreter overhead, not
arithmetic.  :class:`EnsembleKernel` replaces the n-row Python loop with
``depth`` vectorized steps over every (tree, row) pair at once.

It stacks every tree of a forest/GBM into one flat node arena (per-tree
arrays concatenated with index offsets, no padding), so a single descent
serves the whole ensemble, and the per-tree class-code realignment the
forest previously re-derived with a Python loop per call is a
precomputed scatter into the stacked value tensor.  A single tree is an
ensemble of one (:attr:`~xaidb.models.tree.TreeStructure.kernel`).

At pack time each leaf becomes a fixed point of the step: its threshold
is ``+inf``, its split feature ``0`` and both its children point to
itself, and the pack's maximum depth is computed once.  A step is then

``node = children[2 * node + ~(Xflat[base + feature[node]] <=
threshold[node])]``

over one C-ordered ``X.ravel()`` (``base`` is the row's offset in it)
and the interleaved ``(left, right)`` child array.  A pair that lands
on a leaf early keeps stepping in place (``x <= +inf`` holds, and ``NaN`` goes right, to the
same leaf) until ``depth`` steps have passed.  These step arrays and
``is_internal`` are the arena's only routing format: at internal nodes
they hold the tree's own children (rebased), split features and
thresholds, which is all the TreeSHAP plans read.

Exactness contract (enforced by ``tests/models/test_tree_kernels.py``
against the row-wise walk in ``tests/models/rowwise_oracle.py``): leaf
routing is **bitwise identical** to the row-wise walk on threshold ties
(both use ``<=``), NaN inputs (``NaN <= t`` is False in both, routing
right) and single-node trees (a pack of them has depth 0 and takes no
step), and accumulated probabilities/raw scores match the sequential
per-tree loops because per-tree contributions are summed in the same
tree order.
"""

from __future__ import annotations

import numpy as np

from xaidb.exceptions import ValidationError

__all__ = ["EnsembleKernel"]

_LEAF = -1


class EnsembleKernel:
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

    A routing-only pack (``values=None``, the one-tree pack behind
    :attr:`~xaidb.models.tree.TreeStructure.kernel`) holds no leaf
    values at all: the GBM's Newton step rewrites a stage tree's values
    in place after its first ``apply``, so callers read them fresh
    through ``tree.value[tree.apply(X)]``.
    """

    def __init__(self, structures: list, values: np.ndarray | None = None) -> None:
        counts = np.asarray([tree.node_count for tree in structures])
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.intp)
        self.n_trees = len(structures)
        #: each tree's root: the arena id its descent starts from
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
        left = np.concatenate(
            [np.asarray(tree.children_left, dtype=np.intp) for tree in structures]
        )
        right = np.concatenate(
            [np.asarray(tree.children_right, dtype=np.intp) for tree in structures]
        )
        feature = np.concatenate(
            [np.asarray(tree.feature, dtype=np.intp) for tree in structures]
        )
        threshold = np.concatenate(
            [np.asarray(tree.threshold, dtype=float) for tree in structures]
        )
        internal = left != _LEAF
        self.is_internal = internal
        rebase = np.repeat(offsets, counts)
        nodes = np.arange(left.shape[0], dtype=np.intp)
        #: interleaved ``(left, right)`` children, rebased into the arena
        #: and leaves pointing to themselves:
        #: ``step_children[2 * node + goes_right]``
        self.step_children = np.stack(
            [
                np.where(internal, left + rebase, nodes),
                np.where(internal, right + rebase, nodes),
            ],
            axis=1,
        ).ravel()
        self.step_feature = np.where(internal, feature, 0)
        self.step_threshold = np.where(internal, threshold, np.inf)
        #: the narrowest ``X`` the splits can read
        self.n_split_features = int(self.step_feature[internal].max(initial=-1)) + 1
        pairs = self.step_children.reshape(-1, 2)
        depth = 0
        level = offsets[internal[offsets]]
        while level.size:
            depth += 1
            level = pairs[level].ravel()
            level = level[internal[level]]
        #: steps every (tree, row) pair takes: the deepest leaf's depth
        self.depth = depth
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
        recover tree-local node ids.  Every pair starts at its tree's
        root and steps :attr:`depth` times."""
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] < self.n_split_features:
            raise ValidationError(
                f"X must be 2-D with at least {self.n_split_features} "
                f"columns; got shape {X.shape}"
            )
        n, d = X.shape
        flat = X.ravel()
        node = np.repeat(self.offsets, n)
        # each pair's row offset into ``flat``
        base = np.tile(np.arange(n, dtype=np.intp) * d, self.n_trees)
        children = self.step_children
        feature = self.step_feature
        threshold = self.step_threshold
        for _ in range(self.depth):
            goes_left = flat[base + feature[node]] <= threshold[node]
            node = children[2 * node + ~goes_left]
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
