"""Test-side exactness oracle for the vectorized CART split search.

:class:`OracleBuilder` is the greedy top-down CART builder with the
per-threshold scoring loop that ``xaidb.models.tree._Builder`` replaced:
it walks every admissible split position of every candidate feature one
at a time and keeps the first strictly larger gain.  The production
builder scores all positions at once and must produce bitwise-identical
trees — same splits, same thresholds, same leaf values, and the same
consumption of the feature-subsampling rng.  ``tests/models/
test_cart_oracle.py`` checks every ``TreeStructure`` array against this
oracle, for single trees directly and for forests and GBMs by swapping
the oracle in for ``_Builder``.
"""

from __future__ import annotations

import numpy as np

from xaidb.models.tree import _LEAF, TreeStructure

__all__ = ["OracleBuilder"]


class OracleBuilder:
    """The row-at-a-time CART builder: one Python iteration per candidate
    threshold.  Same constructor and ``build`` as ``xaidb.models.tree._Builder``."""

    def __init__(
        self,
        *,
        is_classification: bool,
        n_classes: int,
        max_depth: int | None,
        min_samples_split: int,
        min_samples_leaf: int,
        max_features: int | None,
        rng: np.random.Generator,
    ) -> None:
        self.is_classification = is_classification
        self.n_classes = n_classes
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng
        self.children_left: list[int] = []
        self.children_right: list[int] = []
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.value: list[np.ndarray] = []
        self.n_node_samples: list[int] = []

    # ------------------------------------------------------------------
    def build(self, X: np.ndarray, y: np.ndarray) -> TreeStructure:
        self._grow(X, y, np.arange(len(y)), depth=0)
        return TreeStructure(
            children_left=np.asarray(self.children_left, dtype=int),
            children_right=np.asarray(self.children_right, dtype=int),
            feature=np.asarray(self.feature, dtype=int),
            threshold=np.asarray(self.threshold, dtype=float),
            value=np.asarray(self.value, dtype=float),
            n_node_samples=np.asarray(self.n_node_samples, dtype=float),
        )

    def _node_value(self, y: np.ndarray) -> np.ndarray:
        if self.is_classification:
            counts = np.bincount(y.astype(int), minlength=self.n_classes)
            return counts / counts.sum()
        return np.asarray([float(np.mean(y))])

    def _impurity(self, y: np.ndarray) -> float:
        if self.is_classification:
            counts = np.bincount(y.astype(int), minlength=self.n_classes)
            proportions = counts / counts.sum()
            return float(1.0 - np.sum(proportions**2))
        return float(np.var(y))

    def _add_node(self, y: np.ndarray) -> int:
        index = len(self.feature)
        self.children_left.append(_LEAF)
        self.children_right.append(_LEAF)
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.value.append(self._node_value(y))
        self.n_node_samples.append(len(y))
        return index

    def _grow(self, X: np.ndarray, y: np.ndarray, rows: np.ndarray, depth: int) -> int:
        y_node = y[rows]
        node = self._add_node(y_node)
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or len(rows) < self.min_samples_split
            or self._impurity(y_node) == 0.0
        ):
            return node
        split = self._best_split(X, y, rows)
        if split is None:
            return node
        feature, threshold, left_rows, right_rows = split
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.children_left[node] = self._grow(X, y, left_rows, depth + 1)
        self.children_right[node] = self._grow(X, y, right_rows, depth + 1)
        return node

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        return self.rng.choice(n_features, size=self.max_features, replace=False)

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, rows: np.ndarray
    ):
        """Exhaustive best (feature, threshold) by weighted impurity decrease.

        Uses prefix sums over the per-feature sorted order so each feature
        costs O(n log n).
        """
        y_node = y[rows]
        n = len(rows)
        # accept any valid split of an impure node, preferring maximal
        # impurity decrease: zero-gain splits are allowed (as in classic
        # CART), which is what lets greedy recursion crack XOR-style
        # targets where no single split helps immediately
        best_gain = -np.inf
        best = None
        parent_impurity = self._impurity(y_node)
        for feature in self._candidate_features(X.shape[1]):
            values = X[rows, feature]
            order = np.argsort(values, kind="mergesort")
            sorted_values = values[order]
            sorted_y = y_node[order]
            if self.is_classification:
                one_hot = np.zeros((n, self.n_classes))
                one_hot[np.arange(n), sorted_y.astype(int)] = 1.0
                left_counts = np.cumsum(one_hot, axis=0)
                total = left_counts[-1]
            else:
                cum_sum = np.cumsum(sorted_y)
                cum_sq = np.cumsum(sorted_y**2)
            # candidate split after position i (left = [0..i], right = rest)
            for i in range(self.min_samples_leaf - 1, n - self.min_samples_leaf):
                if sorted_values[i] == sorted_values[i + 1]:
                    continue
                n_left = i + 1
                n_right = n - n_left
                if self.is_classification:
                    lc = left_counts[i]
                    rc = total - lc
                    gini_left = 1.0 - np.sum((lc / n_left) ** 2)
                    gini_right = 1.0 - np.sum((rc / n_right) ** 2)
                    child_impurity = (
                        n_left * gini_left + n_right * gini_right
                    ) / n
                else:
                    sum_left = cum_sum[i]
                    sq_left = cum_sq[i]
                    sum_right = cum_sum[-1] - sum_left
                    sq_right = cum_sq[-1] - sq_left
                    var_left = sq_left / n_left - (sum_left / n_left) ** 2
                    var_right = sq_right / n_right - (sum_right / n_right) ** 2
                    child_impurity = (
                        n_left * var_left + n_right * var_right
                    ) / n
                gain = parent_impurity - child_impurity
                if gain > best_gain:
                    best_gain = gain
                    threshold = (sorted_values[i] + sorted_values[i + 1]) / 2.0
                    best = (int(feature), float(threshold), i)
        if best is None:
            return None
        feature, threshold, _ = best
        mask = X[rows, feature] <= threshold
        return feature, threshold, rows[mask], rows[~mask]
