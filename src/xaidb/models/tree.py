"""CART decision trees (classification and regression).

The fitted tree is stored in flat parallel arrays (``children_left``,
``children_right``, ``feature``, ``threshold``, ``value``,
``n_node_samples``) — the same layout sklearn and XGBoost expose — because
white-box explainers traverse the structure directly:

- TreeSHAP (:mod:`xaidb.explainers.shapley.tree`) plans its
  polynomial-time leaf lanes over these arrays, using
  ``n_node_samples`` as the cover;
- logic-based sufficient reasons (:mod:`xaidb.rules.logic`) enumerate
  root-to-leaf paths;
- GBDT influence (:mod:`xaidb.datavaluation.tree_influence`) re-estimates
  leaf values with individual training points removed.

Every tree, forest member and GBM stage fits through one greedy CART
builder whose vectorized split search picks bitwise the split of a
per-threshold loop (the contract is on :meth:`_Builder._best_split`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.models.base import Classifier, Regressor
from xaidb.models.tree_kernels import EnsembleKernel
from xaidb.utils.rng import RandomState, check_random_state
from xaidb.utils.validation import check_array, check_fitted

__all__ = ["TreeStructure", "DecisionTreeClassifier", "DecisionTreeRegressor"]

_LEAF = -1


@dataclass
class TreeStructure:
    """Flat array representation of a fitted binary tree.

    ``value[node]`` is a vector: the class distribution for classifiers or
    a length-1 array holding the mean target for regressors.  Internal
    nodes send ``x[feature] <= threshold`` to ``children_left``.
    """

    children_left: np.ndarray
    children_right: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    n_node_samples: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.feature)

    def is_leaf(self, node: int) -> bool:
        return self.children_left[node] == _LEAF

    def leaves(self) -> list[int]:
        return [n for n in range(self.node_count) if self.is_leaf(n)]

    @property
    def kernel(self) -> EnsembleKernel:
        """Lazily built one-tree pack: the vectorized descent.

        Safe to cache: the routing arrays are immutable once the builder
        returns.  Only leaf *values* are ever rewritten, by the GBM's
        Newton step, and the pack is routing-only: it holds no values.
        """
        kernel = getattr(self, "_kernel", None)
        if kernel is None:
            kernel = EnsembleKernel([self])
            self._kernel = kernel
        return kernel

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row of ``X`` (fixed-depth descent — one
        vectorized step per depth level instead of one Python loop per
        row)."""
        return self.kernel.apply(X)[0]

    def decision_path(self, row: np.ndarray) -> list[int]:
        """The node sequence from root to the leaf reached by ``row``."""
        node = 0
        path = [0]
        while not self.is_leaf(node):
            if row[self.feature[node]] <= self.threshold[node]:
                node = self.children_left[node]
            else:
                node = self.children_right[node]
            path.append(node)
        return path

    def max_depth(self) -> int:
        """Depth of the deepest leaf (root at depth 0)."""
        return self.kernel.depth


class _Builder:
    """Greedy top-down CART builder shared by both task types."""

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

    def _node_stats(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        """The node's ``value`` vector and its impurity (gini for
        classifiers, variance for regressors) — one ``bincount`` serves
        both."""
        if self.is_classification:
            counts = np.bincount(y.astype(int), minlength=self.n_classes)
            proportions = counts / counts.sum()
            return proportions, float(1.0 - np.sum(proportions**2))
        return np.asarray([float(np.mean(y))]), float(np.var(y))

    def _grow(self, X: np.ndarray, y: np.ndarray, rows: np.ndarray, depth: int) -> int:
        y_node = y[rows]
        value, impurity = self._node_stats(y_node)
        node = len(self.feature)
        self.children_left.append(_LEAF)
        self.children_right.append(_LEAF)
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.value.append(value)
        self.n_node_samples.append(len(rows))
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or len(rows) < self.min_samples_split
            # xailint: disable=XDB006 (exact-zero impurity: node is pure by integer counts)
            or impurity == 0.0
        ):
            return node
        split = self._best_split(X, y_node, rows, impurity)
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
        self,
        X: np.ndarray,
        y_node: np.ndarray,
        rows: np.ndarray,
        parent_impurity: float,
    ):
        """Exhaustive best (feature, threshold) by weighted impurity decrease.

        Every candidate feature is sorted once (stable, so equal values
        keep row order) and all of them are scored in one
        ``(positions, features)`` gain matrix over prefix sums.  Position
        ``i`` puts sorted rows ``[0..i]`` left; it is admissible when both
        sides keep ``min_samples_leaf`` rows and ``value[i] !=
        value[i + 1]``.

        The gains are the per-threshold formulas evaluated elementwise in
        the same operation order, so the split is bitwise the one a loop
        with a strict ``gain > best_gain`` update picks (that loop is the
        test oracle, ``tests/models/cart_oracle.py``):

        - the first position (in sorted order) with the maximal gain
          wins within a feature, and a later candidate feature wins only
          with a strictly larger gain;
        - NaN and ``-inf`` gains (regression targets near the float
          range overflow the sums of squares) are never picked;
        - zero-gain splits of an impure node are accepted (as in classic
          CART), which is what lets greedy recursion crack XOR-style
          targets where no single split helps immediately.

        The candidate-feature draw happens before anything can return,
        so the forest's rng stream does not depend on which nodes have
        an admissible position.
        """
        features = self._candidate_features(X.shape[1])
        n = len(rows)
        leaf = self.min_samples_leaf
        positions = np.arange(leaf - 1, n - leaf)
        if positions.size == 0:
            return None
        values = X[rows[:, None], features]
        order = np.argsort(values, axis=0, kind="stable")
        sorted_values = values[order, np.arange(len(features))]
        sorted_y = y_node[order]
        n_left = (positions + 1)[:, None]
        n_right = n - n_left
        with np.errstate(over="ignore", invalid="ignore"):
            if self.is_classification:
                one_hot = sorted_y[:, :, None] == np.arange(self.n_classes)
                left_counts = np.cumsum(one_hot, axis=0, dtype=float)
                lc = left_counts[positions]
                rc = left_counts[-1] - lc
                # the class sums reduce a contiguous last axis, the same
                # reduction a 1-D ``np.sum`` over one position's counts runs
                gini_left = 1.0 - np.sum((lc / n_left[:, :, None]) ** 2, axis=-1)
                gini_right = 1.0 - np.sum((rc / n_right[:, :, None]) ** 2, axis=-1)
                # xailint: disable=XDB023 (a split is only scored when the node holds n >= 2 * min_samples_leaf rows)
                child_impurity = (n_left * gini_left + n_right * gini_right) / n
            else:
                cum_sum = np.cumsum(sorted_y, axis=0)
                cum_sq = np.cumsum(sorted_y**2, axis=0)
                sum_left = cum_sum[positions]
                sq_left = cum_sq[positions]
                sum_right = cum_sum[-1] - sum_left
                sq_right = cum_sq[-1] - sq_left
                # ``float_power`` calls the C library ``pow`` per element,
                # as the scalar ``mean ** 2`` does; an array ``** 2``
                # squares by multiplication, which rounds differently in
                # the last bit for about 0.1% of inputs
                var_left = sq_left / n_left - np.float_power(sum_left / n_left, 2)
                var_right = sq_right / n_right - np.float_power(sum_right / n_right, 2)
                # xailint: disable=XDB023 (a split is only scored when the node holds n >= 2 * min_samples_leaf rows)
                child_impurity = (n_left * var_left + n_right * var_right) / n
            gain = parent_impurity - child_impurity
        admissible = (
            sorted_values[positions] != sorted_values[positions + 1]
        ) & ~np.isnan(gain)
        # feature-major order, so ``argmax`` (first maximum) applies the
        # loop's tie-breaking across features as well as within one
        gain = np.where(admissible, gain, -np.inf).T.ravel()
        best = int(np.argmax(gain))
        if not gain[best] > -np.inf:
            return None
        column, i = divmod(best, len(positions))
        i += leaf - 1
        threshold = float(
            (sorted_values[i, column] + sorted_values[i + 1, column]) / 2.0
        )
        mask = values[:, column] <= threshold
        return int(features[column]), threshold, rows[mask], rows[~mask]


class _TreeParamsMixin:
    """Shared hyperparameter storage/validation for the two tree models."""

    def _init_params(
        self,
        max_depth,
        min_samples_split,
        min_samples_leaf,
        max_features,
        random_state,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValidationError("max_depth must be >= 1 or None")
        if min_samples_split < 2:
            raise ValidationError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValidationError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.tree_: TreeStructure | None = None

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index reached by each row."""
        check_fitted(self, ["tree_"])
        X = check_array(X, name="X", ndim=2)
        return self.tree_.apply(X)

    def decision_path(self, row: np.ndarray) -> list[int]:
        """Root-to-leaf node sequence for a single row."""
        check_fitted(self, ["tree_"])
        return self.tree_.decision_path(np.asarray(row, dtype=float))


class DecisionTreeClassifier(_TreeParamsMixin, Classifier):
    """CART classifier (gini impurity)."""

    def __init__(
        self,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        random_state: RandomState = None,
    ) -> None:
        self._init_params(
            max_depth, min_samples_split, min_samples_leaf, max_features, random_state
        )

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X, y = self._validate_fit_args(X, y)
        # unlike the parametric classifiers, a tree degrades gracefully to
        # a constant leaf on single-class data — random-forest bootstrap
        # samples of rare classes rely on this
        self.classes_ = np.unique(y)
        lookup = {label: index for index, label in enumerate(self.classes_)}
        y_index = np.asarray([lookup[label] for label in y], dtype=int)
        builder = _Builder(
            is_classification=True,
            n_classes=len(self.classes_),
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            rng=check_random_state(self.random_state),
        )
        self.tree_ = builder.build(X, y_index)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, ["tree_"])
        X = check_array(X, name="X", ndim=2)
        leaves = self.tree_.apply(X)
        return self.tree_.value[leaves]


class DecisionTreeRegressor(_TreeParamsMixin, Regressor):
    """CART regressor (variance reduction)."""

    def __init__(
        self,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        random_state: RandomState = None,
    ) -> None:
        self._init_params(
            max_depth, min_samples_split, min_samples_leaf, max_features, random_state
        )

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X, y = self._validate_fit_args(X, y)
        builder = _Builder(
            is_classification=False,
            n_classes=0,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            rng=check_random_state(self.random_state),
        )
        self.tree_ = builder.build(X, y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, ["tree_"])
        X = check_array(X, name="X", ndim=2)
        leaves = self.tree_.apply(X)
        return self.tree_.value[leaves, 0]
