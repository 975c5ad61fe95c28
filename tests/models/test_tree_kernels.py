"""Exactness contract of the vectorized tree-inference kernels.

The frontier-traversal kernels must be *bitwise* interchangeable with the
row-wise reference (``apply_row`` / ``apply_rowwise`` in
``rowwise_oracle.py``): identical leaf routing on threshold ties, NaN inputs
and single-node trees, and accumulated ensemble outputs identical to the
historical per-tree Python loops.
"""

from __future__ import annotations

import numpy as np
import pytest

from xaidb.models import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    EnsembleKernel,
    GradientBoostedClassifier,
    GradientBoostedRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from xaidb.models.tree import TreeStructure
from xaidb.utils.linalg import sigmoid

from .rowwise_oracle import apply_rowwise


# ---------------------------------------------------------------- helpers
def _random_structure(
    rng: np.random.Generator, n_features: int, max_depth: int
) -> TreeStructure:
    """A random (possibly degenerate) binary tree built directly, so the
    tests cover shapes the greedy CART builder would never emit —
    including depth-0 single-node trees and repeated thresholds."""
    left: list[int] = []
    right: list[int] = []
    feature: list[int] = []
    threshold: list[float] = []
    value: list[float] = []

    def grow(depth: int) -> int:
        index = len(feature)
        left.append(-1)
        right.append(-1)
        feature.append(-1)
        threshold.append(0.0)
        value.append(float(rng.normal()))
        if depth < max_depth and rng.random() < 0.8:
            feature[index] = int(rng.integers(n_features))
            # draw from a tiny grid so evaluation rows tie exactly
            threshold[index] = float(rng.choice([-0.5, 0.0, 0.25, 1.0]))
            left[index] = grow(depth + 1)
            right[index] = grow(depth + 1)
        return index

    grow(0)
    n_nodes = len(feature)
    return TreeStructure(
        children_left=np.asarray(left, dtype=int),
        children_right=np.asarray(right, dtype=int),
        feature=np.asarray(feature, dtype=int),
        threshold=np.asarray(threshold, dtype=float),
        value=np.asarray(value, dtype=float).reshape(-1, 1),
        n_node_samples=np.ones(n_nodes),
    )


def _adversarial_rows(
    rng: np.random.Generator, tree: TreeStructure, n_features: int
) -> np.ndarray:
    """Random rows plus rows pinned exactly on every split threshold
    (the ``<=`` tie boundary) and rows with NaN entries."""
    X = rng.normal(size=(32, n_features))
    internal = np.flatnonzero(tree.children_left >= 0)
    tie_rows = [
        np.full(n_features, tree.threshold[node]) for node in internal
    ]
    nan_rows = rng.normal(size=(8, n_features))
    nan_rows[rng.random(size=nan_rows.shape) < 0.3] = np.nan
    parts = [X, nan_rows] + ([np.asarray(tie_rows)] if tie_rows else [])
    return np.concatenate(parts)


# ------------------------------------------------- single-tree kernel
@pytest.mark.parametrize("max_depth", list(range(0, 13)))
def test_random_structure_apply_bitwise_matches_rowwise(max_depth):
    rng = np.random.default_rng(100 + max_depth)
    for trial in range(3):
        tree = _random_structure(rng, n_features=4, max_depth=max_depth)
        X = _adversarial_rows(rng, tree, n_features=4)
        assert np.array_equal(tree.apply(X), apply_rowwise(tree, X))


def test_single_node_tree_routes_everything_to_root():
    tree = _random_structure(np.random.default_rng(0), 3, max_depth=0)
    assert tree.node_count == 1
    X = np.asarray([[1.0, 2.0, 3.0], [np.nan, np.nan, np.nan]])
    assert np.array_equal(tree.apply(X), np.zeros(2, dtype=int))
    assert np.array_equal(tree.apply(X), apply_rowwise(tree, X))


def test_nan_rows_route_right_like_reference():
    """``NaN <= t`` is False in both paths, so NaN always goes right."""
    tree = TreeStructure(
        children_left=np.asarray([1, -1, -1]),
        children_right=np.asarray([2, -1, -1]),
        feature=np.asarray([0, -1, -1]),
        threshold=np.asarray([0.5, 0.0, 0.0]),
        value=np.asarray([[0.0], [1.0], [2.0]]),
        n_node_samples=np.asarray([3.0, 2.0, 1.0]),
    )
    X = np.asarray([[np.nan], [0.5], [0.50000000001]])
    leaves = tree.apply(X)
    assert np.array_equal(leaves, [2, 1, 2])  # tie goes left, NaN right
    assert np.array_equal(leaves, apply_rowwise(tree, X))


@pytest.mark.parametrize("max_depth", [1, 3, 6, None])
def test_fitted_trees_apply_matches_rowwise(max_depth):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(120, 5))
    y_reg = X[:, 0] - 2.0 * X[:, 2] + 0.1 * rng.normal(size=120)
    y_clf = (y_reg > 0).astype(int)
    for model in (
        DecisionTreeRegressor(max_depth=max_depth, random_state=0).fit(
            X, y_reg
        ),
        DecisionTreeClassifier(max_depth=max_depth, random_state=0).fit(
            X, y_clf
        ),
    ):
        X_test = _adversarial_rows(rng, model.tree_, 5)
        X_test = X_test[~np.isnan(X_test).any(axis=1)]  # models reject NaN
        assert np.array_equal(
            model.tree_.apply(X_test), apply_rowwise(model.tree_, X_test)
        )


def test_kernel_is_cached_per_structure():
    tree = _random_structure(np.random.default_rng(3), 4, max_depth=4)
    assert tree.kernel is tree.kernel
    assert isinstance(tree.kernel, EnsembleKernel)


# ------------------------------------------------- stacked ensemble kernel
def test_ensemble_apply_matches_per_tree_kernels():
    rng = np.random.default_rng(11)
    structures = [
        _random_structure(rng, 4, max_depth=depth) for depth in range(0, 8)
    ]
    kernel = EnsembleKernel.for_regressors(structures)
    X = np.concatenate(
        [_adversarial_rows(rng, tree, 4) for tree in structures]
    )
    stacked = kernel.apply(X)
    assert stacked.shape == (len(structures), X.shape[0])
    for t, tree in enumerate(structures):
        local = stacked[t] - kernel.offsets[t]
        assert np.array_equal(local, apply_rowwise(tree, X))
        assert np.array_equal(
            kernel.leaf_values(X)[t], tree.value[local, 0]
        )


def test_forest_classifier_proba_bitwise_matches_per_tree_loop():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(90, 4))
    # rare class 2 so some bootstrap trees miss it and need realignment
    y = (X[:, 0] > 0).astype(int)
    y[:4] = 2
    forest = RandomForestClassifier(
        n_estimators=12, max_depth=4, random_state=5
    ).fit(X, y)
    X_test = rng.normal(size=(40, 4))
    proba = forest.predict_proba(X_test)

    # the historical per-tree realignment loop, over the row-wise oracle
    reference = np.zeros((40, len(forest.classes_)))
    for estimator in forest.estimators_:
        leaves = apply_rowwise(estimator.tree_, X_test)
        codes = np.asarray(estimator.classes_, dtype=int)
        reference[:, codes] += estimator.tree_.value[leaves]
    reference /= len(forest.estimators_)

    assert np.array_equal(proba, reference)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-12)


def test_forest_regressor_bitwise_matches_per_tree_loop():
    rng = np.random.default_rng(22)
    X = rng.normal(size=(80, 3))
    y = X[:, 0] * X[:, 1] + 0.1 * rng.normal(size=80)
    forest = RandomForestRegressor(
        n_estimators=10, max_depth=5, random_state=6
    ).fit(X, y)
    X_test = rng.normal(size=(30, 3))
    reference = np.zeros(30)
    for estimator in forest.estimators_:
        leaves = apply_rowwise(estimator.tree_, X_test)
        reference += estimator.tree_.value[leaves, 0]
    reference /= len(forest.estimators_)
    assert np.array_equal(forest.predict(X_test), reference)


def test_gbm_regressor_bitwise_matches_stage_loop():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(80, 3))
    y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=80)
    gbm = GradientBoostedRegressor(
        n_estimators=15, max_depth=3, learning_rate=0.1, random_state=7
    ).fit(X, y)
    X_test = rng.normal(size=(30, 3))
    reference = np.full(30, gbm.init_score_)
    for stage in gbm.trees_:
        leaves = apply_rowwise(stage.tree_, X_test)
        reference += gbm.learning_rate * stage.tree_.value[leaves, 0]
    assert np.array_equal(gbm.predict(X_test), reference)


def test_gbm_classifier_bitwise_matches_stage_loop():
    rng = np.random.default_rng(24)
    X = rng.normal(size=(80, 3))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    gbm = GradientBoostedClassifier(
        n_estimators=12, max_depth=3, learning_rate=0.2, random_state=8
    ).fit(X, y)
    X_test = rng.normal(size=(30, 3))
    reference = np.full(30, gbm.init_score_)
    for stage in gbm.trees_:
        leaves = apply_rowwise(stage.tree_, X_test)
        reference += gbm.learning_rate * stage.tree_.value[leaves, 0]
    proba = gbm.predict_proba(X_test)[:, 1]
    assert np.array_equal(proba, sigmoid(reference))


def test_gbm_refit_resets_stage_kernel():
    """Refitting must rebuild the stacked kernel — stale leaf values
    from the previous fit would silently corrupt predictions."""
    rng = np.random.default_rng(25)
    X = rng.normal(size=(60, 2))
    y1 = X[:, 0]
    y2 = -X[:, 0]
    gbm = GradientBoostedRegressor(
        n_estimators=5, max_depth=2, random_state=9
    )
    first = gbm.fit(X, y1).predict(X)
    second = gbm.fit(X, y2).predict(X)
    assert not np.array_equal(first, second)
    reference = np.full(60, gbm.init_score_)
    for stage in gbm.trees_:
        reference += gbm.learning_rate * stage.tree_.value[
            apply_rowwise(stage.tree_, X), 0
        ]
    assert np.array_equal(second, reference)
