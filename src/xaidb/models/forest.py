"""Random forests: bagged CART trees with per-split feature subsampling.

Prediction runs on a stacked :class:`~xaidb.models.tree_kernels.
EnsembleKernel`: all trees are packed into one flat, unpadded node
arena once per fit, so one fixed-depth descent serves the whole forest
and the per-tree class-code realignment is a precomputed index map
instead of a Python loop per call.
"""

from __future__ import annotations

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.models.base import Classifier, Regressor
from xaidb.models.tree import DecisionTreeClassifier, DecisionTreeRegressor
from xaidb.models.tree_kernels import EnsembleKernel
from xaidb.utils.rng import RandomState, check_random_state, spawn_seeds
from xaidb.utils.validation import check_array, check_fitted

__all__ = ["RandomForestClassifier", "RandomForestRegressor"]


class _ForestMixin:
    """Shared bagging machinery."""

    def _init_params(
        self,
        n_estimators,
        max_depth,
        min_samples_leaf,
        max_features,
        bootstrap,
        random_state,
    ) -> None:
        if n_estimators < 1:
            raise ValidationError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.estimators_: list | None = None
        self._ensemble_kernel: EnsembleKernel | None = None

    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return max(1, int(np.sqrt(n_features)))
        return min(self.max_features, n_features)

    def _fit_forest(self, X: np.ndarray, y: np.ndarray, tree_factory) -> None:
        rng = check_random_state(self.random_state)
        seeds = spawn_seeds(rng, self.n_estimators)
        n = len(y)
        self.estimators_ = []
        self._ensemble_kernel = None  # rebuilt lazily at first predict
        for seed in seeds:
            tree_rng = check_random_state(seed)
            if self.bootstrap:
                rows = tree_rng.integers(0, n, size=n)
            else:
                rows = np.arange(n)
            tree = tree_factory(seed)
            tree.fit(X[rows], y[rows])
            self.estimators_.append(tree)


class RandomForestClassifier(_ForestMixin, Classifier):
    """Bagged CART classifier; ``predict_proba`` averages tree leaf
    distributions (soft voting)."""

    def __init__(
        self,
        *,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        bootstrap: bool = True,
        random_state: RandomState = None,
    ) -> None:
        self._init_params(
            n_estimators,
            max_depth,
            min_samples_leaf,
            max_features,
            bootstrap,
            random_state,
        )

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X, y = self._validate_fit_args(X, y)
        y_index = self._encode_labels(y)
        max_features = self._resolve_max_features(X.shape[1])

        def factory(seed: int) -> DecisionTreeClassifier:
            return DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                random_state=seed,
            )

        self._fit_forest(X, y_index.astype(float), factory)
        # each tree re-encodes labels internally; they all see 0..k-1 codes
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, ["estimators_"])
        X = check_array(X, name="X", ndim=2)
        if self._ensemble_kernel is None:
            # bootstrap samples can miss classes; the kernel realigns by
            # each tree's fitted codes at pack time, once
            self._ensemble_kernel = EnsembleKernel.for_forest_classifier(
                self.estimators_, len(self.classes_)
            )
        total = np.zeros((X.shape[0], len(self.classes_)))
        self._ensemble_kernel.accumulate(X, total)
        # xailint: disable=XDB023 (a fitted forest holds at least one estimator)
        return total / len(self.estimators_)


class RandomForestRegressor(_ForestMixin, Regressor):
    """Bagged CART regressor; ``predict`` averages tree outputs."""

    def __init__(
        self,
        *,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        bootstrap: bool = True,
        random_state: RandomState = None,
    ) -> None:
        self._init_params(
            n_estimators,
            max_depth,
            min_samples_leaf,
            max_features,
            bootstrap,
            random_state,
        )

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X, y = self._validate_fit_args(X, y)
        max_features = self._resolve_max_features(X.shape[1])

        def factory(seed: int) -> DecisionTreeRegressor:
            return DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                random_state=seed,
            )

        self._fit_forest(X, y, factory)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, ["estimators_"])
        X = check_array(X, name="X", ndim=2)
        if self._ensemble_kernel is None:
            self._ensemble_kernel = EnsembleKernel.for_regressors(
                [tree.tree_ for tree in self.estimators_]
            )
        predictions = np.zeros(X.shape[0])
        self._ensemble_kernel.accumulate(X, predictions)
        # xailint: disable=XDB023 (a fitted forest holds at least one estimator)
        return predictions / len(self.estimators_)
