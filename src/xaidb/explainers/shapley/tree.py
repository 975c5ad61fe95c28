"""TreeSHAP: polynomial-time Shapley values for tree ensembles
(Lundberg, Erion & Lee 2018; Lundberg et al. 2020).

Two variants, matching the two value functions used in practice:

- **path-dependent** (:meth:`TreeShapExplainer.explain_batch`): the
  conditional expectation follows the tree's own cover statistics
  (``n_node_samples``) when a feature is absent.  This is the
  O(T L D^2) EXTEND/UNWIND arithmetic of Algorithm 2 — the
  "polynomial-time algorithm that exploits properties of the tree
  structure" the tutorial highlights — run as leaf lanes over the
  packed arena by
  :func:`~xaidb.explainers.shapley.tree_shap_kernels.ensemble_path_dependent_shap`.
- **interventional** (:meth:`TreeShapExplainer.explain_interventional`):
  the marginal expectation over an explicit background set.  For each
  background row the tree's value function is an AND-game over the
  features where the instance and the background row diverge, whose
  Shapley values have a closed form — giving an O(T L D) algorithm per
  background row.

The per-row recursions both kernels must reproduce bitwise live with the
tests (``tests/explainers/shapley/tree_oracle.py``), which also check
them against brute-force enumeration over :func:`tree_expected_value`
(Algorithm 1).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.explainers.base import Explainer, FeatureAttribution
from xaidb.models.forest import RandomForestClassifier, RandomForestRegressor
from xaidb.models.gbm import GradientBoostedClassifier, GradientBoostedRegressor
from xaidb.models.tree import DecisionTreeClassifier, DecisionTreeRegressor, TreeStructure
from xaidb.models.tree_kernels import EnsembleKernel
from xaidb.utils.validation import check_array

__all__ = ["tree_expected_value", "TreeShapExplainer"]


# ----------------------------------------------------------------------
# Algorithm 1: conditional expectation with a feature subset fixed
# ----------------------------------------------------------------------
def tree_expected_value(
    tree: TreeStructure,
    leaf_values: np.ndarray,
    x: np.ndarray,
    coalition: Iterable[int],
) -> float:
    """Path-dependent value function ``E[f(x) | x_S]`` (EXPVALUE).

    Features in ``coalition`` follow ``x``'s branch; absent features split
    probabilistically by training cover.  The exact-Shapley-over-subsets
    ground truth in the tests enumerates this function.
    """
    present = frozenset(coalition)

    def recurse(node: int) -> float:
        if tree.is_leaf(node):
            return float(leaf_values[node])
        feature = int(tree.feature[node])
        left = int(tree.children_left[node])
        right = int(tree.children_right[node])
        if feature in present:
            child = left if x[feature] <= tree.threshold[node] else right
            return recurse(child)
        cover = tree.n_node_samples
        return (
            cover[left] * recurse(left) + cover[right] * recurse(right)
        ) / cover[node]

    return recurse(0)


# ----------------------------------------------------------------------
# Public explainer over xaidb tree models
# ----------------------------------------------------------------------
_TreeTerm = tuple[TreeStructure, np.ndarray, float]  # (structure, leaf scalars, scale)


class TreeShapExplainer(Explainer):
    """SHAP values for xaidb tree models.

    Supported models and the output explained:

    ================================  =================================
    model                             explained quantity
    ================================  =================================
    DecisionTreeRegressor             predicted value
    DecisionTreeClassifier            probability of ``class_index``
    RandomForestRegressor             mean predicted value
    RandomForestClassifier            probability of ``class_index``
    GradientBoostedRegressor          predicted value
    GradientBoostedClassifier         raw log-odds margin (additive)
    ================================  =================================

    Parameters
    ----------
    model:
        A fitted tree model from :mod:`xaidb.models`.
    feature_names:
        Optional names for the attribution output.
    class_index:
        Which class probability to explain for classification trees and
        forests.
    """

    def __init__(
        self,
        model,
        *,
        feature_names: list[str] | None = None,
        class_index: int = 1,
    ) -> None:
        self.feature_names = feature_names
        self.class_index = class_index
        self.terms_, self.offset_, self.description_ = self._decompose(model)
        self._model = model
        self._pack_cache: "EnsembleKernel | None" = None
        self._expected_value_cache: float | None = None

    @property
    def pack_(self) -> "EnsembleKernel":
        """The term decomposition packed into one node arena (lazily
        built, cached — tree structures are immutable once fitted)."""
        if self._pack_cache is None:
            self._pack_cache = EnsembleKernel.for_terms(self.terms_)
        return self._pack_cache

    # ------------------------------------------------------------------
    def _decompose(self, model) -> tuple[list[_TreeTerm], float, str]:
        k = self.class_index
        if isinstance(model, DecisionTreeRegressor):
            return [(model.tree_, model.tree_.value[:, 0], 1.0)], 0.0, "value"
        if isinstance(model, DecisionTreeClassifier):
            return (
                [(model.tree_, model.tree_.value[:, k], 1.0)],
                0.0,
                f"P(class={k})",
            )
        if isinstance(model, RandomForestRegressor):
            # xailint: disable=XDB027 (a fitted forest holds at least one estimator)
            scale = 1.0 / len(model.estimators_)
            return (
                [(t.tree_, t.tree_.value[:, 0], scale) for t in model.estimators_],
                0.0,
                "value",
            )
        if isinstance(model, RandomForestClassifier):
            # xailint: disable=XDB027 (a fitted forest holds at least one estimator)
            scale = 1.0 / len(model.estimators_)
            terms = []
            for t in model.estimators_:
                # a bootstrap tree may have seen only a subset of classes;
                # locate the column for the forest-level class code k
                matches = np.flatnonzero(t.classes_ == float(k))
                if matches.size:
                    leaf_scalars = t.tree_.value[:, int(matches[0])]
                else:
                    leaf_scalars = np.zeros(t.tree_.node_count)
                terms.append((t.tree_, leaf_scalars, scale))
            return terms, 0.0, f"P(class={k})"
        if isinstance(model, (GradientBoostedRegressor, GradientBoostedClassifier)):
            terms = [
                (t.tree_, t.tree_.value[:, 0], model.learning_rate)
                for t in model.trees_
            ]
            kind = (
                "margin"
                if isinstance(model, GradientBoostedClassifier)
                else "value"
            )
            return terms, float(model.init_score_), kind
        raise ValidationError(
            f"TreeShapExplainer does not support {type(model).__name__}"
        )

    # ------------------------------------------------------------------
    def expected_value(self) -> float:
        """The path-dependent base value: cover-weighted mean output
        (computed once — tree structures are immutable once fitted)."""
        if self._expected_value_cache is None:
            total = self.offset_
            for tree, leaf_values, scale in self.terms_:
                leaves = tree.leaves()
                weights = tree.n_node_samples[leaves]
                total += scale * float(
                    np.average(leaf_values[leaves], weights=weights)
                )
            self._expected_value_cache = total
        return self._expected_value_cache

    def _check_width(self, n_features: int, name: str) -> None:
        """Reject instances whose width differs from the fitted model's."""
        expected = getattr(self._model, "n_features_in_", None)
        if expected is not None and n_features != expected:
            raise ValidationError(
                f"{name} has {n_features} features; the model was fitted "
                f"on {expected}"
            )

    def _predict(self, X: np.ndarray) -> np.ndarray:
        """The explained quantity for every row of ``X``: the offset
        plus each term's scaled leaf scalar, added in term order."""
        pack = self.pack_
        leaves = pack.apply(X)
        predictions = np.full(X.shape[0], self.offset_, dtype=float)
        for t, (_, _, scale) in enumerate(self.terms_):
            predictions += scale * pack.values[leaves[t]]
        return predictions

    def model_output(self, instance: np.ndarray) -> float:
        """The explained quantity at ``instance``."""
        return float(self._predict(np.asarray(instance, dtype=float)[None])[0])

    def explain(self, instance: np.ndarray) -> FeatureAttribution:
        """Path-dependent TreeSHAP attribution of one row.

        A batch of one through :meth:`explain_batch`: the leaf-lane
        kernel has no per-call cost that a single row would have to
        amortise, so one path serves single rows and whole tables.  The
        per-row recursion (``path_dependent_tree_shap`` summed over
        :attr:`terms_`, in ``tests/explainers/shapley/tree_oracle.py``)
        is the exactness oracle, enforced bitwise in the test-suite.
        """
        instance = check_array(instance, name="instance", ndim=1)
        return self.explain_batch(instance[None])[0]

    def explain_batch(
        self,
        instances: np.ndarray,
        *,
        seeds: "np.ndarray | list[int] | None" = None,
    ) -> list[FeatureAttribution]:
        """Path-dependent TreeSHAP for a whole batch of rows at once.

        Runs the leaf-lane kernel
        (:func:`~xaidb.explainers.shapley.tree_shap_kernels.ensemble_path_dependent_shap`)
        over the packed term decomposition; each row's attribution is
        bitwise identical to the recursion oracle
        (``path_dependent_tree_shap`` summed over :attr:`terms_` in term
        order), whatever the rest of the batch holds.

        ``seeds`` is accepted for interface parity with the sampled
        explainers' batched entry points (the service dispatcher threads
        per-instance seeds uniformly) and ignored — TreeSHAP is
        deterministic.
        """
        from xaidb.explainers.shapley.tree_shap_kernels import (
            ensemble_path_dependent_shap,
        )

        del seeds  # deterministic: nothing to seed
        instances = check_array(instances, name="instances", ndim=2)
        n_features = instances.shape[1]
        self._check_width(n_features, "instances")
        phi = ensemble_path_dependent_shap(self.pack_, instances, n_features)
        return FeatureAttribution.fan_out(
            self.feature_names or [f"x{i}" for i in range(n_features)],
            phi,
            base_values=self.expected_value(),
            predictions=self._predict(instances),
            metadata={
                "method": "tree_shap_path_dependent",
                "output": self.description_,
                "n_trees": len(self.terms_),
                "batched": True,
            },
        )

    def explain_interventional(
        self, instance: np.ndarray, background: np.ndarray
    ) -> FeatureAttribution:
        """Interventional TreeSHAP against an explicit background set.

        Routed through the vectorized kernel
        (:func:`~xaidb.explainers.shapley.tree_shap_kernels.ensemble_interventional_shap`),
        which evaluates every leaf's AND-game against the whole
        background at once.  The per-row recursion
        (``interventional_tree_shap`` in
        ``tests/explainers/shapley/tree_oracle.py``) is its exactness
        oracle.
        """
        from xaidb.explainers.shapley.tree_shap_kernels import (
            ensemble_interventional_shap,
        )

        instance = check_array(instance, name="instance", ndim=1)
        background = check_array(background, name="background", ndim=2)
        self._check_width(instance.shape[0], "instance")
        self._check_width(background.shape[1], "background")
        pack = self.pack_
        phi = ensemble_interventional_shap(pack, instance, background)
        base = self.offset_
        leaves = pack.apply(background)
        for t, (_, _, scale) in enumerate(self.terms_):
            base += scale * float(np.mean(pack.values[leaves[t]]))
        names = self.feature_names or [f"x{i}" for i in range(len(instance))]
        return FeatureAttribution(
            feature_names=list(names),
            values=phi,
            base_value=base,
            prediction=self.model_output(instance),
            metadata={
                "method": "tree_shap_interventional",
                "output": self.description_,
                "n_background": int(background.shape[0]),
            },
        )
