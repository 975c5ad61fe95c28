"""TreeSHAP: polynomial-time Shapley values for tree ensembles
(Lundberg, Erion & Lee 2018; Lundberg et al. 2020).

Two variants, matching the two value functions used in practice:

- **path-dependent** (:func:`path_dependent_tree_shap`): the conditional
  expectation follows the tree's own cover statistics (``n_node_samples``)
  when a feature is absent.  This is the O(T L D^2) EXTEND/UNWIND
  recursion of Algorithm 2 — the "polynomial-time algorithm that exploits
  properties of the tree structure" the tutorial highlights.
  :class:`TreeShapExplainer` runs the same arithmetic through the
  vectorized kernel in :mod:`~xaidb.explainers.shapley.tree_shap_kernels`;
  the recursion is its exactness oracle.
- **interventional** (:func:`interventional_tree_shap`): the marginal
  expectation over an explicit background set.  For each background row
  the tree's value function is an AND-game over the features where the
  instance and the background row diverge, whose Shapley values have a
  closed form — giving an O(T L D) algorithm per background row.

Both are validated in the test-suite against brute-force enumeration over
:func:`tree_expected_value` (Algorithm 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterable

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.explainers.base import Explainer, FeatureAttribution
from xaidb.models.forest import RandomForestClassifier, RandomForestRegressor
from xaidb.models.gbm import GradientBoostedClassifier, GradientBoostedRegressor
from xaidb.models.tree import DecisionTreeClassifier, DecisionTreeRegressor, TreeStructure
from xaidb.models.tree_kernels import EnsembleKernel
from xaidb.utils.validation import check_array

__all__ = [
    "tree_expected_value",
    "path_dependent_tree_shap",
    "interventional_tree_shap",
    "TreeShapExplainer",
]


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
# Algorithm 2: path-dependent TreeSHAP
# ----------------------------------------------------------------------
@dataclass
class _PathElement:
    feature: int  # -1 for the dummy root element
    zero_fraction: float
    one_fraction: float
    weight: float


def _extend(
    path: list[_PathElement], pz: float, po: float, feature: int
) -> list[_PathElement]:
    length = len(path)
    out = [
        _PathElement(e.feature, e.zero_fraction, e.one_fraction, e.weight)
        for e in path
    ]
    out.append(_PathElement(feature, pz, po, 1.0 if length == 0 else 0.0))
    for i in range(length - 1, -1, -1):
        out[i + 1].weight += po * out[i].weight * (i + 1) / (length + 1)
        out[i].weight = pz * out[i].weight * (length - i) / (length + 1)
    return out


def _unwind(path: list[_PathElement], index: int) -> list[_PathElement]:
    last = len(path) - 1
    out = [
        _PathElement(e.feature, e.zero_fraction, e.one_fraction, e.weight)
        for e in path
    ]
    one = out[index].one_fraction
    zero = out[index].zero_fraction
    carry = out[last].weight
    for j in range(last - 1, -1, -1):
        # xailint: disable=XDB006 (exact-zero zero-fraction guard in the path unwind)
        if one != 0.0:
            tmp = out[j].weight
            out[j].weight = carry * (last + 1) / ((j + 1) * one)
            # xailint: disable=XDB023 (UNWIND precondition: a path entry with both fractions 0 is never extended)
            carry = tmp - out[j].weight * zero * (last - j) / (last + 1)
        else:
            out[j].weight = out[j].weight * (last + 1) / (zero * (last - j))
    for j in range(index, last):
        out[j].feature = out[j + 1].feature
        out[j].zero_fraction = out[j + 1].zero_fraction
        out[j].one_fraction = out[j + 1].one_fraction
    return out[:last]


def path_dependent_tree_shap(
    tree: TreeStructure,
    leaf_values: np.ndarray,
    x: np.ndarray,
    n_features: int,
) -> np.ndarray:
    """Per-feature Shapley values of one tree's path-dependent game."""
    phi = np.zeros(n_features)
    cover = tree.n_node_samples

    def recurse(
        node: int,
        path: list[_PathElement],
        pz: float,
        po: float,
        feature: int,
    ) -> None:
        path = _extend(path, pz, po, feature)
        if tree.is_leaf(node):
            value = float(leaf_values[node])
            for i in range(1, len(path)):
                unwound = _unwind(path, i)
                total = sum(e.weight for e in unwound)
                element = path[i]
                phi[element.feature] += (
                    total * (element.one_fraction - element.zero_fraction) * value
                )
            return
        split = int(tree.feature[node])
        left = int(tree.children_left[node])
        right = int(tree.children_right[node])
        go_left = x[split] <= tree.threshold[node]
        incoming_zero = incoming_one = 1.0
        existing = next(
            (i for i in range(1, len(path)) if path[i].feature == split), None
        )
        if existing is not None:
            incoming_zero = path[existing].zero_fraction
            incoming_one = path[existing].one_fraction
            path = _unwind(path, existing)
        # Children are visited left-then-right (not hot-then-cold): the
        # DFS leaf order is then a property of the tree alone, which is
        # what lets tree_shap_kernels vectorize the traversal across
        # rows.  Only the accumulation order of phi changes (last-ulp);
        # every leaf's contribution is identical either way.
        hot_one = incoming_one
        recurse(
            left,
            path,
            incoming_zero * cover[left] / cover[node],
            hot_one if go_left else 0.0,
            split,
        )
        recurse(
            right,
            path,
            incoming_zero * cover[right] / cover[node],
            0.0 if go_left else hot_one,
            split,
        )

    recurse(0, [], 1.0, 1.0, -1)
    return phi


# ----------------------------------------------------------------------
# Interventional TreeSHAP (background-set marginal expectations)
# ----------------------------------------------------------------------
def _interventional_single(
    tree: TreeStructure,
    leaf_values: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    phi: np.ndarray,
) -> None:
    """Accumulate Shapley values of the game ``v(S) = f(x_S, z_{~S})``.

    Reaching a leaf requires following x's branch for a set ``A`` of
    features and z's branch for a set ``B``; the leaf's indicator game
    ``1[A ⊆ S, B ∩ S = ∅]`` has closed-form Shapley values
    ``+ (a-1)! b! / (a+b)!`` for members of ``A`` and
    ``- a! (b-1)! / (a+b)!`` for members of ``B``.
    """

    def recurse(node: int, need_x: list[int], need_z: list[int], assigned: dict) -> None:
        if tree.is_leaf(node):
            value = float(leaf_values[node])
            a, b = len(need_x), len(need_z)
            if a + b == 0:
                return  # x and z agree on this path: no attribution
            denom = factorial(a + b)
            if a:
                pos = factorial(a - 1) * factorial(b) / denom
                for feature in need_x:
                    phi[feature] += pos * value
            if b:
                neg = factorial(a) * factorial(b - 1) / denom
                for feature in need_z:
                    phi[feature] -= neg * value
            return
        feature = int(tree.feature[node])
        threshold = tree.threshold[node]
        left = int(tree.children_left[node])
        right = int(tree.children_right[node])
        x_child = left if x[feature] <= threshold else right
        z_child = left if z[feature] <= threshold else right
        if x_child == z_child:
            recurse(x_child, need_x, need_z, assigned)
            return
        choice = assigned.get(feature)
        if choice == "x":
            recurse(x_child, need_x, need_z, assigned)
        elif choice == "z":
            recurse(z_child, need_x, need_z, assigned)
        else:
            # Divergent children are explored left-then-right (not
            # x-then-z) so the leaf visit order is a property of the
            # tree alone — the contract the vectorized kernel in
            # tree_shap_kernels relies on.  Contribution values are
            # unchanged; only their accumulation order moves (last-ulp).
            if x_child == left:
                assigned[feature] = "x"
                recurse(left, need_x + [feature], need_z, assigned)
                assigned[feature] = "z"
                recurse(right, need_x, need_z + [feature], assigned)
            else:
                assigned[feature] = "z"
                recurse(left, need_x, need_z + [feature], assigned)
                assigned[feature] = "x"
                recurse(right, need_x + [feature], need_z, assigned)
            del assigned[feature]

    recurse(0, [], [], {})


def interventional_tree_shap(
    tree: TreeStructure,
    leaf_values: np.ndarray,
    x: np.ndarray,
    background: np.ndarray,
) -> np.ndarray:
    """Shapley values of one tree under the marginal (interventional)
    value function, averaged over background rows."""
    x = check_array(x, name="x", ndim=1)
    background = check_array(background, name="background", ndim=2)
    phi = np.zeros(x.shape[0])
    # One fresh phi per background row, folded in sequentially: the
    # per-row partials are then well-defined quantities the vectorized
    # kernel (tree_shap_kernels.ensemble_interventional_shap) can
    # reproduce row-for-row before summing in the same order.
    for z in background:
        phi_z = np.zeros(x.shape[0])
        _interventional_single(tree, leaf_values, x, z, phi_z)
        phi += phi_z
    return phi / background.shape[0]


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

    def model_output(self, instance: np.ndarray) -> float:
        """The explained quantity at ``instance``."""
        total = self.offset_
        for tree, leaf_values, scale in self.terms_:
            total += scale * float(leaf_values[tree.apply_row(instance)])
        return total

    def explain(self, instance: np.ndarray) -> FeatureAttribution:
        """Path-dependent TreeSHAP attribution of one row.

        A batch of one through :meth:`explain_batch`: the leaf-lane
        kernel has no per-call cost that a single row would have to
        amortise, so one path serves single rows and whole tables.  The
        per-row recursion (:func:`path_dependent_tree_shap`, summed over
        :attr:`terms_`) is the exactness oracle, enforced bitwise in the
        test-suite.
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
        (:func:`path_dependent_tree_shap` summed over :attr:`terms_` in
        term order), whatever the rest of the batch holds.

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
        pack = self.pack_
        phi = ensemble_path_dependent_shap(pack, instances, n_features)
        base = self.expected_value()
        leaves = pack.apply(instances)
        predictions = np.full(instances.shape[0], self.offset_, dtype=float)
        for t, (_, _, scale) in enumerate(self.terms_):
            predictions += scale * pack.values[leaves[t]]
        return FeatureAttribution.fan_out(
            self.feature_names or [f"x{i}" for i in range(n_features)],
            phi,
            base_values=base,
            predictions=predictions,
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
        (:func:`interventional_tree_shap`) is kept only as the test
        suite's exactness oracle.
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
