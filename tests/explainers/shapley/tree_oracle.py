"""Test-side exactness oracles for the TreeSHAP kernels: the per-row
recursions of Lundberg, Erion & Lee (2018).

- :func:`path_dependent_tree_shap` is the O(T L D^2) EXTEND/UNWIND
  recursion of Algorithm 2: absent features follow the tree's own cover
  statistics (``n_node_samples``).
- :func:`interventional_tree_shap` averages, over an explicit background
  set, the closed-form Shapley values of each leaf's AND-game over the
  features where the instance and a background row diverge.

Both visit children left-then-right, the leaf order the vectorized
kernels in :mod:`xaidb.explainers.shapley.tree_shap_kernels` fold in,
so the kernels must reproduce them bitwise (``np.array_equal``; signs of
exact zeros may differ where a kernel adds a masked ``0.0`` the
recursion skips).  The tests check them against brute-force
enumeration over :func:`~xaidb.explainers.shapley.tree.tree_expected_value`
and the kernels against them; benchmark A15 times the path-dependent
recursion as its "before" column.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from xaidb.models.tree import TreeStructure
from xaidb.utils.validation import check_array

__all__ = ["path_dependent_tree_shap", "interventional_tree_shap"]


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
