"""The fixed-depth descent against the row-wise reference on packs that
mix depths: single-node trees, depth-16 unbalanced chains, depth-1
stumps and random trees in one arena.  Rows tie every threshold, carry
NaN at every level of every chain, and arrive C-ordered,
Fortran-ordered, strided and as integers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xaidb.exceptions import ValidationError
from xaidb.models import EnsembleKernel
from xaidb.models.tree import TreeStructure

from .rowwise_oracle import apply_rowwise

N_FEATURES = 16
CHAIN_DEPTH = 16
GRID = (-0.5, 0.0, 0.25, 1.0)


def _structure(left, right, feature, threshold) -> TreeStructure:
    n_nodes = len(feature)
    return TreeStructure(
        children_left=np.asarray(left, dtype=int),
        children_right=np.asarray(right, dtype=int),
        feature=np.asarray(feature, dtype=int),
        threshold=np.asarray(threshold, dtype=float),
        value=np.arange(n_nodes, dtype=float).reshape(-1, 1),
        n_node_samples=np.ones(n_nodes),
    )


def _random_tree(rng, max_depth: int) -> TreeStructure:
    left, right, feature, threshold = [], [], [], []

    def grow(depth: int) -> int:
        index = len(feature)
        left.append(-1)
        right.append(-1)
        feature.append(-2)
        threshold.append(-2.0)
        if depth < max_depth and rng.random() < 0.75:
            feature[index] = int(rng.integers(N_FEATURES))
            threshold[index] = float(rng.choice(GRID))
            left[index] = grow(depth + 1)
            right[index] = grow(depth + 1)
        return index

    grow(0)
    return _structure(left, right, feature, threshold)


def _chain(rng) -> tuple[TreeStructure, list[np.ndarray]]:
    """A depth-16 chain: level ``l`` splits on feature ``l``, one child
    is a leaf and the other carries on.  Also returns, per level, a row
    that follows the chain down to that level and is NaN there."""
    left, right, feature, threshold = [], [], [], []
    goes_on_left = rng.random(CHAIN_DEPTH) < 0.5
    path = np.zeros(N_FEATURES)
    for level in range(CHAIN_DEPTH):
        node = len(feature)
        t = float(rng.choice(GRID))
        feature.append(level)
        threshold.append(t)
        # the leaf sibling is node + 1, the chain continues at node + 2
        on, off = node + 2, node + 1
        left.append(on if goes_on_left[level] else off)
        right.append(off if goes_on_left[level] else on)
        feature.append(-2)
        threshold.append(-2.0)
        left.append(-1)
        right.append(-1)
        # a tie sends the row left, anything above the threshold right
        path[level] = t if goes_on_left[level] else t + 1.0
    feature.append(-2)
    threshold.append(-2.0)
    left.append(-1)
    right.append(-1)
    rows = [path.copy()]
    for level in range(CHAIN_DEPTH):
        row = path.copy()
        row[level] = np.nan
        rows.append(row)
    return _structure(left, right, feature, threshold), rows


def _stump(rng) -> TreeStructure:
    return _structure(
        [1, -1, -1],
        [2, -1, -1],
        [int(rng.integers(N_FEATURES)), -2, -2],
        [float(rng.choice(GRID)), -2.0, -2.0],
    )


def _single() -> TreeStructure:
    return _structure([-1], [-1], [-2], [-2.0])


def _pack(rng, kinds) -> tuple[list[TreeStructure], np.ndarray]:
    trees, rows = [], []
    for kind in kinds:
        if kind == "chain":
            tree, chain_rows = _chain(rng)
            rows.extend(chain_rows)
        elif kind == "stump":
            tree = _stump(rng)
        elif kind == "single":
            tree = _single()
        else:
            tree = _random_tree(rng, max_depth=int(rng.integers(1, 7)))
        trees.append(tree)
        internal = np.flatnonzero(tree.children_left >= 0)
        rows.extend(
            np.full(N_FEATURES, tree.threshold[node]) for node in internal
        )
    grid_rows = rng.choice(GRID, size=(12, N_FEATURES))
    nan_rows = rng.normal(size=(6, N_FEATURES))
    nan_rows[rng.random(nan_rows.shape) < 0.3] = np.nan
    rows.extend(grid_rows)
    rows.extend(nan_rows)
    rows.append(np.full(N_FEATURES, np.nan))
    return trees, np.asarray(rows, dtype=float)


def _layouts(X: np.ndarray) -> dict[str, np.ndarray]:
    n, d = X.shape
    wide = np.full((n, 2 * d), -7.0)
    wide[:, ::2] = X
    tall = np.full((2 * n, d), -7.0)
    tall[::2] = X
    return {
        "C": X,
        "F": np.asfortranarray(X),
        "column-strided": wide[:, ::2],
        "row-strided": tall[::2],
    }


KINDS = st.lists(
    st.sampled_from(["single", "chain", "stump", "random"]),
    min_size=1,
    max_size=7,
)


@settings(max_examples=40, deadline=None)
@given(kinds=KINDS, seed=st.integers(0, 2**16))
def test_descent_matches_rowwise_on_mixed_depth_packs(kinds, seed):
    rng = np.random.default_rng(seed)
    trees, X = _pack(rng, kinds)
    kernel = EnsembleKernel.for_regressors(trees)
    want = [apply_rowwise(tree, X) for tree in trees]
    for name, view in _layouts(X).items():
        stacked = kernel.apply(view)
        for t, tree in enumerate(trees):
            assert np.array_equal(stacked[t] - kernel.offsets[t], want[t]), name
            assert np.array_equal(tree.apply(view), want[t]), name


@settings(max_examples=20, deadline=None)
@given(kinds=KINDS, seed=st.integers(0, 2**16))
def test_descent_matches_rowwise_on_integer_rows(kinds, seed):
    rng = np.random.default_rng(seed)
    trees, _ = _pack(rng, kinds)
    X = rng.integers(-2, 3, size=(40, N_FEATURES))
    kernel = EnsembleKernel.for_regressors(trees)
    stacked = kernel.apply(X)
    for t, tree in enumerate(trees):
        want = apply_rowwise(tree, X)
        assert np.array_equal(stacked[t] - kernel.offsets[t], want)
        assert np.array_equal(tree.apply(X), want)
        assert np.array_equal(tree.apply(np.asfortranarray(X)), want)


def test_pack_depth_and_leaf_fixed_points():
    """The pack-time contract: depth is the deepest tree's, and every
    leaf steps to itself whatever its row holds (threshold ``+inf``,
    feature 0, both children itself)."""
    rng = np.random.default_rng(0)
    trees = [_single(), _stump(rng), _chain(rng)[0]]
    kernel = EnsembleKernel.for_regressors(trees)
    assert kernel.depth == CHAIN_DEPTH
    assert EnsembleKernel.for_regressors([_single(), _single()]).depth == 0
    assert EnsembleKernel.for_regressors([_stump(rng)]).depth == 1
    leaves = np.flatnonzero(~kernel.is_internal)
    assert np.all(kernel.step_threshold[leaves] == np.inf)
    assert np.all(kernel.step_feature[leaves] == 0)
    children = kernel.step_children.reshape(-1, 2)
    assert np.array_equal(children[leaves, 0], leaves)
    assert np.array_equal(children[leaves, 1], leaves)
    internal = np.flatnonzero(kernel.is_internal)
    structure_left = np.concatenate(
        [tree.children_left + offset for tree, offset in zip(trees, kernel.offsets)]
    )
    structure_right = np.concatenate(
        [tree.children_right + offset for tree, offset in zip(trees, kernel.offsets)]
    )
    assert np.array_equal(children[internal, 0], structure_left[internal])
    assert np.array_equal(children[internal, 1], structure_right[internal])
    # the single-node tree, the stump and the depth-16 chain
    assert (
        [tree.max_depth() for tree in trees]
        == [EnsembleKernel([tree]).depth for tree in trees]
        == [0, 1, CHAIN_DEPTH]
    )


def test_too_narrow_rows_are_rejected():
    """The flat gather would read a neighbouring row's cell; the
    descent refuses rows narrower than the widest split instead."""
    tree = _structure([1, -1, -1], [2, -1, -1], [3, -2, -2], [0.0, -2.0, -2.0])
    with pytest.raises(ValidationError, match="at least 4 columns"):
        tree.apply(np.zeros((5, 3)))
    assert np.array_equal(_single().apply(np.zeros((2, 0))), [0, 0])
