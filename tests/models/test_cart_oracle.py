"""The vectorized CART split search is bitwise the per-threshold loop.

Every fitted ``TreeStructure`` array — children, features, thresholds,
leaf values, covers — must equal byte for byte what
:class:`tests.models.cart_oracle.OracleBuilder` builds, including the
tie-breaking (first maximal position, earlier feature on equal gains),
the NaN / ``-inf`` gains of overflowing regression targets, and the
feature-subsampling rng stream that forests and GBMs share across nodes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xaidb.models import (
    GradientBoostedClassifier,
    GradientBoostedRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from xaidb.models import tree as tree_module
from xaidb.models.tree import _Builder

from .cart_oracle import OracleBuilder

_ARRAYS = (
    "children_left",
    "children_right",
    "feature",
    "threshold",
    "value",
    "n_node_samples",
)


def assert_trees_identical(tree, reference) -> None:
    for name in _ARRAYS:
        got, want = getattr(tree, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def _build(builder_cls, X, y, *, classification, n_classes=0, seed=0, **params):
    config = dict(
        max_depth=None, min_samples_split=2, min_samples_leaf=1, max_features=None
    )
    config.update(params)
    builder = builder_cls(
        is_classification=classification,
        n_classes=n_classes,
        rng=np.random.default_rng(seed),
        **config,
    )
    return builder.build(np.asarray(X, dtype=float), np.asarray(y)), builder.rng


def assert_matches_oracle(X, y, *, classification, **params) -> None:
    n_classes = int(np.max(y)) + 1 if classification else 0
    tree, rng = _build(
        _Builder, X, y, classification=classification, n_classes=n_classes, **params
    )
    reference, reference_rng = _build(
        OracleBuilder, X, y, classification=classification, n_classes=n_classes,
        **params,
    )
    assert_trees_identical(tree, reference)
    # the candidate-feature draws consumed the stream identically
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def _dataset(seed, n, d, *, levels=None, n_classes=None, scale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if levels is not None:  # few distinct values: ties and skipped positions
        X = np.round(X * levels / 3.0)
    if n_classes is not None:
        y = rng.integers(0, n_classes, size=n)
        y[: n_classes] = np.arange(n_classes)  # every class present
        return X, y
    return X, scale * (X[:, 0] - 0.5 * X[:, -1] + rng.normal(size=n))


@pytest.mark.parametrize("min_samples_leaf", [1, 3, 7])
@pytest.mark.parametrize("n_classes", [2, 3, 4, 5])
@pytest.mark.parametrize("levels", [None, 2])
def test_classifier_trees_match_oracle(n_classes, min_samples_leaf, levels):
    X, y = _dataset(n_classes * 10 + min_samples_leaf, 90, 4,
                    levels=levels, n_classes=n_classes)
    assert_matches_oracle(
        X, y, classification=True, min_samples_leaf=min_samples_leaf
    )


@pytest.mark.parametrize("min_samples_leaf", [1, 3, 7])
@pytest.mark.parametrize("levels", [None, 2])
def test_regressor_trees_match_oracle(min_samples_leaf, levels):
    X, y = _dataset(min_samples_leaf, 90, 4, levels=levels)
    assert_matches_oracle(
        X, y, classification=False, min_samples_leaf=min_samples_leaf
    )


@pytest.mark.parametrize("classification", [True, False])
@pytest.mark.parametrize("max_features", [1, 2, 3])
def test_feature_subsampling_matches_oracle(classification, max_features):
    n_classes = 3 if classification else None
    for seed in range(4):
        X, y = _dataset(seed, 70, 5, levels=3, n_classes=n_classes)
        assert_matches_oracle(
            X, y, classification=classification, max_features=max_features,
            seed=seed, min_samples_leaf=2,
        )


@pytest.mark.parametrize("classification", [True, False])
def test_tied_gains_and_constant_columns(classification):
    rng = np.random.default_rng(3)
    base = np.round(rng.normal(size=(60, 2)) * 2)
    # a constant column, a duplicate column (equal gains across features:
    # the earlier one wins) and a mirrored column (mirror-image splits)
    X = np.column_stack([np.ones(60), base[:, 0], base[:, 0], -base[:, 0], base[:, 1]])
    y = (base[:, 0] + base[:, 1] > 0).astype(int) if classification else base @ [1.0, 2.0]
    for max_features in (None, 2):
        assert_matches_oracle(
            X, y, classification=classification, max_features=max_features
        )
    # every column constant: no admissible position anywhere, one leaf
    assert_matches_oracle(np.ones((10, 3)), y[:10], classification=classification)


def test_impure_nodes_without_admissible_positions_keep_the_rng_stream():
    # duplicated inputs with conflicting labels: impure nodes where no
    # position is admissible still draw their candidate features
    rng = np.random.default_rng(5)
    X = np.repeat(np.round(rng.normal(size=(12, 4))), 3, axis=0)
    y = rng.integers(0, 2, size=36)
    for seed in range(5):
        assert_matches_oracle(
            X, y, classification=True, max_features=2, seed=seed
        )


@pytest.mark.parametrize("scale", [1e153, 1e154, 1e155, 1e156])
def test_overflowing_regression_targets_match_oracle(scale):
    # sums of squares overflow to inf; gains turn NaN or -inf and must
    # never be picked
    X, y = _dataset(11, 60, 3, levels=4, scale=scale)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_matches_oracle(X, y, classification=False, min_samples_leaf=2)


def test_nan_gains_are_never_picked():
    # the squares of the three large targets overflow in one summation
    # order and not in another: feature 0's sort order turns its last
    # admissible gain NaN while feature 1 (row order 1, 2, 0) keeps
    # finite gains; a plain argmax would stop at the NaN
    y = np.array(
        [float.fromhex(h) for h in (
            "0x1.2765331fbeec1p+511", "0x1.273ab1c471081p+511",
            "0x1.282f3e65ee53bp+511")] + [0.0]
    )
    X = np.array([[0.0, 2.0], [1.0, 0.0], [2.0, 1.0], [3.0, 3.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert_matches_oracle(X, y, classification=False)
        tree, __ = _build(_Builder, X, y, classification=False)
    assert tree.feature[0] == 1


_NEAR_TIES = {
    # squaring a child mean by multiplication instead of the loop's
    # scalar ``pow`` changes the last bit of a gain on these, and that
    # flips a near-tie between splits: the left mean on the first, the
    # right mean on the second (whose last column mirrors the first)
    "left": (
        [[-4, -2], [1, 6], [5, -1], [-1, 3], [0, -2], [-1, 0], [3, -1],
         [0, 0], [1, 2], [4, 3], [-1, 0], [-3, 1], [-1, -4], [2, 0], [0, 4],
         [0, 0], [0, -4], [-3, -3]],
        [-0.00047507438572701833, -0.00022998863213595383,
         0.00019140380080648586, 0.001782487634234499, 0.0009691279853835822,
         0.0010008149221564702, 0.0019177247674050278, -0.000269743861079957,
         -0.0012913003702768246, -0.0007765730153546077,
         -0.0013595682180646204, 0.000742263743198865, -0.000546037621834987,
         -0.00125918937505198, 0.0010942983303582387, -0.0003424755986873393,
         0.0014036586417502778, -4.569059277477402e-05],
    ),
    "right": (
        [[3, 0, -1, -3], [-2, 1, 2, 2], [0, 1, -3, 0], [-2, 0, -1, 2],
         [2, 1, -1, -2]],
        [1.9017288910454202, 0.26587895133696576, -1.408242177485427,
         0.5154124695163501, -1.0176631095793918],
    ),
}


@pytest.mark.parametrize("case", sorted(_NEAR_TIES))
def test_child_mean_squares_round_like_the_scalar_loop(case):
    X, y = _NEAR_TIES[case]
    assert_matches_oracle(
        np.asarray(X, dtype=float), np.asarray(y), classification=False
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 40),
    d=st.integers(1, 4),
    levels=st.sampled_from([None, 1, 3]),
    n_classes=st.sampled_from([None, 2, 3, 5]),
    min_samples_leaf=st.sampled_from([1, 3, 7]),
    max_features=st.sampled_from([None, 1, 2]),
    max_depth=st.sampled_from([None, 2]),
)
def test_random_trees_match_oracle(
    seed, n, d, levels, n_classes, min_samples_leaf, max_features, max_depth
):
    n_classes = None if n_classes is None else min(n_classes, n)
    X, y = _dataset(seed, n, d, levels=levels, n_classes=n_classes)
    assert_matches_oracle(
        X, y, classification=n_classes is not None, seed=seed,
        min_samples_leaf=min_samples_leaf, max_features=max_features,
        max_depth=max_depth,
    )


def _ensemble_trees(model):
    members = getattr(model, "estimators_", None) or model.trees_
    return [member.tree_ for member in members]


@pytest.mark.parametrize(
    "make_model, classification",
    [
        (lambda: RandomForestClassifier(n_estimators=4, random_state=0), True),
        (lambda: RandomForestClassifier(
            n_estimators=3, max_depth=4, min_samples_leaf=3, random_state=1), True),
        (lambda: RandomForestRegressor(n_estimators=3, random_state=2), False),
        (lambda: GradientBoostedClassifier(
            n_estimators=5, subsample=0.8, random_state=3), True),
        (lambda: GradientBoostedRegressor(
            n_estimators=5, max_depth=4, random_state=4), False),
    ],
)
def test_ensembles_match_oracle(income, monkeypatch, make_model, classification):
    X = income.dataset.X[:150]
    y = income.dataset.y[:150] if classification else X[:, 0] * 2.0 - X[:, 1]
    model = make_model().fit(X, y)
    oracle_builds = []

    class CountingOracle(OracleBuilder):
        def build(self, X, y):
            oracle_builds.append(len(y))
            return super().build(X, y)

    # every member tree resolves the builder through the module global
    monkeypatch.setattr(tree_module, "_Builder", CountingOracle)
    reference = make_model().fit(X, y)
    trees, reference_trees = _ensemble_trees(model), _ensemble_trees(reference)
    assert len(trees) == len(reference_trees) == len(oracle_builds)
    for tree, reference_tree in zip(trees, reference_trees):
        assert_trees_identical(tree, reference_tree)
