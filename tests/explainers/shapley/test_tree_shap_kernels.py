"""The vectorized explainer kernels (benchmark A15's substrate).

Three contracts, each pinned bitwise:

- the leaf-lane path-dependent TreeSHAP kernel equals the retained
  recursion on every row (random trees depth 0-12 with threshold ties,
  NaN rows and single-node trees, plus fitted forests and GBMs of
  bounded and unbounded depth), whatever else the batch holds, and
  matches the brute-force Shapley over ``tree_expected_value`` on small
  trees; ``TreeShapExplainer.explain`` is the same kernel at batch one;
- the vectorized interventional kernel equals the retained
  per-background recursion;
- the stacked KernelSHAP batch solve equals the retained per-instance
  pipeline in both the exhaustive and sampled regimes, for any
  ``n_jobs``, with the coalition-mask arena shipping masks to workers
  as shared-memory references.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from xaidb.explainers.shapley import (
    KernelShapExplainer,
    TreeShapExplainer,
    banzhaf_values_sampled,
    ensemble_interventional_shap,
    ensemble_path_dependent_shap,
    interventional_tree_shap,
    shap_matrix,
)
from xaidb.explainers.shapley.coalitions import (
    clear_design_cache,
    design_cache_info,
    kernel_shap_design,
)
from xaidb.exceptions import ValidationError
from xaidb.explainers.shapley.games import CachedGame, Game, MarginalImputationGame
from xaidb.explainers.shapley.tree import path_dependent_tree_shap, tree_expected_value
from xaidb.models import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostedClassifier,
    GradientBoostedRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from xaidb.models.tree import TreeStructure, _LEAF
from xaidb.models.tree_kernels import EnsembleKernel
from xaidb.runtime import GameRuntime, RuntimeConfig, WorkerPool
from xaidb.utils.combinatorics import shapley_subset_weight
from xaidb.utils.rng import check_random_state


# ------------------------------------------------------------------
# synthetic trees: depth 0-12, tied thresholds, exercised with NaN rows
# ------------------------------------------------------------------
def random_tree(rng, d, max_depth):
    """A random :class:`TreeStructure` with quantized thresholds (so
    ``x == threshold`` ties actually occur) and consistent covers."""
    children_left, children_right = [], []
    feature, threshold, value, cover = [], [], [], []

    def build(depth, n_samples):
        node = len(feature)
        children_left.append(_LEAF)
        children_right.append(_LEAF)
        feature.append(-2)
        threshold.append(np.nan)
        value.append(rng.normal())
        cover.append(n_samples)
        if depth >= max_depth or n_samples < 2 or rng.random() < 0.2:
            return node
        left_samples = int(rng.integers(1, n_samples))
        feature[node] = int(rng.integers(0, d))
        threshold[node] = float(rng.integers(-2, 3)) / 2.0
        children_left[node] = build(depth + 1, left_samples)
        children_right[node] = build(depth + 1, n_samples - left_samples)
        return node

    build(0, int(rng.integers(50, 400)))
    return TreeStructure(
        children_left=np.asarray(children_left),
        children_right=np.asarray(children_right),
        feature=np.asarray(feature),
        threshold=np.asarray(threshold),
        value=np.asarray(value)[:, None],
        n_node_samples=np.asarray(cover),
    )


def random_rows(rng, n, d):
    """Quantized rows (to hit threshold ties) with some NaN entries
    (NaN fails every ``<=`` split, i.e. always goes right)."""
    X = rng.integers(-2, 3, size=(n, d)).astype(float) / 2.0
    nan_mask = rng.random(size=X.shape) < 0.1
    X[nan_mask] = np.nan
    return X


def brute_force_path_dependent(tree, leaf_values, x, d):
    """Exact Shapley over the EXPVALUE conditional-expectation game."""
    phi = np.zeros(d)
    for i in range(d):
        others = [p for p in range(d) if p != i]
        for size in range(d):
            weight = shapley_subset_weight(size, d)
            for subset in combinations(others, size):
                gain = tree_expected_value(
                    tree, leaf_values, x, subset + (i,)
                ) - tree_expected_value(tree, leaf_values, x, subset)
                phi[i] += weight * gain
    return phi


class TestArenaPathDependent:
    def test_matches_brute_force_small_trees(self):
        rng = np.random.default_rng(11)
        d = 4
        for __ in range(6):
            tree = random_tree(rng, d, max_depth=4)
            leaf_values = tree.value[:, 0]
            pack = EnsembleKernel.for_terms([(tree, leaf_values, 1.0)])
            X = random_rows(rng, 4, d)
            X = X[~np.isnan(X).any(axis=1)]  # EXPVALUE oracle is NaN-free
            if X.shape[0] == 0:
                continue
            phi = ensemble_path_dependent_shap(pack, X, d)
            for row in range(X.shape[0]):
                slow = brute_force_path_dependent(tree, leaf_values, X[row], d)
                assert np.allclose(phi[row], slow, atol=1e-10)

    @pytest.mark.parametrize("max_depth", [0, 1, 3, 6, 9, 12])
    def test_bitwise_vs_recursion_random_trees(self, max_depth):
        rng = np.random.default_rng(100 + max_depth)
        d = 6
        for __ in range(4):
            tree = random_tree(rng, d, max_depth=max_depth)
            leaf_values = tree.value[:, 0]
            pack = EnsembleKernel.for_terms([(tree, leaf_values, 1.0)])
            X = random_rows(rng, 12, d)
            phi = ensemble_path_dependent_shap(pack, X, d)
            for row in range(X.shape[0]):
                reference = path_dependent_tree_shap(
                    tree, leaf_values, X[row], d
                )
                assert np.array_equal(phi[row], reference)

    def test_single_node_tree_attributes_nothing(self):
        rng = np.random.default_rng(0)
        tree = random_tree(rng, 3, max_depth=0)
        assert tree.node_count == 1
        pack = EnsembleKernel.for_terms([(tree, tree.value[:, 0], 1.0)])
        phi = ensemble_path_dependent_shap(pack, np.zeros((5, 3)), 3)
        assert np.array_equal(phi, np.zeros((5, 3)))

    def test_multi_tree_arena_replays_scaled_sum(self):
        rng = np.random.default_rng(21)
        d = 5
        terms = []
        for t in range(7):
            tree = random_tree(rng, d, max_depth=5)
            terms.append((tree, tree.value[:, 0], 0.1 + 0.05 * t))
        pack = EnsembleKernel.for_terms(terms)
        X = random_rows(rng, 20, d)
        phi = ensemble_path_dependent_shap(pack, X, d)
        for row in range(X.shape[0]):
            reference = np.zeros(d)
            for tree, leaf_values, scale in terms:
                reference += scale * path_dependent_tree_shap(
                    tree, leaf_values, X[row], d
                )
            assert np.array_equal(phi[row], reference)

    def test_row_blocking_does_not_change_results(self):
        rng = np.random.default_rng(33)
        d = 4
        tree = random_tree(rng, d, max_depth=6)
        pack = EnsembleKernel.for_terms([(tree, tree.value[:, 0], 1.0)])
        X = random_rows(rng, 30, d)
        whole = ensemble_path_dependent_shap(pack, X, d)
        blocked = ensemble_path_dependent_shap(pack, X, d, row_block=7)
        assert np.array_equal(whole, blocked)


def recursion(explainer, x):
    """The retained per-row recursion, summed over the explainer's terms
    in term order: the oracle every kernel output must equal."""
    phi = np.zeros(x.shape[0])
    for tree, leaf_values, scale in explainer.terms_:
        phi += scale * path_dependent_tree_shap(
            tree, leaf_values, x, x.shape[0]
        )
    return phi


class TestExplainBatchOnFittedModels:
    def test_forest_batch_bitwise_equals_per_row(self, income, income_forest):
        explainer = TreeShapExplainer(income_forest)
        X = income.dataset.X[:40]
        batch = explainer.explain_batch(X)
        for i in range(X.shape[0]):
            single = explainer.explain(X[i])
            assert np.array_equal(batch[i].values, recursion(explainer, X[i]))
            assert np.array_equal(batch[i].values, single.values)
            assert batch[i].base_value == single.base_value
            assert batch[i].prediction == single.prediction
            assert batch[i].prediction == explainer.model_output(X[i])

    def test_gbm_batch_bitwise_equals_per_row(self, income, income_gbm):
        explainer = TreeShapExplainer(income_gbm)
        X = income.dataset.X[:25]
        batch = explainer.explain_batch(X)
        for i in range(X.shape[0]):
            assert np.array_equal(batch[i].values, recursion(explainer, X[i]))
            assert np.array_equal(
                batch[i].values, explainer.explain(X[i]).values
            )

    def test_forest_regressor_batch(self, regression_data):
        X, y, __ = regression_data
        model = RandomForestRegressor(
            n_estimators=8, max_depth=4, random_state=3
        ).fit(X, y)
        explainer = TreeShapExplainer(model)
        batch = explainer.explain_batch(X[:15])
        for i in range(15):
            assert np.array_equal(batch[i].values, recursion(explainer, X[i]))
            assert np.array_equal(
                batch[i].values, explainer.explain(X[i]).values
            )

    def test_unbounded_depth_forest(self, income):
        X, y = income.dataset.X, income.dataset.y
        model = RandomForestClassifier(
            n_estimators=4, max_depth=None, random_state=5
        ).fit(X[:300], y[:300])
        assert max(t.tree_.max_depth() for t in model.estimators_) >= 10
        explainer = TreeShapExplainer(model)
        rows = X[300:340]
        batch = explainer.explain_batch(rows)
        for i in range(rows.shape[0]):
            assert np.array_equal(batch[i].values, recursion(explainer, rows[i]))

    def test_batch_composition_does_not_change_rows(self, income, income_forest):
        explainer = TreeShapExplainer(income_forest)
        X = income.dataset.X[:30]
        whole = [a.values.tobytes() for a in explainer.explain_batch(X)]
        order = np.random.default_rng(8).permutation(X.shape[0])
        permuted = explainer.explain_batch(X[order])
        assert [a.values.tobytes() for a in permuted] == [whole[i] for i in order]
        split = explainer.explain_batch(X[:7]) + explainer.explain_batch(X[7:])
        assert [a.values.tobytes() for a in split] == whole
        doubled = explainer.explain_batch(np.vstack([X, X[::3], X[:1]]))
        assert [a.values.tobytes() for a in doubled] == (
            whole + whole[::3] + whole[:1]
        )
        assert [explainer.explain(x).values.tobytes() for x in X] == whole

    def test_explain_equals_recursion_on_xaibench_scene(self):
        from benchmarks.xaibench.workloads import Scene

        scene = Scene(tracer=None)
        rows = np.random.default_rng(13).choice(
            len(scene.held_out), size=24, replace=False
        )
        for name in ("forest", "gbm"):
            explainer = TreeShapExplainer(scene.models[name])
            for row in rows:
                x = scene.held_out[row]
                assert np.array_equal(
                    explainer.explain(x).values, recursion(explainer, x)
                )

    def test_batch_metadata_and_seed_tolerance(self, income, income_forest):
        explainer = TreeShapExplainer(income_forest)
        X = income.dataset.X[:3]
        batch = explainer.explain_batch(X, seeds=[1, 2, 3])
        assert batch[0].metadata["batched"] is True
        assert batch[0].metadata["method"] == "tree_shap_path_dependent"

    def test_expected_value_is_computed_once(
        self, income, income_forest, monkeypatch
    ):
        explainer = TreeShapExplainer(income_forest)
        first = explainer.explain(income.dataset.X[0]).base_value

        def recompute(tree):
            raise AssertionError("expected_value recomputed")

        monkeypatch.setattr(TreeStructure, "leaves", recompute)
        assert explainer.expected_value() == first
        assert explainer.explain(income.dataset.X[1]).base_value == first
        assert explainer.explain_batch(income.dataset.X[:3])[2].base_value == first

    def test_shap_matrix_routes_bound_explain_through_batch(
        self, income, income_forest
    ):
        explainer = TreeShapExplainer(income_forest)
        X = income.dataset.X[:10]
        routed = shap_matrix(explainer.explain, X)
        per_row = np.vstack(
            [explainer.explain(row).values for row in X]
        )
        assert np.array_equal(routed, per_row)


class TestWidthValidation:
    @pytest.mark.parametrize(
        "model_class,kwargs",
        [
            (DecisionTreeClassifier, {}),
            (DecisionTreeRegressor, {}),
            (RandomForestClassifier, {"n_estimators": 2}),
            (RandomForestRegressor, {"n_estimators": 2}),
            (GradientBoostedClassifier, {"n_estimators": 2}),
            (GradientBoostedRegressor, {"n_estimators": 2}),
        ],
    )
    def test_tree_models_record_their_width(self, income, model_class, kwargs):
        X, y = income.dataset.X[:80], income.dataset.y[:80]
        model = model_class(max_depth=2, **kwargs).fit(X, y)
        assert model.n_features_in_ == X.shape[1]

    @pytest.mark.parametrize("delta", [1, -1])
    def test_explain_rejects_wrong_width(self, income, income_forest, delta):
        explainer = TreeShapExplainer(income_forest)
        x = income.dataset.X[0]
        wrong = np.append(x, 0.0) if delta > 0 else x[:-1]
        with pytest.raises(ValidationError, match="features"):
            explainer.explain(wrong)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_explain_batch_rejects_wrong_width(self, income, income_forest, delta):
        explainer = TreeShapExplainer(income_forest)
        X = income.dataset.X[:4]
        wrong = np.hstack([X, X[:, :1]]) if delta > 0 else X[:, :-1]
        with pytest.raises(ValidationError, match="features"):
            explainer.explain_batch(wrong)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_explain_interventional_rejects_wrong_width(
        self, income, income_forest, delta
    ):
        explainer = TreeShapExplainer(income_forest)
        X = income.dataset.X[:6]
        wrong = np.hstack([X, X[:, :1]]) if delta > 0 else X[:, :-1]
        with pytest.raises(ValidationError, match="features"):
            explainer.explain_interventional(wrong[0], X[1:])
        with pytest.raises(ValidationError, match="features"):
            explainer.explain_interventional(X[0], wrong[1:])


class TestArenaInterventional:
    def test_bitwise_vs_recursion_random_trees(self):
        rng = np.random.default_rng(55)
        d = 5
        for __ in range(5):
            tree = random_tree(rng, d, max_depth=6)
            leaf_values = tree.value[:, 0]
            pack = EnsembleKernel.for_terms([(tree, leaf_values, 1.0)])
            finite = random_rows(rng, 14, d)
            finite = finite[~np.isnan(finite).any(axis=1)]
            if finite.shape[0] < 3:
                continue
            x, background = finite[0], finite[1:]
            fast = ensemble_interventional_shap(pack, x, background)
            reference = interventional_tree_shap(
                tree, leaf_values, x, background
            )
            assert np.array_equal(fast, reference)

    def test_explainer_interventional_on_forest(self, income, income_forest):
        explainer = TreeShapExplainer(income_forest)
        X = income.dataset.X
        att = explainer.explain_interventional(X[0], X[1:26])
        # interventional efficiency: sums to f(x) - mean f(background)
        assert att.additive_check(atol=1e-10)


# ------------------------------------------------------------------
# stacked KernelSHAP
# ------------------------------------------------------------------
class TestStackedKernelShap:
    @pytest.mark.parametrize("n_coalitions", [510, 64])
    def test_batch_bitwise_equals_serial(self, income, income_logistic, n_coalitions):
        X = income.dataset.X
        predict = lambda Z: income_logistic.predict_proba(Z)[:, 1]  # noqa: E731
        stacked = KernelShapExplainer(
            predict, X[:20], n_coalitions=n_coalitions
        )
        serial = KernelShapExplainer(
            predict, X[:20], n_coalitions=n_coalitions
        )
        got = stacked.explain_batch(X[:12], random_state=5)
        want = serial.explain_batch_serial(X[:12], random_state=5)
        for g, w in zip(got, want):
            assert np.array_equal(g.values, w.values)
            assert g.base_value == w.base_value
            assert g.prediction == w.prediction
        assert got[0].metadata["stacked"] is True
        assert stacked.batch_stats_ is not None
        assert stacked.batch_stats_.n_model_evals > 0

    def test_batch_bitwise_equals_per_instance_explain(self, income, income_logistic):
        X = income.dataset.X
        predict = lambda Z: income_logistic.predict_proba(Z)[:, 1]  # noqa: E731
        explainer = KernelShapExplainer(predict, X[:15], n_coalitions=32)
        from xaidb.utils.rng import spawn_seeds

        seeds = spawn_seeds(9, 6)
        batch = explainer.explain_batch(X[:6], seeds=seeds)
        for i in range(6):
            single = explainer.explain(X[i], random_state=seeds[i])
            assert np.array_equal(batch[i].values, single.values)

    def test_blas_predictor_stays_bitwise(self):
        # X @ w is NOT bitwise row-stable across call shapes on blocked
        # BLAS — the stacked path must therefore replay the serial call
        # shapes exactly, which this predictor would expose.
        rng = np.random.default_rng(3)
        w = rng.normal(size=9)
        predict = lambda Z: np.tanh(Z @ w)  # noqa: E731
        background = rng.normal(size=(30, 9))
        X = rng.normal(size=(25, 9))
        explainer = KernelShapExplainer(predict, background, n_coalitions=510)
        got = explainer.explain_batch(X, random_state=1)
        want = explainer.explain_batch_serial(X, random_state=1)
        for g, v in zip(got, want):
            assert np.array_equal(g.values, v.values)

    def test_design_arena_shares_objects(self):
        clear_design_cache()
        masks_a, weights_a = kernel_shap_design(7, 126)  # exhaustive
        masks_b, weights_b = kernel_shap_design(7, 126)
        assert masks_a is masks_b and weights_a is weights_b
        assert not masks_a.flags.writeable
        sampled_a, __ = kernel_shap_design(9, 40, 17)
        sampled_b, __ = kernel_shap_design(9, 40, 17)
        assert sampled_a is sampled_b
        info = design_cache_info()
        assert info["hits"] >= 2 and info["entries"] == 2
        # live generators must not be frozen into the cache
        gen_a, __ = kernel_shap_design(9, 40, check_random_state(17))
        gen_b, __ = kernel_shap_design(9, 40, check_random_state(17))
        assert gen_a is not gen_b
        assert np.array_equal(gen_a, sampled_a)


# ------------------------------------------------------------------
# arena masks across worker processes
# ------------------------------------------------------------------
def _linear_predict(Z):  # module-level: picklable for the worker pool
    return np.asarray(Z).sum(axis=1)


class TestMaskArenaAcrossWorkers:
    def test_n_jobs_bit_identity_and_shared_shipping(self):
        WorkerPool.close_global()
        try:
            rng = np.random.default_rng(2)
            background = rng.normal(size=(18, 8))
            x = rng.normal(size=8)
            masks, __ = kernel_shap_design(8, 254)  # read-only arena design
            results = {}
            for n_jobs in (None, 1, 4):
                runtime = GameRuntime(
                    MarginalImputationGame(_linear_predict, x, background),
                    config=RuntimeConfig(cache=False, n_jobs=n_jobs),
                )
                results[n_jobs] = runtime.values_batch(masks)
            assert np.array_equal(results[None], results[1])
            assert np.array_equal(results[None], results[4])
            # the arena design crossed the process boundary as one
            # shared segment, not as per-task pickled chunks
            assert WorkerPool.get().n_shared_arrays == 1
        finally:
            WorkerPool.close_global()

    def test_cached_runtime_preserves_arena_identity(self):
        WorkerPool.close_global()
        try:
            rng = np.random.default_rng(4)
            background = rng.normal(size=(10, 7))
            masks, __ = kernel_shap_design(7, 126)
            runtime = GameRuntime(
                MarginalImputationGame(
                    _linear_predict, rng.normal(size=7), background
                ),
                config=RuntimeConfig(cache=True, n_jobs=4),
            )
            pooled = runtime.values_batch(masks)
            serial_runtime = GameRuntime(
                MarginalImputationGame(
                    _linear_predict, rng.normal(size=7), background
                ),
                config=RuntimeConfig(cache=True),
            )
            # (different instance objects -> different values; identity
            # of the shipped masks is what we assert, via the arena)
            assert WorkerPool.get().n_shared_arrays == 1
            assert pooled.shape == (masks.shape[0],)
            del serial_runtime
        finally:
            WorkerPool.close_global()


# ------------------------------------------------------------------
# vectorized sampled Banzhaf
# ------------------------------------------------------------------
class _QuadraticGame(Game):
    def __init__(self, n, seed):
        super().__init__(n)
        rng = np.random.default_rng(seed)
        self.linear = rng.normal(size=n)
        self.pairwise = rng.normal(size=(n, n))

    def value(self, coalition):
        idx = sorted(set(int(i) for i in coalition))
        if not idx:
            return 0.0
        total = float(self.linear[idx].sum())
        for a in idx:
            for b in idx:
                if a < b:
                    total += float(self.pairwise[a, b])
        return total


def _scalar_banzhaf_sampled(game, n_samples, random_state):
    """The historical per-sample scalar loop, kept as the oracle."""
    rng = check_random_state(random_state)
    cached = CachedGame(game)
    n = game.n_players
    samples = np.zeros((n_samples, n))
    for s in range(n_samples):
        mask = rng.random(n) < 0.5
        for player in range(n):
            coalition = [p for p in range(n) if mask[p] and p != player]
            samples[s, player] = cached.value(
                coalition + [player]
            ) - cached.value(coalition)
    values = samples.mean(axis=0)
    errors = samples.std(axis=0, ddof=1) / np.sqrt(n_samples)
    return values, errors


class TestVectorizedBanzhaf:
    @pytest.mark.parametrize("n_players,seed", [(5, 0), (9, 3), (13, 8)])
    def test_mean_and_std_bitwise_vs_scalar_loop(self, n_players, seed):
        want_values, want_errors = _scalar_banzhaf_sampled(
            _QuadraticGame(n_players, seed), 150, 42
        )
        got_values, got_errors = banzhaf_values_sampled(
            _QuadraticGame(n_players, seed), 150, random_state=42
        )
        assert np.array_equal(got_values, want_values)
        assert np.array_equal(got_errors, want_errors)

    def test_single_sample_errors_are_nan(self):
        values, errors = banzhaf_values_sampled(
            _QuadraticGame(4, 0), 1, random_state=0
        )
        assert values.shape == (4,)
        assert np.all(np.isnan(errors))
