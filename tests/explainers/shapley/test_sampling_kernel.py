import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xaidb.exceptions import ValidationError
from xaidb.explainers import predict_positive_proba
from xaidb.explainers.shapley import (
    KernelShapExplainer,
    PermutationShapleyExplainer,
    exact_shapley_values,
    permutation_shapley_values,
)
from xaidb.explainers.shapley.coalitions import _sampled_design, _unique_rows
from xaidb.explainers.shapley.games import FunctionGame
from xaidb.runtime import GameRuntime
from xaidb.utils.rng import check_random_state

from .kernel_oracle import constrained_wls, sampled_design_reference


def glove_game():
    return FunctionGame(
        3, lambda s: 1.0 if 0 in s and (1 in s or 2 in s) else 0.0
    )


class TestPermutationSampling:
    def test_converges_to_exact(self):
        game = GameRuntime(glove_game())
        phi, __ = permutation_shapley_values(game, 4000, random_state=0)
        assert np.allclose(phi, [2 / 3, 1 / 6, 1 / 6], atol=0.02)

    def test_efficiency_holds_per_sample(self):
        """Every permutation's marginals telescope, so efficiency is exact
        regardless of the number of samples."""
        game = GameRuntime(glove_game())
        phi, __ = permutation_shapley_values(game, 3, random_state=1)
        assert phi.sum() == pytest.approx(
            game.grand_value() - game.empty_value()
        )

    def test_antithetic_reduces_variance(self):
        game = FunctionGame(6, lambda s: float(len(s)) ** 2)

        def spread(antithetic):
            estimates = [
                permutation_shapley_values(
                    GameRuntime(game),
                    20,
                    antithetic=antithetic,
                    random_state=seed,
                )[0]
                for seed in range(15)
            ]
            return float(np.vstack(estimates).std(axis=0).mean())

        assert spread(True) <= spread(False) + 1e-9

    def test_standard_errors_shrink(self):
        game = GameRuntime(glove_game())
        __, few = permutation_shapley_values(game, 20, random_state=2)
        __, many = permutation_shapley_values(game, 2000, random_state=2)
        assert many.mean() < few.mean()

    def test_rejects_zero_permutations(self):
        with pytest.raises(ValidationError):
            permutation_shapley_values(glove_game(), 0)

    def test_explainer_reports_errors(self, income, income_logistic):
        f = predict_positive_proba(income_logistic)
        explainer = PermutationShapleyExplainer(
            f, income.dataset.X[:10], n_permutations=20
        )
        att = explainer.explain(income.dataset.X[0], random_state=0)
        assert len(att.metadata["standard_errors"]) == income.dataset.n_features


class TestKernelShap:
    def test_exhaustive_matches_exact(self, income, income_logistic):
        f = predict_positive_proba(income_logistic)
        background = income.dataset.X[:15]
        x = income.dataset.X[4]
        from xaidb.explainers.shapley import ExactShapleyExplainer

        exact = ExactShapleyExplainer(f, background).explain(x)
        kernel = KernelShapExplainer(f, background).explain(x, random_state=0)
        assert np.allclose(exact.values, kernel.values, atol=1e-8)
        assert kernel.metadata["exhaustive"]

    def test_sampled_mode_close_to_exact(self, income, income_logistic):
        f = predict_positive_proba(income_logistic)
        background = income.dataset.X[:10]
        x = income.dataset.X[4]
        from xaidb.explainers.shapley import ExactShapleyExplainer

        exact = ExactShapleyExplainer(f, background).explain(x)
        kernel = KernelShapExplainer(f, background, n_coalitions=60).explain(
            x, random_state=1
        )
        assert not kernel.metadata["exhaustive"]
        assert np.allclose(exact.values, kernel.values, atol=0.05)

    def test_efficiency_exact_even_when_sampled(self, income, income_logistic):
        f = predict_positive_proba(income_logistic)
        kernel = KernelShapExplainer(
            f, income.dataset.X[:10], n_coalitions=40
        ).explain(income.dataset.X[0], random_state=2)
        assert kernel.additive_check(atol=1e-10)

    def test_symmetric_features_get_equal_values(self):
        """f = x0 + x1 with identical background columns: phi0 == phi1."""

        def f(X):
            return X[:, 0] + X[:, 1]

        background = np.zeros((5, 3))
        x = np.asarray([2.0, 2.0, 9.0])
        kernel = KernelShapExplainer(f, background).explain(x)
        assert kernel.values[0] == pytest.approx(kernel.values[1], abs=1e-8)
        assert kernel.values[2] == pytest.approx(0.0, abs=1e-8)

    def test_needs_two_features(self, income, income_logistic):
        f = predict_positive_proba(income_logistic)
        explainer = KernelShapExplainer(f, np.zeros((3, 1)))
        with pytest.raises(ValidationError):
            explainer.explain(np.zeros(1))

    def test_rejects_tiny_budget(self, income, income_logistic):
        f = predict_positive_proba(income_logistic)
        with pytest.raises(ValidationError):
            KernelShapExplainer(f, income.dataset.X[:5], n_coalitions=2)

    def test_shared_runtime_reuses_cache_bitwise(self):
        """A ``make_runtime`` runtime is how the memo cache reaches
        KernelSHAP: re-explaining one instance through it on an
        exhaustive design is served from the cache, bitwise equal to a
        fresh uncached ``explain``."""
        d = 6
        rng = np.random.default_rng(5)
        w = rng.normal(size=d)
        explainer = KernelShapExplainer(
            lambda X: np.tanh(X @ w), rng.normal(size=(12, d))
        )
        x = rng.normal(size=d)
        runtime = explainer.make_runtime(x)
        explainer.explain(x, random_state=0, runtime=runtime)
        repeat = explainer.explain(x, random_state=1, runtime=runtime)
        fresh = explainer.explain(x, random_state=1)
        assert repeat.metadata["exhaustive"]
        assert repeat.metadata["cache_hit_rate"] > 0.9
        assert repeat.metadata["n_model_evals"] == 0
        assert np.array_equal(repeat.values, fresh.values)
        # the per-call ledger block traced library callers read
        for key in (
            "n_model_evals",
            "cache_hit_rate",
            "cache_evictions",
            "n_serial_fallbacks",
        ):
            assert key in fresh.metadata
        assert fresh.metadata["n_model_evals"] > 0

    def test_sampled_coalitions_aggregate_duplicates(self):
        """Regression: duplicate sampled masks used to enter the design
        as independent unit-weight rows (each re-evaluated); they must be
        unique masks whose weights carry the multiplicity."""
        d = 12
        explainer = KernelShapExplainer(
            lambda X: X.sum(axis=1), np.zeros((3, d)), n_coalitions=512
        )
        masks, weights = _sampled_design(
            d, explainer.n_coalitions, check_random_state(0)
        )
        assert len(np.unique(masks, axis=0)) == len(masks)
        # multiplicity is conserved: the weights sum to the draw count
        assert weights.sum() == pytest.approx(2 * (512 // 2))
        assert np.all(weights >= 1.0)

    def test_duplicate_aggregation_preserves_wls_solution(self):
        """k copies at weight 1 and one copy at weight k solve the same
        normal equations: the attribution must not depend on how the
        sampler reports multiplicity."""
        d = 12
        rng = np.random.default_rng(2)
        w = rng.normal(size=d)
        explainer = KernelShapExplainer(
            lambda X: X @ w, rng.normal(size=(6, d)), n_coalitions=256
        )
        instance = rng.normal(size=d)
        masks, weights = _sampled_design(
            d, explainer.n_coalitions, check_random_state(3)
        )
        base, full = 0.0, 1.0
        values = rng.normal(size=len(masks))
        aggregated = constrained_wls(masks, values, weights, base, full)
        # expand each mask back to its multiplicity at unit weight
        repeat = weights.astype(int)
        expanded = constrained_wls(
            np.repeat(masks, repeat, axis=0),
            np.repeat(values, repeat),
            np.ones(int(repeat.sum())),
            base,
            full,
        )
        assert np.allclose(aggregated, expanded, atol=1e-8)


class TestPackedDedup:
    """``_unique_rows`` is ``np.unique(axis=0, return_counts=True)`` on
    boolean matrices, and the sampled design it feeds is the pair-by-pair
    reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 80),
        d=st.sampled_from([1, 2, 3, 7, 8, 9, 15, 63, 64, 65, 128, 130]),
        density=st.floats(0.0, 1.0),
        duplicate_rows=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_np_unique(self, n, d, density, duplicate_rows, seed):
        rng = np.random.default_rng(seed)
        masks = rng.random((n, d)) < density
        if duplicate_rows:
            masks = masks[rng.integers(0, n, size=2 * n)]
        want_rows, want_counts = np.unique(masks, axis=0, return_counts=True)
        rows, counts = _unique_rows(masks)
        assert rows.dtype == want_rows.dtype and rows.shape == want_rows.shape
        assert rows.tobytes() == want_rows.tobytes()
        assert counts.dtype == want_counts.dtype
        assert counts.tobytes() == want_counts.tobytes()

    @pytest.mark.parametrize("d", [3, 7, 12, 70])
    @pytest.mark.parametrize("budget", [4, 64, 513])
    def test_sampled_design_is_the_reference(self, d, budget):
        for seed in range(4):
            masks, weights = _sampled_design(d, budget, check_random_state(seed))
            want_masks, want_weights = sampled_design_reference(
                d, budget, check_random_state(seed)
            )
            assert masks.tobytes() == want_masks.tobytes()
            assert masks.shape == want_masks.shape
            assert weights.tobytes() == want_weights.tobytes()
