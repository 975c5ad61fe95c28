import numpy as np
import pytest

from xaidb.datavaluation import (
    UtilityFunction,
    distributional_shapley_values,
    knn_shapley_values,
)
from xaidb.datavaluation.knn_shapley import knn_utility
from xaidb.exceptions import ValidationError
from xaidb.models import KNeighborsClassifier


@pytest.fixture(scope="module")
def knn_setup(income):
    train, valid = income.dataset.split(test_fraction=0.3, random_state=20)
    return train.X[:60], train.y[:60], valid.X[:40], valid.y[:40]


class TestKnnShapley:
    def test_efficiency_axiom_exact(self, knn_setup):
        """The closed form must satisfy sum(values) == v(D) exactly."""
        X, y, Xv, yv = knn_setup
        values = knn_shapley_values(X, y, Xv, yv, k=5)
        assert values.sum() == pytest.approx(knn_utility(X, y, Xv, yv, k=5))

    def test_matches_monte_carlo_on_small_problem(self):
        """Cross-check the recursion against TMC over the same utility."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 2))
        y = (X[:, 0] > 0).astype(float)
        Xv = rng.normal(size=(20, 2))
        yv = (Xv[:, 0] > 0).astype(float)
        exact = knn_shapley_values(X, y, Xv, yv, k=3)

        from xaidb.explainers.shapley.games import FunctionGame
        from xaidb.explainers.shapley import exact_shapley_values

        def utility(subset):
            if not subset:
                return 0.0
            rows = sorted(subset)
            return knn_utility(X[rows], y[rows], Xv, yv, k=3)

        phi = exact_shapley_values(FunctionGame(12, utility))
        assert np.allclose(exact, phi, atol=1e-10)

    def test_helpful_neighbour_valued_higher(self):
        X = np.asarray([[0.0], [0.1], [5.0]])
        y = np.asarray([1.0, 1.0, 0.0])
        Xv = np.asarray([[0.05]])
        yv = np.asarray([1.0])
        values = knn_shapley_values(X, y, Xv, yv, k=1)
        assert values[0] > values[2]
        assert values[1] > values[2]

    def test_k_out_of_range(self, knn_setup):
        X, y, Xv, yv = knn_setup
        with pytest.raises(ValidationError):
            knn_shapley_values(X, y, Xv, yv, k=0)
        with pytest.raises(ValidationError):
            knn_shapley_values(X, y, Xv, yv, k=len(y) + 1)

    def test_fast_on_moderate_n(self, income):
        import time

        train, valid = income.dataset.split(test_fraction=0.3, random_state=21)
        start = time.perf_counter()
        knn_shapley_values(train.X, train.y, valid.X[:50], valid.y[:50], k=5)
        assert time.perf_counter() - start < 5.0


class TestDistributionalShapley:
    def test_shapes_and_determinism(self, knn_setup):
        X, y, Xv, yv = knn_setup
        utility = UtilityFunction(KNeighborsClassifier(n_neighbors=3), Xv, yv)
        a, ea = distributional_shapley_values(
            utility, X[:4], y[:4], X, y,
            n_iterations=10, min_cardinality=8, random_state=0,
        )
        b, __ = distributional_shapley_values(
            utility, X[:4], y[:4], X, y,
            n_iterations=10, min_cardinality=8, random_state=0,
        )
        assert a.shape == (4,)
        assert np.array_equal(a, b)
        assert np.all(ea >= 0)

    def test_stability_across_pools(self, income):
        """The E15 property: distributional values of the same points are
        correlated across disjoint context pools."""
        train, valid = income.dataset.split(test_fraction=0.4, random_state=22)
        utility = UtilityFunction(
            KNeighborsClassifier(n_neighbors=5), valid.X[:60], valid.y[:60]
        )
        points_X, points_y = train.X[:8], train.y[:8]
        pool_a_X, pool_a_y = train.X[10:110], train.y[10:110]
        pool_b_X, pool_b_y = train.X[110:210], train.y[110:210]
        values_a, __ = distributional_shapley_values(
            utility, points_X, points_y, pool_a_X, pool_a_y,
            n_iterations=60, min_cardinality=15, max_cardinality=60,
            random_state=1,
        )
        values_b, __ = distributional_shapley_values(
            utility, points_X, points_y, pool_b_X, pool_b_y,
            n_iterations=60, min_cardinality=15, max_cardinality=60,
            random_state=2,
        )
        # directions should agree for most points
        agreement = np.mean(np.sign(values_a) == np.sign(values_b))
        assert agreement >= 0.5

    def test_resampler_hook(self, income):
        train, valid = income.dataset.split(test_fraction=0.4, random_state=23)
        utility = UtilityFunction(
            KNeighborsClassifier(n_neighbors=3), valid.X[:30], valid.y[:30]
        )
        calls = {"n": 0}

        def resampler(m, rng):
            calls["n"] += 1
            fresh = income.resample(m, random_state=rng)
            return fresh.X, fresh.y

        distributional_shapley_values(
            utility, train.X[:2], train.y[:2], train.X, train.y,
            n_iterations=5, min_cardinality=10, max_cardinality=20,
            resampler=resampler, random_state=3,
        )
        assert calls["n"] == 5

    def test_invalid_cardinalities(self, knn_setup):
        X, y, Xv, yv = knn_setup
        utility = UtilityFunction(KNeighborsClassifier(n_neighbors=3), Xv, yv)
        with pytest.raises(ValidationError):
            distributional_shapley_values(
                utility, X[:2], y[:2], X, y,
                min_cardinality=50, max_cardinality=50,
            )
