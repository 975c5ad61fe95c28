"""Property-based tests of the Shapley machinery: for random games, the
exact enumerator must satisfy all four Shapley axioms, and the other
estimators must agree with it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xaidb.explainers.shapley import exact_shapley_values
from xaidb.explainers.shapley.games import FunctionGame
from xaidb.runtime import GameRuntime
from xaidb.utils.combinatorics import all_subsets


def random_game(n_players: int, seed: int) -> FunctionGame:
    """A random TU game with v(∅)=0, tabulated over all coalitions."""
    rng = np.random.default_rng(seed)
    table = {
        frozenset(subset): float(rng.normal())
        for subset in all_subsets(range(n_players))
    }
    table[frozenset()] = 0.0
    return FunctionGame(n_players, lambda s: table[frozenset(s)])


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 10_000))
def test_efficiency_axiom(n, seed):
    game = random_game(n, seed)
    phi = exact_shapley_values(game)
    assert np.isclose(phi.sum(), game.grand_value() - game.empty_value())


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 10_000))
def test_additivity_axiom(n, seed):
    """phi(v + w) = phi(v) + phi(w)."""
    game_v = random_game(n, seed)
    game_w = random_game(n, seed + 1)
    combined = FunctionGame(
        n, lambda s: game_v.value(s) + game_w.value(s)
    )
    assert np.allclose(
        exact_shapley_values(combined),
        exact_shapley_values(game_v) + exact_shapley_values(game_w),
        atol=1e-10,
    )


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 10_000))
def test_dummy_axiom(n, seed):
    """Adding a player that contributes nothing yields phi = 0 for it and
    preserves everyone else's value."""
    inner = random_game(n, seed)
    extended = FunctionGame(
        n + 1, lambda s: inner.value([p for p in s if p < n])
    )
    phi = exact_shapley_values(extended)
    assert np.isclose(phi[n], 0.0, atol=1e-12)
    assert np.allclose(phi[:n], exact_shapley_values(inner), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 10_000))
def test_symmetry_axiom(n, seed):
    """Make players 0 and 1 interchangeable by symmetrising the value
    function; their Shapley values must then coincide."""
    inner = random_game(n, seed)

    def swap(coalition):
        swapped = set()
        for p in coalition:
            swapped.add({0: 1, 1: 0}.get(p, p))
        return swapped

    symmetric = FunctionGame(
        n, lambda s: (inner.value(s) + inner.value(swap(s))) / 2.0
    )
    phi = exact_shapley_values(symmetric)
    assert np.isclose(phi[0], phi[1], atol=1e-10)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 1_000))
def test_permutation_sampling_unbiased_in_the_limit(n, seed):
    from xaidb.explainers.shapley import permutation_shapley_values

    game = GameRuntime(random_game(n, seed))
    exact = exact_shapley_values(game)
    estimate, __ = permutation_shapley_values(game, 3000, random_state=seed)
    assert np.allclose(estimate, exact, atol=0.15)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1_000))
def test_kernel_shap_matches_exact_on_random_models(seed):
    """Exhaustive KernelSHAP == exact Shapley on random linear models."""
    from xaidb.explainers.shapley import ExactShapleyExplainer, KernelShapExplainer

    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    weights = rng.normal(size=d)

    def f(X):
        return X @ weights

    background = rng.normal(size=(8, d))
    x = rng.normal(size=d)
    exact = ExactShapleyExplainer(f, background).explain(x)
    kernel = KernelShapExplainer(f, background).explain(x, random_state=0)
    assert np.allclose(exact.values, kernel.values, atol=1e-6)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1_000))
def test_linear_model_shapley_closed_form(seed):
    """For f(x) = w.x with marginal imputation, phi_i = w_i (x_i - mean of
    background column i) — the textbook closed form."""
    from xaidb.explainers.shapley import ExactShapleyExplainer

    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    weights = rng.normal(size=d)
    background = rng.normal(size=(10, d))
    x = rng.normal(size=d)
    att = ExactShapleyExplainer(lambda X: X @ weights, background).explain(x)
    closed_form = weights * (x - background.mean(axis=0))
    assert np.allclose(att.values, closed_form, atol=1e-8)
