import numpy as np
import pytest

from xaidb.exceptions import ValidationError
from xaidb.explainers import predict_positive_proba
from xaidb.explainers.shapley import (
    ExactShapleyExplainer,
    MarginalImputationGame,
    exact_shapley_values,
)
from xaidb.explainers.shapley.games import FunctionGame
from xaidb.runtime import GameRuntime


def glove_game():
    """Player 0 owns a left glove, players 1 and 2 right gloves; a pair is
    worth 1.  Known Shapley values: (2/3, 1/6, 1/6)."""
    return FunctionGame(
        3, lambda s: 1.0 if 0 in s and (1 in s or 2 in s) else 0.0
    )


def majority_game(n):
    """Unanimity-free majority: v(S)=1 iff |S| > n/2; all players
    symmetric so each gets 1/n."""
    return FunctionGame(n, lambda s: 1.0 if len(s) > n / 2 else 0.0)


class TestExactShapleyOnAnalyticGames:
    def test_glove_game(self):
        phi = exact_shapley_values(glove_game())
        assert np.allclose(phi, [2 / 3, 1 / 6, 1 / 6])

    def test_majority_symmetry(self):
        phi = exact_shapley_values(majority_game(5))
        assert np.allclose(phi, 0.2)

    def test_additive_game_gives_weights(self):
        weights = np.asarray([3.0, -1.0, 0.5, 2.0])
        game = FunctionGame(4, lambda s: sum(weights[i] for i in s))
        phi = exact_shapley_values(game)
        assert np.allclose(phi, weights)

    def test_dummy_player_gets_zero(self):
        game = FunctionGame(3, lambda s: 1.0 if 0 in s else 0.0)
        phi = exact_shapley_values(game)
        assert phi[1] == pytest.approx(0.0)
        assert phi[2] == pytest.approx(0.0)

    def test_efficiency_axiom(self):
        game = glove_game()
        phi = exact_shapley_values(game)
        assert phi.sum() == pytest.approx(game.grand_value() - game.empty_value())

    def test_refuses_too_many_players(self):
        game = FunctionGame(25, lambda s: float(len(s)))
        with pytest.raises(ValidationError, match="intractable"):
            exact_shapley_values(game)


class TestGameRuntimeMemo:
    def test_caches_identical_coalitions(self):
        calls = {"n": 0}

        def v(s):
            calls["n"] += 1
            return float(len(s))

        game = GameRuntime(FunctionGame(3, v))
        game.value([0, 1])
        game.value([1, 0])
        game.value((0, 1))
        game.value(np.array([1, 0]))
        assert calls["n"] == 1
        assert game.n_cached == 1
        assert game.stats.n_coalition_evals == 1
        assert game.stats.cache_hits == 3


class TestMarginalImputationGame:
    def test_full_coalition_is_model_output(self, income, income_logistic):
        f = predict_positive_proba(income_logistic)
        x = income.dataset.X[0]
        game = MarginalImputationGame(f, x, income.dataset.X[:20])
        assert game.grand_value() == pytest.approx(float(f(x[None, :])[0]))

    def test_empty_coalition_is_background_mean(self, income, income_logistic):
        f = predict_positive_proba(income_logistic)
        background = income.dataset.X[:20]
        game = MarginalImputationGame(f, income.dataset.X[0], background)
        assert game.empty_value() == pytest.approx(float(f(background).mean()))

    def test_values_batch_matches_scalar(self, income, income_logistic):
        f = predict_positive_proba(income_logistic)
        game = MarginalImputationGame(
            f, income.dataset.X[0], income.dataset.X[:10]
        )
        d = income.dataset.n_features
        rng = np.random.default_rng(0)
        masks = rng.random((6, d)) < 0.5
        batch = game.values_batch(masks)
        scalar = [game.value(np.flatnonzero(mask)) for mask in masks]
        assert np.allclose(batch, scalar)

    def test_invalid_coalition_index(self, income, income_logistic):
        f = predict_positive_proba(income_logistic)
        game = MarginalImputationGame(
            f, income.dataset.X[0], income.dataset.X[:5]
        )
        with pytest.raises(ValidationError):
            game.value([99])

    def test_background_width_mismatch(self, income, income_logistic):
        f = predict_positive_proba(income_logistic)
        with pytest.raises(ValidationError):
            MarginalImputationGame(f, np.zeros(3), income.dataset.X[:5])


class TestExactShapleyExplainer:
    def test_local_accuracy(self, income, income_logistic):
        f = predict_positive_proba(income_logistic)
        explainer = ExactShapleyExplainer(
            f, income.dataset.X[:15], feature_names=income.dataset.feature_names
        )
        att = explainer.explain(income.dataset.X[2])
        assert att.additive_check(atol=1e-8)

    def test_dummy_feature_zero(self, income):
        """A model ignoring a feature must give it exactly zero."""
        used = [0, 1]

        def f(X):
            return X[:, used].sum(axis=1)

        explainer = ExactShapleyExplainer(f, income.dataset.X[:10])
        att = explainer.explain(income.dataset.X[0])
        assert np.allclose(att.values[2:], 0.0, atol=1e-12)
