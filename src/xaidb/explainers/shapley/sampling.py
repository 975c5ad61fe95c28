"""Permutation-sampling (Monte-Carlo) Shapley estimation.

The classic unbiased estimator: draw random player orderings, accumulate
each player's marginal contribution when it joins the coalition of its
predecessors.  With antithetic sampling every permutation is paired with
its reverse, which cancels a large share of the variance at no extra
model cost.

Each draw derives its ordering from a child seed spawned via
:func:`xaidb.utils.rng.spawn_seeds`, and all draws share one memo cache,
so orderings that revisit a coalition pay for it once.
"""

from __future__ import annotations

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.explainers.base import Explainer, FeatureAttribution, PredictFn
from xaidb.explainers.shapley.games import Game, MarginalImputationGame
from xaidb.runtime import GameRuntime, RuntimeConfig
from xaidb.utils.rng import RandomState, check_random_state, spawn_seeds
from xaidb.utils.validation import check_array

__all__ = ["permutation_shapley_values", "PermutationShapleyExplainer"]


def _walk(game: Game, order: np.ndarray) -> np.ndarray:
    """Marginal contributions along one player ordering."""
    n = game.n_players
    marginal = np.zeros(n)
    coalition: list[int] = []
    previous = game.value(())
    for player in order:
        coalition.append(int(player))
        current = game.value(coalition)
        marginal[int(player)] = current - previous
        previous = current
    return marginal


def permutation_shapley_values(
    game: Game,
    n_permutations: int = 200,
    *,
    antithetic: bool = True,
    random_state: RandomState = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo Shapley values.

    All draws share one coalition memo: ``game`` itself when it is a
    :class:`~xaidb.runtime.GameRuntime`, else a fresh runtime over it.

    Returns
    -------
    (phi, standard_errors):
        Estimated values and their per-player Monte-Carlo standard errors
        (over permutations).
    """
    if n_permutations < 1:
        raise ValidationError("n_permutations must be >= 1")
    game = GameRuntime.wrap(game)
    n = game.n_players
    n_draws = (n_permutations + 1) // 2 if antithetic else n_permutations
    seeds = spawn_seeds(random_state, n_draws)
    contributions: list[np.ndarray] = []
    for seed in seeds:
        order = check_random_state(seed).permutation(n)
        contributions.append(_walk(game, order))
        if antithetic:
            contributions.append(_walk(game, order[::-1]))
    samples = np.asarray(contributions[:n_permutations])
    phi = samples.mean(axis=0)
    if len(samples) > 1:
        errors = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    else:
        errors = np.full(n, np.nan)
    return phi, errors


class PermutationShapleyExplainer(Explainer):
    """SHAP values by permutation sampling over the marginal-imputation
    game (the model-agnostic fallback when features are too many for
    exact enumeration and KernelSHAP's regression is unwanted)."""

    def __init__(
        self,
        predict_fn: PredictFn,
        background: np.ndarray,
        *,
        n_permutations: int = 200,
        antithetic: bool = True,
        feature_names: list[str] | None = None,
        config: RuntimeConfig | None = None,
    ) -> None:
        self.predict_fn = predict_fn
        self.background = check_array(background, name="background", ndim=2)
        self.n_permutations = n_permutations
        self.antithetic = antithetic
        self.feature_names = feature_names
        self.config = config or RuntimeConfig()

    def explain(
        self,
        instance: np.ndarray,
        *,
        random_state: RandomState = None,
    ) -> FeatureAttribution:
        instance = check_array(instance, name="instance", ndim=1)
        runtime = GameRuntime(
            MarginalImputationGame(
                self.predict_fn, instance, self.background
            ),
            config=self.config,
        )
        with runtime.stats.timer():
            phi, errors = permutation_shapley_values(
                runtime,
                self.n_permutations,
                antithetic=self.antithetic,
                random_state=random_state,
            )
            base_value = runtime.empty_value()
            prediction = runtime.grand_value()
        names = self.feature_names or [f"x{i}" for i in range(len(instance))]
        return FeatureAttribution(
            feature_names=list(names),
            values=phi,
            base_value=base_value,
            prediction=prediction,
            metadata={
                "method": "permutation_shapley",
                "standard_errors": errors.tolist(),
                "n_permutations": self.n_permutations,
                "n_coalitions_evaluated": runtime.stats.n_coalition_evals,
                **runtime.stats.as_metadata(),
            },
        )
