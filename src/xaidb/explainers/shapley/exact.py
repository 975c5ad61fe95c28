"""Exact Shapley values by coalition enumeration.

Exponential in the number of players (the tutorial's §2.1.2 intractability
point — experiment E4 measures exactly this blow-up), but indispensable as
the ground truth that KernelSHAP, permutation sampling and TreeSHAP are
validated against.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.explainers.base import Explainer, FeatureAttribution, PredictFn
from xaidb.explainers.shapley.games import Game, MarginalImputationGame
from xaidb.runtime import GameRuntime, RuntimeConfig
from xaidb.utils.combinatorics import shapley_subset_weight
from xaidb.utils.validation import check_array

__all__ = ["exact_shapley_values", "ExactShapleyExplainer"]

#: Largest game any exact enumeration here accepts (Shapley and Banzhaf);
#: the runtime's memo bound ``MAX_CACHE_ENTRIES`` holds all ``2**20``
#: of its coalitions.
_MAX_EXACT_PLAYERS = 20


def exact_shapley_values(game: Game) -> np.ndarray:
    """Shapley value of every player by full subset enumeration.

    Complexity ``O(2^n)`` value evaluations (memoised in a
    :class:`~xaidb.runtime.GameRuntime` unless ``game`` already is one),
    ``n * 2^(n-1)`` marginal contributions.  Refuses games with more than
    ``20`` players — at that point use sampling or KernelSHAP.
    """
    n = game.n_players
    if n > _MAX_EXACT_PLAYERS:
        raise ValidationError(
            f"exact enumeration over {n} players is intractable "
            f"(limit {_MAX_EXACT_PLAYERS}); use a sampling estimator"
        )
    game = GameRuntime.wrap(game)
    players = list(range(n))
    phi = np.zeros(n)
    for player in players:
        others = [p for p in players if p != player]
        for size in range(n):
            weight = shapley_subset_weight(size, n)
            for subset in combinations(others, size):
                gain = game.value(subset + (player,)) - game.value(subset)
                phi[player] += weight * gain
    return phi


class ExactShapleyExplainer(Explainer):
    """Exact SHAP values under the marginal-imputation value function.

    Parameters
    ----------
    predict_fn:
        Scalar model output to explain.
    background:
        Reference rows for imputing absent features.  Keep this small
        (tens of rows): cost is ``O(2^d * |background|)`` model calls.
    feature_names:
        Optional column names for the resulting attribution.
    """

    def __init__(
        self,
        predict_fn: PredictFn,
        background: np.ndarray,
        *,
        feature_names: list[str] | None = None,
        config: RuntimeConfig | None = None,
    ) -> None:
        self.predict_fn = predict_fn
        self.background = check_array(background, name="background", ndim=2)
        self.feature_names = feature_names
        self.config = config or RuntimeConfig()

    def explain(self, instance: np.ndarray) -> FeatureAttribution:
        instance = check_array(instance, name="instance", ndim=1)
        runtime = GameRuntime(
            MarginalImputationGame(
                self.predict_fn, instance, self.background
            ),
            config=self.config,
        )
        with runtime.stats.timer():
            phi = exact_shapley_values(runtime)
            base = runtime.empty_value()
            prediction = runtime.grand_value()
        names = self.feature_names or [f"x{i}" for i in range(len(instance))]
        return FeatureAttribution(
            feature_names=list(names),
            values=phi,
            base_value=base,
            prediction=prediction,
            metadata={
                "method": "exact_shapley",
                "n_coalitions_evaluated": runtime.stats.n_coalition_evals,
                **runtime.stats.as_metadata(),
            },
        )
