"""Quantitative Input Influence (Datta, Sen & Zick 2016).

QII measures the influence of a feature (or feature set) by the change in
the quantity of interest when that feature is *randomised* — broken away
from its correlations — while everything else stays put:

    iota(S) = E[q(x)] - E[q(x with X_S resampled independently)]

- :meth:`unary_qii` is the influence of a single feature;
- :meth:`set_qii` of a feature set (captures joint influence that unary
  measures miss);
- :meth:`marginal_qii` is the marginal influence of feature ``i`` given a
  set ``S`` already randomised;
- :meth:`shapley_qii` aggregates marginal influences with Shapley weights
  over random coalitions — Datta et al.'s flagship aggregate, which for
  the marginal-imputation game coincides with SHAP up to the direction
  convention (randomising a feature = removing it from the coalition).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.explainers.base import Explainer, FeatureAttribution, PredictFn
from xaidb.explainers.shapley.games import Game, MarginalImputationGame
from xaidb.explainers.shapley.sampling import permutation_shapley_values
from xaidb.runtime import GameRuntime
from xaidb.utils.rng import RandomState
from xaidb.utils.validation import check_array

__all__ = ["QIIExplainer"]


class _RandomisationGame(Game):
    """Game whose value is the expected output with coalition members
    *randomised* (QII's convention is the mirror image of SHAP's:
    ``v(S)`` here has features in ``S`` broken, not kept)."""

    def __init__(self, inner: MarginalImputationGame) -> None:
        super().__init__(inner.n_players)
        self.inner = inner

    def value(self, coalition: Iterable[int]) -> float:
        kept = set(range(self.n_players)) - set(coalition)
        return self.inner.value(kept)


class QIIExplainer(Explainer):
    """Quantitative Input Influence over a background sample.

    Parameters
    ----------
    predict_fn:
        Scalar quantity of interest (e.g. positive-class probability).
    background:
        Sample of the input distribution used for the independent
        resampling of randomised features.
    """

    def __init__(
        self,
        predict_fn: PredictFn,
        background: np.ndarray,
        *,
        feature_names: list[str] | None = None,
    ) -> None:
        self.predict_fn = predict_fn
        self.background = check_array(background, name="background", ndim=2)
        self.feature_names = feature_names

    def _game(self, instance: np.ndarray) -> MarginalImputationGame:
        return MarginalImputationGame(self.predict_fn, instance, self.background)

    # ------------------------------------------------------------------
    def unary_qii(self, instance: np.ndarray, feature: int) -> float:
        """Influence of one feature: ``f(x) - E[f(x with X_i resampled)]``."""
        return self.set_qii(instance, [feature])

    def set_qii(self, instance: np.ndarray, features: Sequence[int]) -> float:
        """Joint influence of a feature set."""
        instance = check_array(instance, name="instance", ndim=1)
        features = list(features)
        if not features:
            raise ValidationError("features must be non-empty")
        game = self._game(instance)
        kept = [i for i in range(game.n_players) if i not in set(features)]
        return game.value(range(game.n_players)) - game.value(kept)

    def marginal_qii(
        self, instance: np.ndarray, feature: int, given: Sequence[int]
    ) -> float:
        """Marginal influence of ``feature`` on top of an already-randomised
        set ``given``: ``v(~given) - v(~(given ∪ {feature}))``."""
        instance = check_array(instance, name="instance", ndim=1)
        game = self._game(instance)
        randomised = set(given)
        if feature in randomised:
            raise ValidationError("feature must not already be in `given`")
        all_players = set(range(game.n_players))
        kept_without = all_players - randomised
        kept_with = kept_without - {feature}
        return game.value(kept_without) - game.value(kept_with)

    # ------------------------------------------------------------------
    def explain(
        self,
        instance: np.ndarray,
        *,
        n_permutations: int = 200,
        random_state: RandomState = None,
    ) -> FeatureAttribution:
        """Alias for :meth:`shapley_qii` (the Explainer-interface entry
        point)."""
        return self.shapley_qii(
            instance,
            n_permutations=n_permutations,
            random_state=random_state,
        )

    def shapley_qii(
        self,
        instance: np.ndarray,
        *,
        n_permutations: int = 200,
        random_state: RandomState = None,
    ) -> FeatureAttribution:
        """Shapley aggregate of marginal influences.

        Equivalent to permutation-sampling SHAP on the randomisation game;
        reported with the QII sign convention (positive = the feature
        pushes the output up at this instance).
        """
        instance = check_array(instance, name="instance", ndim=1)
        game = GameRuntime.wrap(_RandomisationGame(self._game(instance)))
        phi, errors = permutation_shapley_values(
            game, n_permutations, random_state=random_state
        )
        names = self.feature_names or [f"x{i}" for i in range(len(instance))]
        # v(S)=output with S randomised is a *decreasing* encoding; negate
        # so that positive influence means "supports the prediction".
        return FeatureAttribution(
            feature_names=list(names),
            values=-phi,
            # memo hits: every walk starts at v(∅) and ends at v(N); with
            # all features randomised v(N) is the base, with none v(∅) is
            # the prediction
            base_value=game.grand_value(),
            prediction=game.empty_value(),
            metadata={
                "method": "shapley_qii",
                "standard_errors": errors.tolist(),
                "n_permutations": n_permutations,
            },
        )
