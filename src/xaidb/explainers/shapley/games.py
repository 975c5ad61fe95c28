"""Cooperative games over feature coalitions.

Every Shapley estimator in xaidb evaluates a :class:`Game`: a value
function ``v(S)`` over subsets of ``n_players`` feature indices.  The
central instance is :class:`MarginalImputationGame` — SHAP's
interventional value function ``v(S) = E_z[f(x_S, z_{~S})]`` where
missing features are imputed from background data — but tests also plug
in analytic games (voting games, gloves games) with known closed-form
Shapley values.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.explainers.base import PredictFn
from xaidb.utils.validation import check_array

__all__ = ["Game", "FunctionGame", "MarginalImputationGame"]


class Game:
    """A cooperative game: a value function over coalitions of players.

    Subclasses implement :meth:`value`; ``n_players`` is the ground set
    size.  Coalitions are passed as iterables of integer player indices.
    Estimators memoise values by wrapping a game in
    :class:`xaidb.runtime.GameRuntime`.
    """

    def __init__(self, n_players: int) -> None:
        if n_players < 1:
            raise ValidationError("a game needs at least one player")
        self.n_players = n_players

    def value(self, coalition: Iterable[int]) -> float:
        raise NotImplementedError

    def grand_value(self) -> float:
        """``v(N)`` — the payoff of the full coalition."""
        return self.value(range(self.n_players))

    def empty_value(self) -> float:
        """``v(∅)`` — the base payoff."""
        return self.value(())


class FunctionGame(Game):
    """Wrap a plain callable ``v(frozenset) -> float`` as a game."""

    def __init__(self, n_players: int, func: Callable[[frozenset], float]) -> None:
        super().__init__(n_players)
        self._func = func

    def value(self, coalition: Iterable[int]) -> float:
        return float(self._func(frozenset(coalition)))


class MarginalImputationGame(Game):
    """SHAP's interventional value function.

    ``v(S)`` replaces the features *outside* ``S`` with values from each
    background row, averages the model output over the background set, and
    returns that expectation.  With the full coalition this is exactly
    ``f(x)``; with the empty coalition it is the mean background
    prediction — so Shapley values of this game satisfy local accuracy
    around those two anchors.

    Parameters
    ----------
    predict_fn:
        Scalar-output model function.
    instance:
        The input being explained, shape ``(d,)``.
    background:
        Reference rows used to impute "absent" features, shape ``(m, d)``.
    """

    def __init__(
        self,
        predict_fn: PredictFn,
        instance: np.ndarray,
        background: np.ndarray,
    ) -> None:
        instance = check_array(instance, name="instance", ndim=1)
        background = check_array(background, name="background", ndim=2)
        if background.shape[1] != instance.shape[0]:
            raise ValidationError(
                f"background has {background.shape[1]} columns, instance "
                f"has {instance.shape[0]}"
            )
        self._bind(predict_fn, instance, background)

    def _bind(
        self, predict_fn: PredictFn, instance: np.ndarray, background: np.ndarray
    ) -> None:
        super().__init__(instance.shape[0])
        self.predict_fn = predict_fn
        self.instance = instance
        self.background = background

    @classmethod
    def for_rows(
        cls,
        predict_fn: PredictFn,
        instances: np.ndarray,
        background: np.ndarray,
    ) -> list["MarginalImputationGame"]:
        """One game per row of ``instances``, all sharing ``background``.

        Equivalent to constructing each game separately, but the rows
        and the shared background are validated once for the whole
        block rather than once per game.
        """
        instances = check_array(instances, name="instances", ndim=2)
        background = check_array(background, name="background", ndim=2)
        if background.shape[1] != instances.shape[1]:
            raise ValidationError(
                f"background has {background.shape[1]} columns, instance "
                f"has {instances.shape[1]}"
            )
        games = []
        for instance in instances:
            game = cls.__new__(cls)
            game._bind(predict_fn, instance, background)
            games.append(game)
        return games

    def value(self, coalition: Iterable[int]) -> float:
        present = sorted(set(coalition))
        if any(not 0 <= i < self.n_players for i in present):
            raise ValidationError("coalition contains invalid player index")
        hybrid = self.background.copy()
        if present:
            hybrid[:, present] = self.instance[present]
        return float(np.mean(self.predict_fn(hybrid)))

    def values_batch(
        self, masks: np.ndarray, *, max_batch_rows: int | None = None
    ) -> np.ndarray:
        """Evaluate many coalitions at once.

        ``masks`` is a ``(n_coalitions, d)`` boolean matrix (True = feature
        present).  Hybrid rows are scored in as few ``predict_fn`` calls
        as ``max_batch_rows`` allows — batching is the difference between
        KernelSHAP being usable and not on slow models, while the row
        bound keeps peak memory at ``max_batch_rows × d`` instead of
        ``n_coalitions × m × d``.

        Parameters
        ----------
        masks:
            Boolean coalition matrix, shape ``(n_coalitions, d)``.
        max_batch_rows:
            Upper bound on hybrid rows materialised per model call
            (``None`` = single call, the historical behaviour).  Each
            coalition's mean is reduced per row, so results are
            bit-identical for every chunking.
        """
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.n_players:
            raise ValidationError(
                f"masks must have shape (n, {self.n_players})"
            )
        n, m = masks.shape[0], self.background.shape[0]
        if max_batch_rows is None:
            chunk = max(n, 1)
        else:
            if max_batch_rows < 1:
                raise ValidationError("max_batch_rows must be >= 1 or None")
            chunk = max(1, int(max_batch_rows) // m)
        means = np.empty(n)
        for start in range(0, n, chunk):
            block = masks[start : start + chunk]
            hybrid = np.where(
                block[:, None, :],
                self.instance[None, None, :],
                self.background[None, :, :],
            )
            flat = hybrid.reshape(block.shape[0] * m, self.n_players)
            # xailint: disable=XDB009 (this loop IS the substrate: one chunked call per max_batch_rows window)
            scores = np.asarray(self.predict_fn(flat), dtype=float)
            means[start : start + chunk] = scores.reshape(
                block.shape[0], m
            ).mean(axis=1)
        return means
