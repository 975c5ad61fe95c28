"""Banzhaf values — the other cooperative power index.

Where the Shapley value weights a player's marginal contribution by
coalition size, the Banzhaf value weights all coalitions equally:

    beta_i = (1 / 2^(n-1)) * sum over S not containing i of
             (v(S ∪ {i}) - v(S))

The recent query-answering literature (following the Shapley-of-tuples
line the tutorial cites) studies Banzhaf alongside Shapley because it is
often computationally friendlier and more robust to utility noise.  The
price is the efficiency axiom: Banzhaf values do not generally sum to
``v(N) - v(∅)`` (tests pin down exactly this difference).

The Banzhaf value of tuples in a boolean query answer lives with its
Shapley counterpart, :func:`xaidb.db.sql_shapley.banzhaf_of_tuples_boolean`.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.explainers.shapley.coalitions import sample_uniform_masks
from xaidb.explainers.shapley.exact import _MAX_EXACT_PLAYERS
from xaidb.explainers.shapley.games import Game
from xaidb.runtime import GameRuntime
from xaidb.utils.rng import RandomState, check_random_state

__all__ = ["banzhaf_values", "banzhaf_values_sampled"]


def banzhaf_values(game: Game) -> np.ndarray:
    """Exact Banzhaf values by coalition enumeration (O(2^n))."""
    n = game.n_players
    if n > _MAX_EXACT_PLAYERS:
        raise ValidationError(
            f"exact Banzhaf over {n} players is intractable "
            f"(limit {_MAX_EXACT_PLAYERS}); use banzhaf_values_sampled"
        )
    game = GameRuntime.wrap(game)
    players = list(range(n))
    beta = np.zeros(n)
    denominator = 2.0 ** (n - 1)
    for player in players:
        others = [p for p in players if p != player]
        for size in range(n):
            for subset in combinations(others, size):
                beta[player] += (
                    game.value(subset + (player,)) - game.value(subset)
                )
    return beta / denominator


def banzhaf_values_sampled(
    game: Game,
    n_samples: int = 500,
    *,
    random_state: RandomState = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo Banzhaf: sample uniform coalitions, average marginal
    contributions.  Returns (values, standard errors)."""
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    rng = check_random_state(random_state)
    game = GameRuntime.wrap(game)
    n = game.n_players
    # One block draw replays the historical per-sample coin flips
    # bit-for-bit; the with/without coalitions for every (sample,
    # player) pair then come from mask-matrix arithmetic instead of
    # O(n_samples * n^2) Python list scans.
    masks = sample_uniform_masks(rng, n_samples, n)
    eye = np.eye(n, dtype=bool)
    with_player = (masks[:, None, :] | eye[None, :, :]).reshape(-1, n)
    without_player = (masks[:, None, :] & ~eye[None, :, :]).reshape(-1, n)
    # The runtime's batch dedupe evaluates the game once per *distinct*
    # coalition — the sampled masks repeat heavily (mask ∪ {p} == mask
    # whenever p is already in, and complements collide across samples).
    scores = game.values_batch(
        np.concatenate([with_player, without_player])
    )
    split = n_samples * n
    samples = (scores[:split] - scores[split:]).reshape(n_samples, n)
    values = samples.mean(axis=0)
    if n_samples > 1:
        errors = samples.std(axis=0, ddof=1) / np.sqrt(n_samples)
    else:
        errors = np.full(n, np.nan)
    return values, errors

