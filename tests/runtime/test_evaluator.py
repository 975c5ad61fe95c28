"""GameRuntime invariants: memoisation is invisible in the values,
chunking is invisible in the values, and the ledger adds up."""

from __future__ import annotations

import numpy as np
import pytest

from xaidb.exceptions import ValidationError
from xaidb.explainers.shapley import (
    QIIExplainer,
    banzhaf_values,
    banzhaf_values_sampled,
    exact_shapley_values,
    permutation_shapley_values,
)
from xaidb.explainers.shapley.games import MarginalImputationGame
from xaidb.runtime import EvalStats, GameRuntime, RuntimeConfig

D = 6


def _game():
    rng = np.random.default_rng(3)
    weights = rng.normal(size=D)
    instance = rng.normal(size=D)
    background = rng.normal(size=(11, D))
    # row-independent linear model: chunk boundaries cannot shift sums
    return MarginalImputationGame(
        lambda X: X @ weights, instance, background
    )


def _mask_batch(n: int, duplicates: bool = True) -> np.ndarray:
    rng = np.random.default_rng(0)
    masks = rng.random((n, D)) < 0.5
    if duplicates:
        masks[n // 2 :] = masks[: n - n // 2]  # force repeated masks
    return masks


def test_cache_on_equals_cache_off_bitwise():
    masks = _mask_batch(24)
    cached = GameRuntime(_game())
    uncached = GameRuntime(_game(), cache=False)
    assert np.array_equal(
        cached.values_batch(masks), uncached.values_batch(masks)
    )
    # and a second pass over the same masks is served entirely from cache
    again = cached.values_batch(masks)
    assert np.array_equal(again, uncached.values_batch(masks))


def test_chunked_equals_unchunked_bitwise():
    masks = _mask_batch(24, duplicates=False)
    one_shot = GameRuntime(
        _game(), config=RuntimeConfig(max_batch_rows=None), cache=False
    )
    chunked = GameRuntime(
        _game(), config=RuntimeConfig(max_batch_rows=13), cache=False
    )
    assert np.array_equal(
        one_shot.values_batch(masks), chunked.values_batch(masks)
    )


def test_chunking_bounds_peak_rows_per_model_call():
    peak = {"rows": 0}
    rng = np.random.default_rng(3)
    weights = rng.normal(size=D)

    def predict(X):
        peak["rows"] = max(peak["rows"], X.shape[0])
        return X @ weights

    game = MarginalImputationGame(
        predict, rng.normal(size=D), rng.normal(size=(11, D))
    )
    max_batch_rows = 44  # 4 coalitions x 11 background rows
    runtime = GameRuntime(
        game, config=RuntimeConfig(max_batch_rows=max_batch_rows)
    )
    runtime.values_batch(_mask_batch(24, duplicates=False))
    assert 0 < peak["rows"] <= max_batch_rows


def test_ledger_accounts_for_dedupe_and_hits():
    masks = _mask_batch(20)  # 20 rows, half of them duplicated
    n_unique = len({m.tobytes() for m in masks})
    runtime = GameRuntime(_game())
    runtime.values_batch(masks)
    assert runtime.stats.n_coalition_evals == n_unique
    assert runtime.n_cached == n_unique
    assert runtime.stats.cache_misses == n_unique
    assert runtime.stats.cache_hits == 20 - n_unique

    before = runtime.stats.copy()
    runtime.values_batch(masks)  # fully warm
    delta = runtime.stats.since(before)
    assert delta.n_coalition_evals == 0
    assert delta.cache_hits == 20
    assert delta.n_model_evals == 0


def test_scalar_value_path_is_cached_and_counted():
    runtime = GameRuntime(_game())
    first = runtime.value([0, 2])
    second = runtime.value([0, 2])
    assert first == second
    assert runtime.stats.cache_hits == 1
    assert runtime.stats.cache_misses == 1
    assert runtime.grand_value() == runtime.value(range(D))
    assert runtime.empty_value() == runtime.value(())


def test_shared_external_stats_ledger():
    stats = EvalStats()
    runtime = GameRuntime(_game(), stats=stats)
    runtime.values_batch(_mask_batch(8, duplicates=False))
    assert stats.n_model_evals > 0
    assert stats is runtime.stats


def test_validation():
    runtime = GameRuntime(_game())
    with pytest.raises(ValidationError):
        runtime.values_batch(np.zeros((2, D + 1), dtype=bool))
    with pytest.raises(ValidationError):
        runtime.value([D + 3])
    with pytest.raises(ValidationError):
        RuntimeConfig(max_batch_rows=0)


def _scored_game(scored: list[int]) -> MarginalImputationGame:
    rng = np.random.default_rng(8)
    weights = rng.normal(size=4)

    def predict(X):
        scored.append(len(X))
        return np.tanh(X @ weights)

    return MarginalImputationGame(
        predict, rng.normal(size=4), rng.normal(size=(5, 4))
    )


_ESTIMATORS = {
    "exact": lambda game: exact_shapley_values(game),
    "permutation": lambda game: permutation_shapley_values(
        game, 20, random_state=0
    )[0],
    "banzhaf": lambda game: banzhaf_values(game),
    "banzhaf_sampled": lambda game: banzhaf_values_sampled(
        game, 30, random_state=0
    )[0],
    "qii": lambda game: QIIExplainer(
        game.predict_fn, game.background
    ).shapley_qii(game.instance, n_permutations=20, random_state=0).values,
}


@pytest.mark.parametrize("estimator", sorted(_ESTIMATORS))
def test_runtime_leaves_the_callers_game_untouched(estimator):
    run = _ESTIMATORS[estimator]
    scored: list[int] = []
    game = _scored_game(scored)
    predict = game.predict_fn
    values = run(game)
    assert game.predict_fn is predict
    assert not hasattr(game.predict_fn, "__wrapped__")
    # reusing the game gives bitwise the values of a fresh one
    fresh = run(_scored_game([]))
    assert np.asarray(values).tobytes() == np.asarray(fresh).tobytes()
    assert np.asarray(run(game)).tobytes() == np.asarray(values).tobytes()


def test_runtime_counts_each_scored_row_once():
    scored: list[int] = []
    game = _scored_game(scored)
    first, second = GameRuntime(game), GameRuntime(game)
    masks = _mask_batch(12, duplicates=False)[:, :4]
    first.values_batch(masks)
    counted = first.stats.n_model_evals
    assert counted == sum(scored) > 0
    scored.clear()
    second.values_batch(masks)
    second.value((0, 2))
    assert second.stats.n_model_evals == sum(scored)
    # the second runtime's rows land in its own ledger only
    assert first.stats.n_model_evals == counted
