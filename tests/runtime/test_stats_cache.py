"""Unit tests for the runtime's ledger (EvalStats) and coalition memo."""

from __future__ import annotations

import numpy as np
import pytest

from xaidb.exceptions import ValidationError
from xaidb.runtime import EvalStats, GameRuntime


# ---------------------------------------------------------------- stats
def test_wrap_predict_fn_counts_rows():
    stats = EvalStats()
    counted = stats.wrap_predict_fn(lambda X: X.sum(axis=1))
    X = np.ones((7, 3))
    out = counted(X)
    assert np.array_equal(out, X.sum(axis=1))
    counted(np.ones((5, 3)))
    assert stats.n_model_evals == 12


def test_cache_hit_rate_and_metadata_keys():
    stats = EvalStats(cache_hits=3, cache_misses=1)
    assert stats.cache_hit_rate == pytest.approx(0.75)
    metadata = stats.as_metadata()
    assert set(metadata) == {
        "n_model_evals",
        "cache_hit_rate",
        "cache_evictions",
        "wall_time_s",
        "rows_per_s",
        "n_pool_reuses",
        "n_serial_fallbacks",
    }
    assert EvalStats().cache_hit_rate == 0.0  # no lookups, no divide-by-zero


def test_timer_accumulates():
    stats = EvalStats()
    with stats.timer():
        pass
    first = stats.wall_time_s
    assert first >= 0.0
    with stats.timer():
        pass
    assert stats.wall_time_s >= first


def test_since_reports_per_call_deltas():
    stats = EvalStats(n_model_evals=10, cache_hits=4, cache_misses=2)
    snapshot = stats.copy()
    stats.n_model_evals += 5
    stats.cache_hits += 1
    delta = stats.since(snapshot)
    assert delta.n_model_evals == 5
    assert delta.cache_hits == 1
    assert delta.cache_misses == 0


def test_merge_folds_counters():
    total = EvalStats(n_model_evals=1, cache_hits=1)
    total.merge(EvalStats(n_model_evals=2, cache_misses=3))
    assert total.n_model_evals == 3
    assert total.cache_hits == 1
    assert total.cache_misses == 3


# ----------------------------------------------------------------- memo
class _CountingGame:
    """``v(S) = sum of 2**i over S``, recording every coalition it sees."""

    def __init__(self, n_players):
        self.n_players = n_players
        self.seen = []

    def value(self, coalition):
        self.seen.append(tuple(coalition))
        return float(sum(2.0**i for i in coalition))


def test_cache_scalar_roundtrip():
    game = _CountingGame(4)
    runtime = GameRuntime(game)
    assert runtime.value([2, 0]) == 5.0
    # order-, container- and dtype-insensitive keying
    assert runtime.value((0, 2)) == 5.0
    assert runtime.value(np.array([0, 2], dtype=np.int64)) == 5.0
    # the batch path shares the scalar path's keys
    batch = runtime.values_batch(np.array([[1, 0, 1, 0]], dtype=bool))
    assert batch.tolist() == [5.0]
    assert game.seen == [(0, 2)]  # one evaluation, on sorted players
    assert runtime.n_cached == 1
    assert runtime.stats.cache_hits == 3
    assert runtime.stats.cache_misses == 1


def test_cache_batch_lookup_reports_missing_rows():
    game = _CountingGame(3)
    runtime = GameRuntime(game)
    runtime.value([0])
    masks = np.array(
        [[True, False, False], [False, True, False], [True, True, True]]
    )
    values = runtime.values_batch(masks)
    assert values.tolist() == [1.0, 2.0, 7.0]
    # only the two unknown rows reached the game
    assert game.seen == [(0,), (1,), (0, 1, 2)]
    assert runtime.values_batch(masks).tolist() == [1.0, 2.0, 7.0]
    assert len(game.seen) == 3
    assert runtime.stats.n_coalition_evals == 3


def test_cache_validates_shapes():
    runtime = GameRuntime(_CountingGame(3))
    with pytest.raises(ValidationError):
        runtime.values_batch(np.zeros((2, 4), dtype=bool))
    with pytest.raises(ValidationError):
        runtime.value([3])
    with pytest.raises(ValidationError):
        runtime.value([-1])
    with pytest.raises(ValidationError):
        GameRuntime(_CountingGame(0))
