"""Regression tests for the runtime-ledger bugfix sweep.

Each test pins one fix that the serving layer leans on and that was red
before it landed:

1. the :class:`GameRuntime` coalition memo is bounded (FIFO eviction at
   ``MAX_CACHE_ENTRIES``, surfaced as ``EvalStats.cache_evictions``) —
   an unbounded memo leaks in a long-running server — and the bound
   holds the largest exact enumeration, which would otherwise thrash;
2. nested ``EvalStats.timer()`` blocks count the outermost span only
   (nesting used to double-count wall time, deflating ``rows_per_s``);
3. ``EvalStats.wrap_predict_fn`` is idempotent (re-instrumenting a
   long-lived game used to stack counting wrappers and multiply
   ``n_model_evals``).
"""

from __future__ import annotations

import numpy as np
import pytest

import xaidb.runtime.evaluator as evaluator
from xaidb.explainers.shapley import exact_shapley_values
from xaidb.explainers.shapley.exact import _MAX_EXACT_PLAYERS
from xaidb.explainers.shapley.games import FunctionGame, MarginalImputationGame
from xaidb.runtime import EvalStats, GameRuntime


def _mask(bits: str) -> np.ndarray:
    return np.array([b == "1" for b in bits], dtype=bool)


def _players(bits: str) -> list[int]:
    return [i for i, b in enumerate(bits) if b == "1"]


def _counting_game(n_players: int, calls: list) -> FunctionGame:
    def v(coalition):
        calls.append(coalition)
        return float(sum(2.0**i for i in coalition))

    return FunctionGame(n_players, v)


# ---------------------------------------------------- 1. bounded memo
def test_cache_evicts_fifo_at_max_entries(monkeypatch):
    monkeypatch.setattr(evaluator, "MAX_CACHE_ENTRIES", 3)
    calls: list = []
    runtime = GameRuntime(_counting_game(4, calls))
    for bits in ["1000", "0100", "0010", "0001", "1100"]:
        runtime.value(_players(bits))
    assert runtime.n_cached == 3
    assert runtime.stats.cache_evictions == 2
    # FIFO: the newest three are still held...
    assert runtime.value(_players("0001")) == 8.0
    assert runtime.value(_players("1100")) == 3.0
    assert len(calls) == 5
    # ...and the two oldest inserts are gone: asking again re-evaluates
    assert runtime.value(_players("1000")) == 1.0
    assert len(calls) == 6
    assert runtime.stats.cache_evictions == 3


def test_cache_store_batch_respects_bound(monkeypatch):
    monkeypatch.setattr(evaluator, "MAX_CACHE_ENTRIES", 2)
    calls: list = []
    runtime = GameRuntime(_counting_game(3, calls))
    masks = np.array(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], dtype=bool
    )
    first = runtime.values_batch(masks)
    assert runtime.n_cached == 2
    assert runtime.stats.cache_evictions == 2
    # eviction never changes values: the survivors read back exactly and
    # only the two evicted rows reach the game again
    again = runtime.values_batch(masks)
    assert np.array_equal(first, again)
    assert len(calls) == 6
    assert runtime.stats.cache_hits == 2


def test_memo_bound_covers_largest_exact_enumeration():
    assert evaluator.MAX_CACHE_ENTRIES >= 2**_MAX_EXACT_PLAYERS


def test_exact_enumeration_at_the_bound_evaluates_each_coalition_once(
    monkeypatch,
):
    n = 10
    monkeypatch.setattr(evaluator, "MAX_CACHE_ENTRIES", 2**n)
    calls: list = []
    runtime = GameRuntime(_counting_game(n, calls))
    exact_shapley_values(runtime)
    assert runtime.stats.n_coalition_evals == 2**n == len(calls)
    assert runtime.stats.cache_evictions == 0


def test_runtime_surfaces_evictions_in_stats(monkeypatch):
    monkeypatch.setattr(evaluator, "MAX_CACHE_ENTRIES", 4)
    rng = np.random.default_rng(0)
    game = MarginalImputationGame(
        lambda X: X.sum(axis=1),
        instance=np.arange(4.0),
        background=rng.normal(size=(3, 4)),
    )
    stats = EvalStats()
    runtime = GameRuntime(game, stats=stats)
    # all 16 masks over 4 players: 12 must be evicted to hold the bound
    bits = np.arange(16)[:, None] >> np.arange(4)[None, :]
    all_masks = (bits & 1).astype(bool)
    values = runtime.values_batch(all_masks)
    assert runtime.n_cached == 4
    assert stats.cache_evictions == 12
    assert "cache_evictions" in stats.as_metadata()
    # eviction is a cost knob, not a correctness knob
    monkeypatch.setattr(evaluator, "MAX_CACHE_ENTRIES", 16)
    unbounded = GameRuntime(
        MarginalImputationGame(
            lambda X: X.sum(axis=1),
            instance=np.arange(4.0),
            background=game.background,
        )
    )
    np.testing.assert_array_equal(
        values, unbounded.values_batch(all_masks)
    )


def test_shared_stats_accumulate_evictions_as_deltas(monkeypatch):
    """Two runtimes writing to one ledger each add only their own
    evictions (counted straight into the ledger as they happen)."""
    monkeypatch.setattr(evaluator, "MAX_CACHE_ENTRIES", 2)
    stats = EvalStats()
    runtimes = [
        GameRuntime(
            MarginalImputationGame(
                lambda X: X.sum(axis=1),
                instance=np.arange(3.0),
                background=np.eye(3),
            ),
            stats=stats,
        )
        for _ in range(2)
    ]
    bits = np.arange(8)[:, None] >> np.arange(3)[None, :]
    all_masks = (bits & 1).astype(bool)
    for runtime in runtimes:
        runtime.values_batch(all_masks)  # 8 stored, bound 2 → 6 evicted
    assert stats.cache_evictions == 12


# --------------------------------------- 2. re-entrant timer, outermost
def test_nested_timer_counts_outermost_span_only(monkeypatch):
    import xaidb.runtime.stats as stats_module

    tick = iter(range(1, 100))
    monkeypatch.setattr(
        stats_module.time, "perf_counter", lambda: float(next(tick))
    )
    stats = EvalStats()
    with stats.timer():  # start = 1
        with stats.timer():  # start = 2
            pass  # inner exit must NOT add (2nd span would double-count)
    # outer exit reads tick 3 → wall = 3 - 1; the pre-fix behaviour
    # accumulated both spans (1 + 3 = 4)
    assert stats.wall_time_s == 2.0
    with stats.timer():  # start = 4
        pass  # exit reads 5
    assert stats.wall_time_s == 3.0  # sequential blocks still add up


def test_timer_depth_recovers_after_exception():
    stats = EvalStats()
    with pytest.raises(RuntimeError):
        with stats.timer():
            with stats.timer():
                raise RuntimeError("boom")
    with stats.timer():
        pass
    assert stats._timer_depth == 0
    assert stats.wall_time_s > 0.0


# ------------------------------------- 3. idempotent instrumentation
def test_wrap_predict_fn_is_idempotent():
    stats = EvalStats()
    base = lambda X: np.asarray(X).sum(axis=1)  # noqa: E731
    once = stats.wrap_predict_fn(base)
    twice = stats.wrap_predict_fn(once)
    assert twice.__wrapped__ is base  # wrappers never stack
    twice(np.ones((5, 3)))
    assert stats.n_model_evals == 5  # not 10


def test_rewrapping_moves_counting_to_the_new_ledger():
    first, second = EvalStats(), EvalStats()
    fn = second.wrap_predict_fn(
        first.wrap_predict_fn(lambda X: np.zeros(len(X)))
    )
    fn(np.ones((4, 2)))
    assert first.n_model_evals == 0  # old wrapper was replaced...
    assert second.n_model_evals == 4  # ...so rows count exactly once


def test_reinstrumented_game_counts_each_row_once():
    """A dispatcher reusing a long-lived game builds a fresh runtime per
    request; the Nth runtime must not count every row N times."""
    rng = np.random.default_rng(1)
    background = rng.normal(size=(5, 3))
    instance = np.arange(3.0)
    masks = np.array([[1, 0, 0], [0, 1, 1], [1, 1, 1]], dtype=bool)

    shared_game = MarginalImputationGame(
        lambda X: X.sum(axis=1), instance, background
    )
    ledger = EvalStats()
    for _ in range(3):  # three requests over the same game
        runtime = GameRuntime(shared_game, stats=ledger, cache=False)
    runtime.values_batch(masks)

    fresh = GameRuntime(
        MarginalImputationGame(
            lambda X: X.sum(axis=1), instance, background
        ),
        cache=False,
    )
    fresh.values_batch(masks)
    # pre-fix the triple-wrapped game counted 3x the fresh baseline
    assert ledger.n_model_evals == fresh.stats.n_model_evals > 0
