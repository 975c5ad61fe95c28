"""The persistent WorkerPool: warm-worker reuse accounting, the serial
fallback, and the bit-identical-for-every-``n_jobs`` contract."""

from __future__ import annotations

import numpy as np
import pytest

from xaidb.runtime import EvalStats, WorkerPool, parallel_map


def _seeded_draw(seed: int) -> np.ndarray:  # module-level: picklable
    return np.random.default_rng(seed).normal(size=3)


@pytest.fixture()
def fresh_pool():
    """A cold singleton for tests that assert on reuse counters, with
    guaranteed cleanup of its workers."""
    WorkerPool.close_global()
    yield WorkerPool.get()
    WorkerPool.close_global()


# ------------------------------------------------------------ determinism
def test_results_bit_identical_across_n_jobs(fresh_pool):
    seeds = list(range(20))
    reference = [_seeded_draw(seed) for seed in seeds]
    for n_jobs in (None, 1, 4):
        results = parallel_map(_seeded_draw, seeds, n_jobs=n_jobs)
        assert len(results) == len(reference)
        for got, want in zip(results, reference):
            assert np.array_equal(got, want)


# ------------------------------------------------------------ reuse ledger
def test_pool_reuse_counted_on_second_map(fresh_pool):
    stats = EvalStats()
    parallel_map(_seeded_draw, list(range(6)), n_jobs=2, stats=stats)
    assert stats.n_pool_reuses == 0  # cold start paid the spawn
    parallel_map(_seeded_draw, list(range(6)), n_jobs=2, stats=stats)
    assert stats.n_pool_reuses == 1  # warm workers served this one
    assert fresh_pool.n_maps == 2
    assert fresh_pool.n_pool_reuses == 1


def test_pool_grows_without_losing_reuse_semantics(fresh_pool):
    parallel_map(_seeded_draw, list(range(4)), n_jobs=2)
    stats = EvalStats()
    # asking for more workers than the pool holds forces a respawn
    parallel_map(_seeded_draw, list(range(8)), n_jobs=4, stats=stats)
    assert stats.n_pool_reuses == 0
    parallel_map(_seeded_draw, list(range(4)), n_jobs=2, stats=stats)
    assert stats.n_pool_reuses == 1  # smaller requests ride the big pool


def test_repeated_data_shapley_fits_reuse_warm_pool(fresh_pool):
    """The acceptance contract: a second pooled explainer call must be
    served by already-warm workers, visible in its stats ledger — and
    stay bit-identical to the serial path."""
    from xaidb.datavaluation import DataShapley, UtilityFunction
    from xaidb.models import KNeighborsClassifier

    rng = np.random.default_rng(17)
    X = rng.normal(size=(18, 3))
    y = (X[:, 0] > 0).astype(int)
    X_valid = rng.normal(size=(12, 3))
    y_valid = (X_valid[:, 0] > 0).astype(int)
    utility = UtilityFunction(
        KNeighborsClassifier(n_neighbors=3), X_valid, y_valid
    )
    pooled = DataShapley(
        utility, X, y, n_permutations=4, n_jobs=2
    )
    pooled.fit(random_state=3)
    first = pooled.values_.copy()
    pooled.fit(random_state=3)
    assert pooled.stats_.n_pool_reuses > 0
    assert np.array_equal(pooled.values_, first)
    serial = DataShapley(utility, X, y, n_permutations=4).fit(
        random_state=3
    )
    assert np.array_equal(serial.values_, pooled.values_)


# ------------------------------------------------------------ contract edges
def test_unpicklable_task_counts_a_serial_fallback(fresh_pool):
    stats = EvalStats()
    results = parallel_map(
        lambda seed: seed * 2, list(range(5)), n_jobs=2, stats=stats
    )
    assert results == [0, 2, 4, 6, 8]  # identical verdict, serial path
    assert stats.n_serial_fallbacks == 1
    assert stats.n_pool_reuses == 0
    assert "n_serial_fallbacks" in stats.as_metadata()


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_bit_identity_under_both_start_methods(method, monkeypatch):
    """The determinism contract cannot depend on how workers are born:
    fork inherits the parent heap, spawn re-imports from scratch, and
    ``parallel_map`` must be bit-identical under both (and serial)."""
    import multiprocessing

    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable here")
    WorkerPool.close_global()  # the env hook only binds at pool creation
    monkeypatch.setenv("XAIDB_POOL_START_METHOD", method)
    try:
        seeds = list(range(8))
        reference = [_seeded_draw(seed) for seed in seeds]
        for n_jobs in (None, 1, 4):
            results = parallel_map(_seeded_draw, seeds, n_jobs=n_jobs)
            for got, want in zip(results, reference):
                assert np.array_equal(got, want)
        pool = WorkerPool.get()
        assert pool.n_maps == 1  # the n_jobs=4 map really used the pool
    finally:
        WorkerPool.close_global()

