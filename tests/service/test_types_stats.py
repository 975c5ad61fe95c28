"""Unit tests for the serving contracts and the ServiceStats ledger."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from xaidb.exceptions import ValidationError
from xaidb.runtime import EvalStats
from xaidb.service import (
    ExplainRequest,
    ServiceStats,
    config_digest,
)


# ---------------------------------------------------------------- types
def test_config_digest_is_key_order_invariant():
    assert config_digest({"a": 1, "b": 2}) == config_digest(
        {"b": 2, "a": 1}
    )
    assert config_digest({"a": 1}) != config_digest({"a": 2})
    assert config_digest({}) == config_digest({})


def test_batch_key_coalesces_equal_configs_only():
    instance = np.zeros(3)
    a = ExplainRequest(
        model="m", explainer="lime", instance=instance,
        config={"n_samples": 64},
    )
    b = ExplainRequest(
        model="m", explainer="lime", instance=np.ones(3),
        config={"n_samples": 64},
    )
    c = ExplainRequest(
        model="m", explainer="lime", instance=instance,
        config={"n_samples": 128},
    )
    assert a.batch_key == b.batch_key  # instances differ, key agrees
    assert a.batch_key != c.batch_key  # configs differ, key differs


def test_request_validates_instance_shape():
    with pytest.raises(ValidationError):
        ExplainRequest(
            model="m", explainer="lime", instance=np.zeros((2, 2))
        )


# ---------------------------------------------------------------- stats
def test_percentiles_nearest_rank_on_fixed_sequence():
    stats = ServiceStats()
    # record 1..100 ms in shuffled order: percentile must sort
    for ms in np.random.default_rng(0).permutation(np.arange(1, 101)):
        stats.record_completion(ms / 1e3)
    # nearest-rank: p50 of 100 samples is the 50th smallest, etc.
    assert stats.p50_s == pytest.approx(0.050)
    assert stats.p95_s == pytest.approx(0.095)
    assert stats.p99_s == pytest.approx(0.099)
    assert stats.percentile(100.0) == pytest.approx(0.100)
    assert stats.percentile(1.0) == pytest.approx(0.001)
    assert stats.n_completed == 100
    # the snapshot sorts once and reads the same three ranks
    metadata = stats.as_metadata()
    for q in (50.0, 95.0, 99.0):
        assert metadata[f"p{q:.0f}_s"] == stats.percentile(q)


def test_percentile_edge_cases():
    stats = ServiceStats()
    assert stats.p99_s == 0.0  # empty: no crash, no NaN
    stats.record_completion(0.25)
    assert stats.p50_s == 0.25  # single sample is every percentile
    assert stats.p99_s == 0.25
    with pytest.raises(ValidationError):
        stats.percentile(0.0)
    with pytest.raises(ValidationError):
        stats.percentile(101.0)


def test_latency_buffer_is_bounded():
    stats = ServiceStats(max_latency_samples=8)
    for i in range(20):
        stats.record_completion(float(i))
    assert stats.n_latency_samples == 8  # ring wrapped, no growth
    assert stats.n_completed == 20  # counter still exact
    # the window holds the most recent completions
    assert stats.percentile(100.0) == 19.0


def test_latency_record_costs_no_memory_per_sample():
    """The ring is preallocated: recording completions after
    construction allocates (almost) nothing, where a list of Python
    floats would hold ~32 bytes per sample."""
    tracemalloc.start()
    try:
        stats = ServiceStats()
        before = tracemalloc.get_traced_memory()[0]
        for i in range(10_000):
            stats.record_completion(i * 1e-4)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert stats.n_latency_samples == 10_000
    assert grown < 12 * 10_000
    assert stats.percentile(100.0) == 9_999 * 1e-4


def test_batch_histogram_and_mean():
    stats = ServiceStats()
    assert stats.mean_batch_size == 0.0
    for size in (1, 4, 4, 7):
        stats.record_batch(size)
    assert stats.batch_sizes == {1: 1, 4: 2, 7: 1}
    assert stats.mean_batch_size == pytest.approx(4.0)


def test_composes_with_eval_stats():
    stats = ServiceStats()
    stats.merge_runtime(EvalStats(n_model_evals=100, cache_hits=10))
    stats.merge_runtime(None)  # backends without a ledger are fine
    stats.merge_runtime(EvalStats(n_model_evals=50, cache_evictions=2))
    assert stats.runtime.n_model_evals == 150
    assert stats.runtime.cache_hits == 10
    assert stats.runtime.cache_evictions == 2
    metadata = stats.as_metadata()
    assert metadata["runtime"]["n_model_evals"] == 150
    assert set(metadata) >= {
        "n_received", "n_completed", "n_shed", "n_deadline_expired",
        "p50_s", "p95_s", "p99_s", "mean_batch_size", "batch_size_hist",
        "queue_depth_peak", "runtime",
    }
