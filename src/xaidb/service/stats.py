"""Serving-side accounting: latency percentiles, queueing, batching.

:class:`ServiceStats` is to the serving layer what
:class:`~xaidb.runtime.stats.EvalStats` is to the evaluation substrate —
and it *composes* with it: every dispatched batch folds the explainer's
evaluation ledger into :attr:`ServiceStats.runtime`, so one object
answers both "how fast are responses?" (p50/p95/p99, shed and deadline
counts, batch-size histogram) and "how much model work bought them?"
(rows scored, cache behaviour, eviction pressure).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.runtime.stats import EvalStats

__all__ = ["ServiceStats", "MAX_DISPATCH_FAILURES"]

#: Completed-request latencies kept for percentile estimation, in one
#: preallocated float64 ring (8 bytes a sample); beyond this the ring
#: wraps (most-recent window) so a long-running server's stats object
#: cannot grow without bound — the same discipline the bounded
#: coalition memo of :class:`~xaidb.runtime.GameRuntime` follows.
DEFAULT_MAX_LATENCY_SAMPLES = 65536

#: Dispatch failures kept in :attr:`ServiceStats.dispatch_failures`.
#: Batch keys carry a digest of the client-supplied config, so the
#: record keeps only the most recent ones; a constant, not a knob.
MAX_DISPATCH_FAILURES = 32


@dataclass
class ServiceStats:
    """Counters and latency record for one explanation server.

    Attributes
    ----------
    n_received / n_completed / n_failed:
        Requests submitted to a running server, answered successfully,
        and failed (backend error, unknown model/explainer, a dead
        batching loop).  A request rejected at admission for its
        instance width counts as received and failed, so ``n_received
        == n_completed + n_failed + n_deadline_expired + n_cancelled``
        once the server is idle.
    n_shed:
        Requests rejected at the door because the queue was full.
    n_deadline_expired:
        Requests whose deadline elapsed before completion (dropped
        pre-dispatch or discarded post-dispatch).
    n_cancelled:
        Received requests whose caller cancelled the wait.
    n_batches:
        Dispatched micro-batches; ``batch_sizes`` histograms their
        sizes, so ``mean_batch_size`` measures how much coalescing the
        traffic actually admitted.
    queue_depth_peak:
        High-water mark of the bounded request queue.
    runtime:
        The composed :class:`~xaidb.runtime.stats.EvalStats` — every
        dispatched batch's evaluation ledger merged into one.
    serve_error:
        ``repr`` of the exception that ended the batching loop, or
        ``None`` while it has not died.
    dispatch_failures:
        The last :data:`MAX_DISPATCH_FAILURES` failed dispatches, oldest
        first, as ``(batch key, repr(error))`` pairs.
    """

    n_received: int = 0
    n_completed: int = 0
    n_failed: int = 0
    n_shed: int = 0
    n_deadline_expired: int = 0
    n_cancelled: int = 0
    n_batches: int = 0
    queue_depth_peak: int = 0
    batch_sizes: dict[int, int] = field(default_factory=dict)
    runtime: EvalStats = field(default_factory=EvalStats)
    serve_error: str | None = None
    dispatch_failures: deque[tuple[tuple[str, str, str], str]] = field(
        default_factory=lambda: deque(maxlen=MAX_DISPATCH_FAILURES)
    )
    max_latency_samples: int = DEFAULT_MAX_LATENCY_SAMPLES
    _latencies: np.ndarray = field(init=False, repr=False, compare=False)
    #: completions recorded into the ring, wrapped ones included
    _n_recorded: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self._latencies = np.empty(self.max_latency_samples)

    # ------------------------------------------------------------- record
    def observe_queue_depth(self, depth: int) -> None:
        if depth > self.queue_depth_peak:
            self.queue_depth_peak = depth

    def record_batch(self, size: int) -> None:
        self.n_batches += 1
        self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1

    def record_completion(self, latency_s: float) -> None:
        self.n_completed += 1
        # wrap: keep a most-recent window without unbounded growth
        self._latencies[self._n_recorded % self.max_latency_samples] = latency_s
        self._n_recorded += 1

    def _sorted_latencies(self) -> np.ndarray:
        """The filled part of the ring, sorted."""
        return np.sort(self._latencies[: self.n_latency_samples])

    # ---------------------------------------------------------- percentiles
    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of recorded latencies (seconds).

        ``percentile(50)`` on ``n`` sorted samples returns the
        ``ceil(n/2)``-th — the textbook nearest-rank definition, chosen
        over interpolation so the reported p99 is a latency some request
        actually paid.  Returns 0.0 before any completion.
        """
        return _nearest_rank(self._sorted_latencies(), q)

    @property
    def p50_s(self) -> float:
        return self.percentile(50.0)

    @property
    def p95_s(self) -> float:
        return self.percentile(95.0)

    @property
    def p99_s(self) -> float:
        return self.percentile(99.0)

    @property
    def n_latency_samples(self) -> int:
        return min(self._n_recorded, self.max_latency_samples)

    @property
    def mean_batch_size(self) -> float:
        total = sum(size * n for size, n in self.batch_sizes.items())
        return total / self.n_batches if self.n_batches else 0.0

    # ------------------------------------------------------------- compose
    def merge_runtime(self, stats: EvalStats | None) -> None:
        """Fold one dispatched batch's evaluation ledger into
        :attr:`runtime` (None-tolerant for backends without a ledger)."""
        if stats is not None:
            self.runtime.merge(stats)

    def as_metadata(self) -> dict[str, Any]:
        """One serialisable block: serving counters + latency
        percentiles + the composed evaluation ledger."""
        ordered = self._sorted_latencies()  # once for all three quantiles
        return {
            "n_received": int(self.n_received),
            "n_completed": int(self.n_completed),
            "n_failed": int(self.n_failed),
            "n_shed": int(self.n_shed),
            "n_deadline_expired": int(self.n_deadline_expired),
            "n_cancelled": int(self.n_cancelled),
            "n_batches": int(self.n_batches),
            "queue_depth_peak": int(self.queue_depth_peak),
            "mean_batch_size": float(self.mean_batch_size),
            "batch_size_hist": {
                str(size): int(count)
                for size, count in sorted(self.batch_sizes.items())
            },
            "p50_s": _nearest_rank(ordered, 50.0),
            "p95_s": _nearest_rank(ordered, 95.0),
            "p99_s": _nearest_rank(ordered, 99.0),
            "runtime": self.runtime.as_metadata(),
            "serve_error": self.serve_error,
            "dispatch_failures": [
                {"key": list(key), "error": error}
                for key, error in self.dispatch_failures
            ],
        }


def _nearest_rank(ordered: np.ndarray, q: float) -> float:
    """Nearest-rank ``q``-th percentile of already-sorted samples, 0.0
    when there are none."""
    if not 0.0 < q <= 100.0:
        raise ValidationError("q must be in (0, 100]")
    if not len(ordered):
        return 0.0
    return float(ordered[math.ceil(q / 100.0 * len(ordered)) - 1])
