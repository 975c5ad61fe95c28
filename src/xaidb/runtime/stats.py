"""Evaluation accounting for the shared runtime.

Every perturbation-based explainer ultimately spends its budget on model
evaluations (the tutorial's central cost claim); :class:`EvalStats` is the
one ledger they all write to, so benchmarks and serving layers can compare
methods by *work done* rather than wall-clock alone.  Explainers attach
``stats.as_metadata()`` to their :class:`~xaidb.explainers.base.
FeatureAttribution` so ``n_model_evals``, ``cache_hit_rate`` and
``wall_time_s`` travel with every explanation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

__all__ = ["EvalStats"]

# Structural twin of ``xaidb.explainers.base.PredictFn`` — re-declared
# here because the runtime layer sits *below* the explainers package
# (explainers import the runtime, never the reverse).
_PredictFn = Callable[[np.ndarray], np.ndarray]


@dataclass
class EvalStats:
    """Counters for one explanation run (or one shared runtime).

    Attributes
    ----------
    n_model_evals:
        Total *rows* scored by the model function.  This is the unit the
        tutorial's cost analysis is written in: one perturbed input, one
        forward pass.
    n_coalition_evals:
        Coalition values actually computed (cache misses that reached the
        game's value function).
    cache_hits / cache_misses:
        Memo-cache outcomes, over both scalar and batch lookups.
    wall_time_s:
        Seconds accumulated inside :meth:`timer` blocks.  Nested blocks
        on the *same* ledger count the outermost span only, so an outer
        ``explain_batch`` timer wrapped around inner per-explanation
        timed sections never double-counts wall time (which would
        inflate the denominator of :attr:`rows_per_s`).
    cache_evictions:
        Entries dropped from a :class:`~xaidb.runtime.GameRuntime` memo
        to stay within ``MAX_CACHE_ENTRIES`` — nonzero means the working
        set no longer fits and hit rates are paying for it.
    n_pool_reuses:
        Pooled ``parallel_map`` calls served by already-warm workers of
        the persistent :class:`~xaidb.runtime.parallel.WorkerPool`
        (each one is a process-pool spawn the run did not pay for).
    n_serial_fallbacks:
        ``parallel_map`` calls that could not cross the process
        boundary (unpicklable work, dead workers) and ran serially
        instead.  Results are identical either way; a nonzero count on
        a hot path means the requested parallelism silently bought
        nothing.
    """

    n_model_evals: int = 0
    n_coalition_evals: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    wall_time_s: float = 0.0
    n_pool_reuses: int = 0
    n_serial_fallbacks: int = 0
    #: Live :meth:`timer` nesting depth — bookkeeping, not a counter
    #: (never copied, compared or merged).
    _timer_depth: int = field(
        default=0, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        """Fraction of coalition lookups served from the memo cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def rows_per_s(self) -> float:
        """Model-evaluation throughput over the timed blocks — the
        hardware-utilisation number benchmark A10 tracks."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.n_model_evals / self.wall_time_s

    def count_rows(self, n_rows: int) -> None:
        self.n_model_evals += int(n_rows)

    def wrap_predict_fn(self, predict_fn: _PredictFn) -> _PredictFn:
        """Wrap ``predict_fn`` so every scored row is counted here.

        Instrumentation is *idempotent*: wrapping a function that is
        already a counting wrapper (its own, or another ledger's)
        replaces that wrapper instead of stacking a second one — a
        dispatcher that re-instruments a long-lived game on every
        request must not multiply ``n_model_evals`` by the number of
        times the game has been wrapped.  The original callable is kept
        on the wrapper as :attr:`__wrapped__`.
        """
        predict_fn = getattr(predict_fn, "__wrapped__", predict_fn)

        def counted(X: np.ndarray) -> np.ndarray:
            X = np.asarray(X)
            self.count_rows(X.shape[0] if X.ndim > 1 else 1)
            return predict_fn(X)

        counted.__wrapped__ = predict_fn
        return counted

    @contextmanager
    def timer(self) -> Iterator["EvalStats"]:
        """Accumulate the wall-time of the enclosed block.

        Re-entrancy-safe: when timer blocks on the same ledger nest
        (an outer batch timer around inner per-call timed sections),
        only the outermost block adds to :attr:`wall_time_s`.
        """
        start = time.perf_counter()
        self._timer_depth += 1
        try:
            yield self
        finally:
            self._timer_depth -= 1
            if self._timer_depth == 0:
                self.wall_time_s += time.perf_counter() - start

    # ------------------------------------------------------------------
    def copy(self) -> "EvalStats":
        """Counter snapshot."""
        return EvalStats(
            n_model_evals=self.n_model_evals,
            n_coalition_evals=self.n_coalition_evals,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            cache_evictions=self.cache_evictions,
            wall_time_s=self.wall_time_s,
            n_pool_reuses=self.n_pool_reuses,
            n_serial_fallbacks=self.n_serial_fallbacks,
        )

    def since(self, earlier: "EvalStats") -> "EvalStats":
        """Counters accumulated after the ``earlier`` snapshot — how a
        shared runtime attributes work to one explanation call."""
        return EvalStats(
            n_model_evals=self.n_model_evals - earlier.n_model_evals,
            n_coalition_evals=(
                self.n_coalition_evals - earlier.n_coalition_evals
            ),
            cache_hits=self.cache_hits - earlier.cache_hits,
            cache_misses=self.cache_misses - earlier.cache_misses,
            cache_evictions=self.cache_evictions - earlier.cache_evictions,
            wall_time_s=self.wall_time_s - earlier.wall_time_s,
            n_pool_reuses=self.n_pool_reuses - earlier.n_pool_reuses,
            n_serial_fallbacks=(
                self.n_serial_fallbacks - earlier.n_serial_fallbacks
            ),
        )

    def merge(self, other: "EvalStats") -> "EvalStats":
        """Fold another ledger into this one (e.g. per-worker stats)."""
        self.n_model_evals += other.n_model_evals
        self.n_coalition_evals += other.n_coalition_evals
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_evictions += other.cache_evictions
        self.wall_time_s += other.wall_time_s
        self.n_pool_reuses += other.n_pool_reuses
        self.n_serial_fallbacks += other.n_serial_fallbacks
        return self

    def as_metadata(self) -> dict[str, Any]:
        """The counter block explainers splice into attribution metadata."""
        return {
            "n_model_evals": int(self.n_model_evals),
            "cache_hit_rate": float(self.cache_hit_rate),
            "cache_evictions": int(self.cache_evictions),
            "wall_time_s": float(self.wall_time_s),
            "rows_per_s": float(self.rows_per_s),
            "n_pool_reuses": int(self.n_pool_reuses),
            "n_serial_fallbacks": int(self.n_serial_fallbacks),
        }
