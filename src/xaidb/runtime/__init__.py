"""xaidb.runtime — the shared evaluation substrate (tutorial cost model).

Every perturbation-based explanation method the tutorial surveys spends
its budget the same way: many model evaluations over perturbed inputs.
This package is where that budget is managed for the whole system:

- :class:`GameRuntime` — the one coalition memo (bitmask-keyed,
  FIFO-bounded at ``MAX_CACHE_ENTRIES``, shared by scalar ``value`` and
  batch ``values_batch``) with bounded-memory chunked evaluation;
- :func:`parallel_map` — opt-in, seed-deterministic pooled map for
  embarrassingly parallel outer loops (TMC Data Shapley's permutation
  walks), riding the persistent :class:`WorkerPool` so workers survive
  across calls;
- :class:`EvalStats` — the evaluation ledger (``n_model_evals``,
  ``cache_hit_rate``, ``wall_time_s``) surfaced in every
  :class:`~xaidb.explainers.base.FeatureAttribution`'s metadata;
- :class:`RuntimeConfig` — the one user setting, ``max_batch_rows``,
  threaded through all consumers.

See ``docs/RUNTIME.md`` and ``docs/PERFORMANCE.md`` for the full tour.
"""

from xaidb.runtime.evaluator import GameRuntime, RuntimeConfig
from xaidb.runtime.parallel import WorkerPool, parallel_map
from xaidb.runtime.stats import EvalStats

__all__ = [
    "EvalStats",
    "GameRuntime",
    "RuntimeConfig",
    "WorkerPool",
    "parallel_map",
]
