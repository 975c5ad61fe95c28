"""Data Shapley: equitable valuation of training data
(Ghorbani & Zou 2019).

The value of training point ``i`` is its Shapley value in the game whose
players are training points and whose payoff is validation performance.
Exact computation needs a retrain per coalition; the paper's **Truncated
Monte Carlo (TMC) Shapley** samples random permutations, walks each
prefix retraining as points join, and *truncates* a permutation once the
running utility is within ``truncation_tolerance`` of the full-data
utility (later points then contribute ~nothing).  The tolerance is the
E14 ablation knob.

The permutation walks are the one loop in :mod:`xaidb` that runs in
worker processes: ``n_jobs > 1`` fans them out over the persistent
:class:`~xaidb.runtime.WorkerPool`, bit-identically to the serial run.
"""

from __future__ import annotations

import numpy as np

from xaidb.datavaluation.utility import UtilityFunction
from xaidb.exceptions import ValidationError
from xaidb.runtime import EvalStats, parallel_map
from xaidb.utils.rng import RandomState, check_random_state, spawn_seeds
from xaidb.utils.validation import check_array, check_matching_lengths

__all__ = ["tmc_shapley_values", "DataShapley"]


def _tmc_permutation(
    task: tuple[
        UtilityFunction, np.ndarray, np.ndarray, int, float, float, float
    ],
) -> np.ndarray:
    """Walk one seeded permutation — the process-pool work unit.

    Each permutation derives its ordering from its own spawned seed, so
    the walk is independent of every other permutation and of execution
    order: serial and parallel runs are bit-identical.  The task is
    pickled whole on the pooled path, training arrays included.
    """
    (
        utility,
        X_train,
        y_train,
        seed,
        full_utility,
        null_utility,
        truncation_tolerance,
    ) = task
    n = len(y_train)
    order = check_random_state(seed).permutation(n)
    sample = np.zeros(n)
    previous = null_utility
    for position, point in enumerate(order):
        prefix = order[: position + 1]
        current = utility(X_train, y_train, prefix)
        sample[point] = current - previous
        previous = current
        if abs(full_utility - current) <= truncation_tolerance:
            break  # later points in this permutation contribute ~nothing
    return sample


def tmc_shapley_values(
    utility: UtilityFunction,
    X_train: np.ndarray,
    y_train: np.ndarray,
    *,
    n_permutations: int = 100,
    truncation_tolerance: float = 0.01,
    random_state: RandomState = None,
    n_jobs: int | None = None,
    stats: EvalStats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """TMC-Shapley values.

    Parameters
    ----------
    n_jobs:
        Worker processes for the (embarrassingly parallel) permutation
        walks; ``None``/``1`` runs serially.  Values are bit-identical
        for every ``n_jobs`` under a fixed ``random_state`` — each
        permutation owns a spawned child seed.
    stats:
        Optional :class:`~xaidb.runtime.EvalStats` ledger; pooled walks
        record warm-pool reuse and serial fallbacks there.

    Returns
    -------
    (values, standard_errors):
        Monte-Carlo estimates and their standard errors over permutations.
    """
    X_train = check_array(X_train, name="X_train", ndim=2)
    y_train = check_array(y_train, name="y_train", ndim=1)
    check_matching_lengths(("X_train", X_train), ("y_train", y_train))
    if n_permutations < 1:
        raise ValidationError("n_permutations must be >= 1")
    full_utility = utility(X_train, y_train)
    null_utility = utility.null_utility()
    seeds = spawn_seeds(random_state, n_permutations)
    walks = parallel_map(
        _tmc_permutation,
        [
            (
                utility,
                X_train,
                y_train,
                seed,
                full_utility,
                null_utility,
                truncation_tolerance,
            )
            for seed in seeds
        ],
        n_jobs=n_jobs,
        stats=stats,
    )
    samples = np.asarray(walks)
    values = samples.mean(axis=0)
    if n_permutations > 1:
        errors = samples.std(axis=0, ddof=1) / np.sqrt(n_permutations)
    else:
        errors = np.full(len(y_train), np.nan)
    return values, errors


class DataShapley:
    """Object-style wrapper storing the data and exposing analysis helpers
    (the removal curves of Ghorbani & Zou's Figure 3 / experiment E14)."""

    def __init__(
        self,
        utility: UtilityFunction,
        X_train: np.ndarray,
        y_train: np.ndarray,
        *,
        n_permutations: int = 100,
        truncation_tolerance: float = 0.01,
        n_jobs: int | None = None,
    ) -> None:
        self.utility = utility
        self.X_train = check_array(X_train, name="X_train", ndim=2)
        self.y_train = check_array(y_train, name="y_train", ndim=1)
        self.n_permutations = n_permutations
        self.truncation_tolerance = truncation_tolerance
        self.n_jobs = n_jobs
        self.values_: np.ndarray | None = None
        self.errors_: np.ndarray | None = None
        #: Ledger of the most recent :meth:`fit` (wall-time and, on the
        #: pooled path, warm-pool reuse across repeated fits).
        self.stats_: EvalStats | None = None

    def fit(self, *, random_state: RandomState = None) -> "DataShapley":
        self.stats_ = EvalStats()
        with self.stats_.timer():
            self.values_, self.errors_ = tmc_shapley_values(
                self.utility,
                self.X_train,
                self.y_train,
                n_permutations=self.n_permutations,
                truncation_tolerance=self.truncation_tolerance,
                random_state=random_state,
                n_jobs=self.n_jobs,
                stats=self.stats_,
            )
        return self

    # ------------------------------------------------------------------
    def removal_curve(
        self,
        *,
        remove: str = "high",
        fractions: np.ndarray | None = None,
        values: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Utility after removing the top/bottom-valued fraction of data.

        ``remove="high"`` removes the most valuable points first (utility
        should collapse quickly if values are meaningful);
        ``remove="low"`` removes the least valuable first (utility should
        hold or improve — corrupted points go first).  ``values`` defaults
        to the fitted Shapley values, but any scoring (LOO, random) can be
        passed for baseline comparison.
        """
        if values is None:
            if self.values_ is None:
                raise ValidationError("call fit() first or pass values")
            values = self.values_
        if remove not in ("high", "low"):
            raise ValidationError("remove must be 'high' or 'low'")
        if fractions is None:
            fractions = np.linspace(0.0, 0.5, 11)
        order = np.argsort(values)
        if remove == "high":
            order = order[::-1]
        n = len(self.y_train)
        utilities = []
        for fraction in fractions:
            n_removed = int(round(fraction * n))
            keep = order[n_removed:]
            utilities.append(
                self.utility(self.X_train, self.y_train, keep)
            )
        return np.asarray(fractions), np.asarray(utilities)
