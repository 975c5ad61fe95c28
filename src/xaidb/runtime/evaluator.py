"""The shared evaluation substrate for perturbation-based explainers.

Every surveyed family — LIME, KernelSHAP, Anchors, Data Shapley — reduces
to *many model evaluations over perturbed inputs* (PAPER.md's central
cost claim).  :class:`GameRuntime` is the one place that cost is paid:
it layers a batch-aware memo cache, bounded-memory chunking and full
evaluation accounting over any cooperative
:class:`~xaidb.explainers.shapley.games.Game`, so estimators share work
instead of re-rolling their own loops.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.runtime.cache import DEFAULT_MAX_ENTRIES, CoalitionCache
from xaidb.runtime.stats import EvalStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    # The runtime layer sits below the explainers package; the Game
    # protocol is consumed structurally (n_players/value/values_batch),
    # never imported at module scope — that would be a cycle.
    from xaidb.explainers.shapley.games import Game

__all__ = ["RuntimeConfig", "GameRuntime"]


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the shared evaluation runtime.

    Attributes
    ----------
    cache:
        Memoise coalition values (and dedupe within each batch).  Off,
        every request is evaluated verbatim — the seed-loop baseline.
    max_batch_rows:
        Upper bound on hybrid-matrix rows materialised per model call;
        ``None`` evaluates each batch in one shot (the seed behaviour).
    max_cache_entries:
        Capacity bound on the coalition memo cache (FIFO eviction,
        ``None`` = unbounded).  The default is far above any single
        explanation's coalition count, so results are bitwise unchanged
        there; it exists so a long-running server cannot leak memory on
        every distinct coalition.  Evictions surface as
        ``EvalStats.cache_evictions``.
    """

    cache: bool = True
    max_batch_rows: int | None = 16384
    max_cache_entries: int | None = DEFAULT_MAX_ENTRIES

    def __post_init__(self) -> None:
        if self.max_batch_rows is not None and self.max_batch_rows < 1:
            raise ValidationError("max_batch_rows must be >= 1 or None")
        if self.max_cache_entries is not None and self.max_cache_entries < 1:
            raise ValidationError("max_cache_entries must be >= 1 or None")


class GameRuntime:
    """Memoised, chunked, instrumented view of a cooperative game.

    The runtime *behaves as* a game (``n_players``/``value``/
    ``values_batch``/``grand_value``/``empty_value``), so any Shapley
    estimator can consume it unchanged; repeated and overlapping
    coalition workloads are served from the cache, and all model-eval
    accounting lands in :attr:`stats`.  It deliberately does not
    subclass :class:`~xaidb.explainers.shapley.games.Game` — the
    runtime layer sits below the explainers package.

    The wrapped game is instrumented in place: its ``predict_fn`` (when
    it has one) is replaced by a counting wrapper, so the runtime should
    own the game for the duration of the explanation.
    """

    #: Estimators must not re-wrap this game in another memo layer.
    provides_cache = True

    def __init__(
        self,
        game: "Game",
        *,
        config: RuntimeConfig | None = None,
        stats: EvalStats | None = None,
    ) -> None:
        if game.n_players < 1:
            raise ValidationError("a game needs at least one player")
        self.n_players = game.n_players
        self.game = game
        self.config = config or RuntimeConfig()
        self.stats = stats or EvalStats()
        self._cache = (
            CoalitionCache(
                game.n_players,
                max_entries=self.config.max_cache_entries,
            )
            if self.config.cache
            else None
        )
        # ``wrap_predict_fn`` is idempotent: re-wrapping a game that an
        # earlier runtime already instrumented (a dispatcher reusing
        # long-lived games) replaces the old counting wrapper instead of
        # stacking another one, so each scored row counts exactly once —
        # in *this* runtime's ledger.
        if hasattr(game, "predict_fn"):
            game.predict_fn = self.stats.wrap_predict_fn(game.predict_fn)
        self._evictions_seen = 0
        batch_fn = getattr(game, "values_batch", None)
        self._batch_fn = batch_fn
        self._batch_fn_chunks = bool(batch_fn) and (
            "max_batch_rows" in inspect.signature(batch_fn).parameters
        )

    # ------------------------------------------------------------------
    def _mask_of(self, coalition: Iterable[int]) -> np.ndarray:
        mask = np.zeros(self.n_players, dtype=bool)
        present = list(coalition)
        if present:
            index = np.asarray(present, dtype=int)
            if index.min() < 0 or index.max() >= self.n_players:
                raise ValidationError(
                    "coalition contains invalid player index"
                )
            mask[index] = True
        return mask

    def _sync_evictions(self) -> None:
        """Mirror the cache's eviction count into the ledger (as deltas,
        so a stats object shared across runtimes accumulates correctly)."""
        if self._cache is None:
            return
        delta = self._cache.n_evictions - self._evictions_seen
        if delta:
            self.stats.cache_evictions += delta
            self._evictions_seen = self._cache.n_evictions

    def value(self, coalition: Iterable[int]) -> float:
        mask = self._mask_of(coalition)
        if self._cache is not None:
            hit = self._cache.get(mask)
            if hit is not None:
                self.stats.cache_hits += 1
                return hit
            self.stats.cache_misses += 1
        result = float(self.game.value(np.flatnonzero(mask)))
        self.stats.n_coalition_evals += 1
        if self._cache is not None:
            self._cache.put(mask, result)
            self._sync_evictions()
        return result

    # ------------------------------------------------------------------
    def values_batch(self, masks: np.ndarray) -> np.ndarray:
        """Evaluate a ``(n, d)`` boolean mask batch, memoised and chunked."""
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.n_players:
            raise ValidationError(
                f"masks must have shape (n, {self.n_players})"
            )
        if self._cache is None:
            values = self._evaluate(masks)
            self.stats.n_coalition_evals += masks.shape[0]
            return values

        values, missing = self._cache.lookup_batch(masks)
        self.stats.cache_hits += masks.shape[0] - len(missing)
        if len(missing):
            # Dedupe inside the batch: paired sampling and repeated
            # workloads emit identical masks that need one evaluation.
            keys: dict[bytes, int] = {}
            unique_rows: list[int] = []
            position: list[int] = []
            for row in missing:
                key = masks[row].tobytes()
                slot = keys.get(key)
                if slot is None:
                    keys[key] = len(unique_rows)
                    position.append(len(unique_rows))
                    unique_rows.append(int(row))
                else:
                    position.append(slot)
            if len(unique_rows) == masks.shape[0]:
                # Nothing cached and no duplicates: evaluate the
                # caller's array as-is, skipping a full-array copy.
                unique_masks = masks
            else:
                unique_masks = masks[unique_rows]
            self.stats.cache_misses += len(unique_rows)
            self.stats.cache_hits += len(missing) - len(unique_rows)
            unique_values = self._evaluate(unique_masks)
            self.stats.n_coalition_evals += len(unique_rows)
            self._cache.store_batch(unique_masks, unique_values)
            self._sync_evictions()
            values[missing] = unique_values[position]
        return values

    def _evaluate(self, masks: np.ndarray) -> np.ndarray:
        """Raw (uncached) evaluation, chunked when the game supports it."""
        if self._batch_fn is None:
            return np.asarray(
                [self.game.value(np.flatnonzero(mask)) for mask in masks],
                dtype=float,
            )
        if self._batch_fn_chunks:
            return np.asarray(
                self._batch_fn(
                    masks, max_batch_rows=self.config.max_batch_rows
                ),
                dtype=float,
            )
        return np.asarray(self._batch_fn(masks), dtype=float)

    # ------------------------------------------------------------------
    def grand_value(self) -> float:
        """``v(N)`` — the payoff of the full coalition (cached)."""
        return self.value(range(self.n_players))

    def empty_value(self) -> float:
        """``v(∅)`` — the base payoff (cached)."""
        return self.value(())

    @property
    def n_cached(self) -> int:
        """Distinct coalitions held in the memo cache."""
        return len(self._cache) if self._cache is not None else 0
