"""The shared evaluation substrate for perturbation-based explainers.

Every surveyed family — LIME, KernelSHAP, Anchors, Data Shapley — reduces
to *many model evaluations over perturbed inputs* (PAPER.md's central
cost claim).  :class:`GameRuntime` is the one place that cost is paid:
it layers the coalition memo, bounded-memory chunking and full
evaluation accounting over any cooperative
:class:`~xaidb.explainers.shapley.games.Game`, so estimators share work
instead of re-rolling their own loops.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.runtime.stats import EvalStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    # The runtime layer sits below the explainers package; the Game
    # protocol is consumed structurally (n_players/value/values_batch),
    # never imported at module scope — that would be a cycle.
    from xaidb.explainers.shapley.games import Game

__all__ = ["MAX_CACHE_ENTRIES", "RuntimeConfig", "GameRuntime"]


#: Capacity of each runtime's coalition memo; past it the oldest entries
#: are evicted (FIFO) and counted in ``EvalStats.cache_evictions``.
#: ``2**20`` holds every coalition of the largest exact enumeration the
#: repo allows (20 players), so exact Shapley and Banzhaf never evict —
#: a smaller bound makes their cyclic access pattern thrash.  The bound
#: exists so a long-running server cannot leak memory on every distinct
#: coalition; eviction never changes values, only cost.
MAX_CACHE_ENTRIES = 1 << 20


@dataclass(frozen=True)
class RuntimeConfig:
    """Settings of the shared evaluation runtime.

    Attributes
    ----------
    max_batch_rows:
        Upper bound on hybrid-matrix rows materialised per model call;
        ``None`` evaluates each batch in one shot (the seed behaviour).
    """

    max_batch_rows: int | None = 16384

    def __post_init__(self) -> None:
        if self.max_batch_rows is not None and self.max_batch_rows < 1:
            raise ValidationError("max_batch_rows must be >= 1 or None")


class GameRuntime:
    """Memoised, chunked, instrumented view of a cooperative game.

    The runtime *behaves as* a game (``n_players``/``value``/
    ``values_batch``/``grand_value``/``empty_value``), so any Shapley
    estimator can consume it unchanged; repeated and overlapping
    coalition workloads are served from the memo, and all model-eval
    accounting lands in :attr:`stats`.  It deliberately does not
    subclass :class:`~xaidb.explainers.shapley.games.Game` — the
    runtime layer sits below the explainers package.

    The memo keys a coalition by its integer bitmask (bit ``i`` set =
    player ``i`` present), one format for the scalar and batch paths.
    A game is evaluated on the sorted tuple of present players, or
    through its own ``values_batch(masks, max_batch_rows=...)`` when it
    has one.  ``cache=False`` evaluates every request verbatim — for
    estimators whose coalitions never repeat, where lookups cannot hit.

    A game with a ``predict_fn`` is evaluated through a shallow copy
    whose ``predict_fn`` counts every scored row in :attr:`stats`; the
    caller's game object is never modified.
    """

    def __init__(
        self,
        game: "Game",
        *,
        config: RuntimeConfig | None = None,
        stats: EvalStats | None = None,
        cache: bool = True,
    ) -> None:
        if game.n_players < 1:
            raise ValidationError("a game needs at least one player")
        self.stats = stats or EvalStats()
        if hasattr(game, "predict_fn"):
            # Count on a shallow copy, so the caller's game keeps its own
            # ``predict_fn``.  ``wrap_predict_fn`` unwraps a function that
            # another ledger already counts, so each scored row counts
            # exactly once, in *this* runtime's ledger.
            game = copy.copy(game)
            game.predict_fn = self.stats.wrap_predict_fn(game.predict_fn)
        self.n_players = game.n_players
        self.game = game
        self.config = config or RuntimeConfig()
        self._memo: OrderedDict[int, float] | None = (
            OrderedDict() if cache else None
        )
        self._max_entries = MAX_CACHE_ENTRIES
        self._bits = [1 << player for player in range(game.n_players)]
        self._batch_fn = getattr(game, "values_batch", None)

    @classmethod
    def wrap(cls, game: "Game | GameRuntime") -> "GameRuntime":
        """``game`` itself when it is already a runtime, else a fresh
        memoising runtime over it — how the estimators that accept raw
        games get one memo per call without stacking a second."""
        return game if isinstance(game, cls) else cls(game)

    # ------------------------------------------------------------------
    def _key(self, coalition: Iterable[int]) -> int:
        bits = self._bits
        key = 0
        try:
            for player in coalition:
                if player < 0:
                    raise IndexError
                key |= bits[player]
        except IndexError:
            raise ValidationError(
                "coalition contains invalid player index"
            ) from None
        return key

    def _players(self, key: int) -> tuple[int, ...]:
        return tuple(p for p in range(self.n_players) if key >> p & 1)

    def _keys(self, masks: np.ndarray) -> list[int]:
        packed = np.packbits(masks, axis=1, bitorder="little")
        width = packed.shape[1]
        raw = packed.tobytes()
        return [
            int.from_bytes(raw[start : start + width], "little")
            for start in range(0, len(raw), width)
        ]

    def _evict_to_bound(self) -> None:
        memo = self._memo
        while len(memo) > self._max_entries:
            memo.popitem(last=False)
            self.stats.cache_evictions += 1

    def value(self, coalition: Iterable[int]) -> float:
        key = self._key(coalition)
        memo = self._memo
        if memo is not None:
            hit = memo.get(key)
            if hit is not None:
                self.stats.cache_hits += 1
                return hit
            self.stats.cache_misses += 1
        result = float(self.game.value(self._players(key)))
        self.stats.n_coalition_evals += 1
        if memo is not None:
            memo[key] = result
            self._evict_to_bound()
        return result

    # ------------------------------------------------------------------
    def values_batch(self, masks: np.ndarray) -> np.ndarray:
        """Evaluate a ``(n, d)`` boolean mask batch, memoised and chunked."""
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.n_players:
            raise ValidationError(
                f"masks must have shape (n, {self.n_players})"
            )
        memo = self._memo
        if memo is None:
            values = self._evaluate(masks)
            self.stats.n_coalition_evals += masks.shape[0]
            return values

        values = np.empty(masks.shape[0])
        # Dedupe inside the batch too: paired sampling and repeated
        # workloads emit identical masks that need one evaluation.
        slots: dict[int, int] = {}
        unique_rows: list[int] = []
        missing: list[int] = []
        position: list[int] = []
        for row, key in enumerate(self._keys(masks)):
            hit = memo.get(key)
            if hit is not None:
                values[row] = hit
                continue
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(unique_rows)
                unique_rows.append(row)
            missing.append(row)
            position.append(slot)
        self.stats.cache_hits += masks.shape[0] - len(unique_rows)
        self.stats.cache_misses += len(unique_rows)
        if unique_rows:
            if len(unique_rows) == masks.shape[0]:
                # Nothing cached and no duplicates: evaluate the
                # caller's array as-is, skipping a full-array copy.
                unique_masks = masks
            else:
                unique_masks = masks[unique_rows]
            unique_values = self._evaluate(unique_masks)
            self.stats.n_coalition_evals += len(unique_rows)
            for key, value in zip(slots, unique_values.tolist()):
                memo[key] = value
            self._evict_to_bound()
            values[missing] = unique_values[position]
        return values

    def _evaluate(self, masks: np.ndarray) -> np.ndarray:
        """Raw (unmemoised) evaluation, chunked when the game batches."""
        if self._batch_fn is None:
            return np.asarray(
                [
                    self.game.value(tuple(np.flatnonzero(mask).tolist()))
                    for mask in masks
                ],
                dtype=float,
            )
        return np.asarray(
            self._batch_fn(masks, max_batch_rows=self.config.max_batch_rows),
            dtype=float,
        )

    # ------------------------------------------------------------------
    def grand_value(self) -> float:
        """``v(N)`` — the payoff of the full coalition (memoised)."""
        return self.value(range(self.n_players))

    def empty_value(self) -> float:
        """``v(∅)`` — the base payoff (memoised)."""
        return self.value(())

    @property
    def n_cached(self) -> int:
        """Distinct coalitions held in the memo."""
        return len(self._memo) if self._memo is not None else 0
