"""Anchors: high-precision model-agnostic rule explanations
(Ribeiro, Singh & Guestrin 2018).

An *anchor* for instance ``x`` is a set of feature predicates ``A`` such
that ``P(f(z) = f(x) | z ~ D(.|A)) >= tau``: whenever the rule holds, the
model (almost always) predicts the same as for ``x``.  The search is a
beam search over predicates; candidate precisions are estimated with the
**KL-LUCB** multi-armed-bandit procedure, which adaptively spends samples
to identify the best candidates with statistical confidence — the
"multi-armed bandit-based algorithm" the tutorial cites.

Numeric features are discretised into training-quantile bins; a predicate
pins a feature to the instance's bin (values are resampled inside the bin
during perturbation, so anchors remain *rules*, not point conditions).
The naive fixed-budget sampler is kept as ``candidate_selection=
"fixed"`` for the E11 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from xaidb.data.dataset import Dataset
from xaidb.exceptions import ValidationError
from xaidb.explainers.base import PredictFn
from xaidb.runtime import EvalStats
from xaidb.utils.rng import RandomState, check_random_state, spawn_seeds
from xaidb.utils.validation import check_array, check_probability

__all__ = [
    "Anchor",
    "kl_bernoulli",
    "kl_upper_bound",
    "kl_lower_bound",
    "AnchorsExplainer",
]


@dataclass
class Anchor:
    """A fitted anchor rule."""

    predicates: list[str]
    feature_indices: list[int]
    precision: float
    coverage: float
    n_samples_used: int
    prediction: float
    #: Runtime accounting for the search (``n_model_evals``,
    #: ``cache_hit_rate``, ``wall_time_s``) — same counter block every
    #: :class:`~xaidb.explainers.base.FeatureAttribution` carries.
    eval_stats: dict | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rule = " AND ".join(self.predicates) if self.predicates else "TRUE"
        return (
            f"Anchor(IF {rule} THEN predict={self.prediction:g} "
            f"[precision={self.precision:.3f}, coverage={self.coverage:.3f}])"
        )


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q)."""
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    q = min(max(q, 1e-12), 1.0 - 1e-12)
    return p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))


def kl_upper_bound(mean: float, n: int, beta: float) -> float:
    """Largest q with ``n * KL(mean, q) <= beta`` (bisection)."""
    if n == 0:
        return 1.0
    lo, hi = mean, 1.0
    for _ in range(40):
        mid = (lo + hi) / 2.0
        if n * kl_bernoulli(mean, mid) > beta:
            hi = mid
        else:
            lo = mid
    return lo


def kl_lower_bound(mean: float, n: int, beta: float) -> float:
    """Smallest q with ``n * KL(mean, q) <= beta`` (bisection)."""
    if n == 0:
        return 0.0
    lo, hi = 0.0, mean
    for _ in range(40):
        mid = (lo + hi) / 2.0
        if n * kl_bernoulli(mean, mid) > beta:
            lo = mid
        else:
            hi = mid
    return hi


class _BoundTable:
    """KL-LUCB confidence bounds of one anchor search, memoised by
    ``(hits, n)`` (``beta`` is fixed per explainer, so the counts
    determine each bound).

    Each bound is 40 bisection steps, and the bandit re-asks for the
    same counts on every round an arm goes unsampled.  The table lives
    as long as one search, so it holds at most one entry per distinct
    count the search reached.
    """

    def __init__(self, beta: float) -> None:
        self.beta = beta
        self._lower: dict[tuple[int, int], float] = {}
        self._upper: dict[tuple[int, int], float] = {}

    def lower(self, hits: int, n: int) -> float:
        value = self._lower.get((hits, n))
        if value is None:
            mean = hits / n if n else 0.0
            value = self._lower[hits, n] = kl_lower_bound(mean, n, self.beta)
        return value

    def upper(self, hits: int, n: int) -> float:
        value = self._upper.get((hits, n))
        if value is None:
            mean = hits / n if n else 0.0
            value = self._upper[hits, n] = kl_upper_bound(mean, n, self.beta)
        return value


class AnchorsExplainer:
    """Beam-search anchors with KL-LUCB candidate selection.

    Parameters
    ----------
    predict_fn:
        Positive-class probability of the model (decisions thresholded
        at 0.5).
    dataset:
        Training data for the perturbation distribution and coverage.
    precision_threshold:
        Target precision ``tau``.
    n_bins:
        Quantile bins for numeric predicates.
    beam_width:
        Candidates kept per rule length.
    delta:
        Bandit confidence parameter.
    candidate_selection:
        ``"kl_lucb"`` (default) or ``"fixed"`` (naive equal-budget
        baseline for the ablation).
    """

    def __init__(
        self,
        predict_fn: PredictFn,
        dataset: Dataset,
        *,
        precision_threshold: float = 0.95,
        n_bins: int = 4,
        beam_width: int = 3,
        max_anchor_size: int | None = None,
        batch_size: int = 64,
        max_samples_per_candidate: int = 2000,
        delta: float = 0.05,
        candidate_selection: str = "kl_lucb",
    ) -> None:
        check_probability(precision_threshold, name="precision_threshold")
        if candidate_selection not in ("kl_lucb", "fixed"):
            raise ValidationError(
                "candidate_selection must be 'kl_lucb' or 'fixed'"
            )
        self.predict_fn = predict_fn
        self.dataset = dataset
        self.precision_threshold = precision_threshold
        self.n_bins = n_bins
        self.beam_width = beam_width
        self.max_anchor_size = max_anchor_size or dataset.n_features
        self.batch_size = batch_size
        self.max_samples_per_candidate = max_samples_per_candidate
        self.delta = delta
        self.candidate_selection = candidate_selection
        self._bin_edges = self._compute_bins()
        #: Ledger of the most recent :meth:`explain_batch` call.
        self.batch_stats_: EvalStats | None = None

    # ------------------------------------------------------------------
    def _compute_bins(self) -> dict[int, np.ndarray]:
        edges = {}
        for col in self.dataset.numeric_indices:
            quantiles = np.quantile(
                self.dataset.X[:, col],
                np.linspace(0, 1, self.n_bins + 1)[1:-1],
            )
            edges[col] = np.unique(quantiles)
        return edges

    def _bin_of(self, col: int, value: float) -> int:
        return int(np.searchsorted(self._bin_edges[col], value, side="right"))

    def _column_bins(self, col: int, values: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._bin_edges[col], values, side="right")

    def _predicate_text(self, col: int, instance: np.ndarray) -> str:
        spec = self.dataset.features[col]
        if spec.is_categorical:
            return f"{spec.name} = {spec.decode(instance[col])}"
        edges = self._bin_edges[col]
        b = self._bin_of(col, instance[col])
        if len(edges) == 0:
            return f"{spec.name} = any"
        if b == 0:
            return f"{spec.name} <= {edges[0]:.3g}"
        if b == len(edges):
            return f"{spec.name} > {edges[-1]:.3g}"
        return f"{edges[b - 1]:.3g} < {spec.name} <= {edges[b]:.3g}"

    # ------------------------------------------------------------------
    def _satisfies(self, rows: np.ndarray, anchor: tuple[int, ...],
                   instance: np.ndarray) -> np.ndarray:
        """Boolean mask of rows satisfying every predicate of the anchor."""
        mask = np.ones(rows.shape[0], dtype=bool)
        for col in anchor:
            if self.dataset.features[col].is_categorical:
                mask &= rows[:, col] == instance[col]
            else:
                target_bin = self._bin_of(col, instance[col])
                mask &= self._column_bins(col, rows[:, col]) == target_bin
        return mask

    def _sample_under(
        self,
        anchor: tuple[int, ...],
        instance: np.ndarray,
        n: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw perturbations conditioned on the anchor: unconstrained
        features come from random training rows; anchored features are
        resampled from training values inside the instance's bin (or the
        exact category)."""
        rows = self.dataset.X[
            rng.integers(0, self.dataset.n_rows, size=n)
        ].copy()
        for col in anchor:
            if self.dataset.features[col].is_categorical:
                rows[:, col] = instance[col]
            else:
                target_bin = self._bin_of(col, instance[col])
                pool = self.dataset.X[
                    self._column_bins(col, self.dataset.X[:, col]) == target_bin,
                    col,
                ]
                if pool.size == 0:
                    rows[:, col] = instance[col]
                else:
                    rows[:, col] = pool[rng.integers(0, pool.size, size=n)]
        return rows

    # ------------------------------------------------------------------
    def explain(
        self,
        instance: np.ndarray,
        *,
        random_state: RandomState = None,
    ) -> Anchor:
        """Find an anchor for the model's decision at ``instance``."""
        instance = check_array(instance, name="instance", ndim=1)
        rng = check_random_state(random_state)
        eval_stats = EvalStats()
        timer = eval_stats.timer()
        timer.__enter__()
        counted_fn = eval_stats.wrap_predict_fn(self.predict_fn)
        decision = float(counted_fn(instance[None, :])[0]) >= 0.5
        stats: dict[tuple[int, ...], list[int]] = {}  # anchor -> [hits, n]
        total_samples = {"n": 0}

        def sample_precision(anchor: tuple[int, ...], n: int) -> None:
            rows = self._sample_under(anchor, instance, n, rng)
            agrees = (
                np.asarray(counted_fn(rows), dtype=float) >= 0.5
            ) == decision
            record = stats.setdefault(anchor, [0, 0])
            record[0] += int(agrees.sum())
            record[1] += n
            total_samples["n"] += n

        def mean(anchor: tuple[int, ...]) -> float:
            hits, n = stats.get(anchor, (0, 0))
            return hits / n if n else 0.0

        def count(anchor: tuple[int, ...]) -> int:
            return stats.get(anchor, (0, 0))[1]

        bounds = _BoundTable(np.log(1.0 / self.delta))

        def lower(anchor: tuple[int, ...]) -> float:
            return bounds.lower(*stats.get(anchor, (0, 0)))

        def upper(anchor: tuple[int, ...]) -> float:
            return bounds.upper(*stats.get(anchor, (0, 0)))

        current_beam: list[tuple[int, ...]] = [()]
        best_anchor: tuple[int, ...] | None = None
        all_columns = list(range(self.dataset.n_features))

        for _ in range(self.max_anchor_size):
            candidates: list[tuple[int, ...]] = []
            for anchor in current_beam:
                used = set(anchor)
                for col in all_columns:
                    if col not in used:
                        candidates.append(tuple(sorted(anchor + (col,))))
            candidates = list(dict.fromkeys(candidates))
            if not candidates:
                break
            chosen = self._select_candidates(
                candidates, sample_precision, mean, count, lower, upper
            )
            # did any chosen candidate reach the precision threshold with
            # statistical confidence?
            verified = []
            for anchor in chosen:
                while (
                    count(anchor) < self.max_samples_per_candidate
                    and lower(anchor) < self.precision_threshold <= upper(anchor)
                ):
                    sample_precision(anchor, self.batch_size)
                if lower(anchor) >= self.precision_threshold:
                    verified.append(anchor)
            if verified:
                # among verified anchors prefer the highest coverage
                best_anchor = max(verified, key=self._coverage_of(instance))
                break
            current_beam = chosen

        if best_anchor is None:
            # fall back to the best candidate found (precision below tau)
            explored = [a for a in stats if a]
            if not explored:
                raise ValidationError("anchor search explored no candidates")
            best_anchor = max(explored, key=mean)

        coverage = self._coverage_of(instance)(best_anchor)
        timer.__exit__(None, None, None)
        return Anchor(
            predicates=[
                self._predicate_text(col, instance) for col in best_anchor
            ],
            feature_indices=list(best_anchor),
            precision=mean(best_anchor),
            coverage=coverage,
            n_samples_used=total_samples["n"],
            prediction=1.0 if decision else 0.0,
            eval_stats=eval_stats.as_metadata(),
        )

    # ------------------------------------------------------------------
    def explain_batch(
        self,
        instances: np.ndarray,
        *,
        random_state: RandomState = None,
        seeds: list[int | None] | None = None,
    ) -> list[Anchor]:
        """Find anchors for many instances — the serving dispatcher's
        batch entry point.

        Each instance's beam search runs under its own seed, so every
        anchor is bitwise identical to the serial ``explain(instance,
        random_state=seed)`` path; :attr:`batch_stats_` accumulates the
        per-search ledgers (rows scored, search wall-time).
        """
        instances = check_array(instances, name="instances", ndim=2)
        n = instances.shape[0]
        if seeds is None:
            seeds = spawn_seeds(random_state, n)
        elif len(seeds) != n:
            raise ValidationError(
                f"got {len(seeds)} seeds for {n} instances"
            )
        self.batch_stats_ = EvalStats()
        anchors = [
            self.explain(instances[i], random_state=seeds[i])
            for i in range(n)
        ]
        for anchor in anchors:
            if anchor.eval_stats:
                self.batch_stats_.count_rows(
                    anchor.eval_stats.get("n_model_evals", 0)
                )
                self.batch_stats_.wall_time_s += anchor.eval_stats.get(
                    "wall_time_s", 0.0
                )
        return anchors

    # ------------------------------------------------------------------
    def _coverage_of(self, instance: np.ndarray):
        def coverage(anchor: tuple[int, ...]) -> float:
            mask = self._satisfies(self.dataset.X, anchor, instance)
            return float(mask.mean())

        return coverage

    def _select_candidates(
        self, candidates, sample_precision, mean, count, lower, upper
    ) -> list[tuple[int, ...]]:
        """Pick the top ``beam_width`` candidates.

        KL-LUCB: iteratively sample the most ambiguous pair (lowest lower
        bound inside the provisional top set vs highest upper bound
        outside) until the sets separate or the budget runs out.
        ``lower``/``upper`` are the search's memoised KL bounds.
        """
        top_k = min(self.beam_width, len(candidates))
        for candidate in candidates:
            if count(candidate) == 0:
                sample_precision(candidate, self.batch_size)
        if self.candidate_selection == "fixed":
            for candidate in candidates:
                remaining = self.max_samples_per_candidate // 4 - count(candidate)
                if remaining > 0:
                    sample_precision(candidate, remaining)
            ranked = sorted(candidates, key=mean, reverse=True)
            return ranked[:top_k]

        budget = self.max_samples_per_candidate * len(candidates) // 4
        while budget > 0:
            means = {c: mean(c) for c in candidates}
            ranked = sorted(candidates, key=lambda c: means[c], reverse=True)
            inside, outside = ranked[:top_k], ranked[top_k:]
            if not outside:
                break
            weakest = min(inside, key=lower)
            strongest = max(outside, key=upper)
            if lower(weakest) >= upper(strongest):
                break  # confidently separated
            sample_precision(weakest, self.batch_size)
            sample_precision(strongest, self.batch_size)
            budget -= 2 * self.batch_size
        ranked = sorted(candidates, key=mean, reverse=True)
        return ranked[:top_k]
