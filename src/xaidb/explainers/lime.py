"""LIME: Local Interpretable Model-agnostic Explanations (Ribeiro 2016).

The pipeline, exactly as the tutorial (§2.1.1) describes it:

1. perturb the instance using training-data statistics
   (:class:`~xaidb.data.perturbation.LimeTabularSampler`);
2. weight perturbations by an exponential locality kernel on their
   distance to the instance;
3. fit a weighted ridge surrogate on the interpretable representation —
   standardised raw values for numeric features (as in reference LIME
   with ``discretize_continuous=False``) and match/no-match indicators
   for categorical features;
4. read the surrogate's coefficients as the explanation.

The surrogate's weighted R^2 is reported so callers can see when the
"surrogate models the complex model well enough" assumption (which the
tutorial flags as an attack surface) fails.

``explain`` and ``explain_batch`` run one stacked pipeline; ``explain``
is the batch of one.  Only step 1 and the model call stay per
instance (see :meth:`LimeExplainer._explain_block`).
"""

from __future__ import annotations

import numpy as np

from xaidb.data.dataset import Dataset
from xaidb.data.perturbation import LimeTabularSampler
from xaidb.exceptions import ValidationError
from xaidb.explainers.base import Explainer, FeatureAttribution, PredictFn
from xaidb.runtime import EvalStats
from xaidb.utils.kernels import exponential_kernel
from xaidb.utils.linalg import solve_psd_batched
from xaidb.utils.rng import RandomState, spawn_seeds
from xaidb.utils.validation import check_array, check_positive

__all__ = ["LimeExplanation", "LimeExplainer"]


class LimeExplanation(FeatureAttribution):
    """A :class:`FeatureAttribution` whose metadata carries the surrogate
    fit quality (``score``: weighted R^2), the local intercept, and the
    number of perturbation samples used."""


#: Cells (instances x samples x design columns) of one stacked block.
#: A block holds a fixed handful of arrays this size, so the budget
#: bounds peak memory whatever the batch size, as the TreeSHAP kernel's
#: ``_CHUNK_CELLS`` bounds its chunks.
_BLOCK_CELLS = 1 << 14


def _fit_surrogates(
    Z: np.ndarray, targets: list[np.ndarray], weights: np.ndarray, l2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted ridge surrogates for a stack of fits.

    ``Z`` is ``(B, n, k)``, ``targets`` one ``(n,)`` model-output array
    per slice, ``weights`` ``(B, n)``.  Returns ``(coefficients (B, k),
    intercepts (B,), weighted R^2 (B,))``.

    Every slice is bitwise the 2-D fit of that slice alone: stacked
    ``matmul`` and ``np.linalg`` call BLAS/LAPACK once per slice, so
    each slice keeps the 2-D path's layout, because BLAS sums in
    another order per layout.  That path's ``column_stack`` of
    ``design[:, selected]`` (Fortran order) and the intercept column
    is Fortran-ordered — or C-ordered for a single selected column,
    which is both at once.  The right-hand side is one matvec per slice
    on the target array as the model returned it: a class-probability
    column is a strided view, and gemv sums strided and contiguous
    vectors in different orders.
    """
    B, n, k = Z.shape
    if k == 1:
        design = np.empty((B, n, k + 1))
    else:
        design = np.empty((B, k + 1, n)).transpose(0, 2, 1)
    design[:, :, :k] = Z
    design[:, :, k] = 1.0
    weighted_t = (design * weights[:, :, None]).transpose(0, 2, 1)
    penalty = np.eye(k + 1) * l2
    penalty[-1, -1] = 0.0
    theta = solve_psd_batched(
        weighted_t @ design + penalty,
        np.stack([w @ target for w, target in zip(weighted_t, targets)]),
    )
    coefficients, intercepts = theta[:, :k], theta[:, k]
    fitted = (design[:, :, :k] @ coefficients[:, :, None])[:, :, 0]
    fitted += intercepts[:, None]
    scores = _weighted_r2(np.stack(targets), fitted, weights)
    return coefficients, intercepts, scores


def _weighted_r2(
    target: np.ndarray, fitted: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted coefficient of determination along the last axis."""
    mean = np.average(target, axis=-1, weights=weights)
    ss_res = np.average((target - fitted) ** 2, axis=-1, weights=weights)
    ss_tot = np.average(
        (target - mean[..., None]) ** 2, axis=-1, weights=weights
    )
    # xailint: disable=XDB006 (exact-zero denominator guard)
    constant = ss_tot == 0.0
    # xailint: disable=XDB023 (np.where swaps every zero ss_tot for 1.0)
    ratio = 1.0 - ss_res / np.where(constant, 1.0, ss_tot)
    # xailint: disable=XDB006 (exact-zero numerator of the degenerate R^2 case)
    return np.where(constant, np.where(ss_res == 0.0, 1.0, 0.0), ratio)


class LimeExplainer(Explainer):
    """Tabular LIME.

    Parameters
    ----------
    dataset:
        Training data used for perturbation statistics.
    kernel_width:
        Locality kernel width in standardised-distance units; defaults to
        ``0.75 * sqrt(n_features)`` as in the reference implementation.
    n_samples:
        Number of perturbations per explanation.
    l2:
        Ridge penalty for the surrogate.
    n_features_to_show:
        If set, keep only the strongest features by forward selection;
        ``None`` keeps all.
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        kernel_width: float | None = None,
        n_samples: int = 1000,
        l2: float = 1.0,
        n_features_to_show: int | None = None,
    ) -> None:
        if n_samples < 10:
            raise ValidationError("n_samples must be at least 10")
        self.dataset = dataset
        self.kernel_width = (
            0.75 * np.sqrt(dataset.n_features)
            if kernel_width is None
            else check_positive(kernel_width, name="kernel_width")
        )
        self.n_samples = n_samples
        self.l2 = l2
        self.n_features_to_show = n_features_to_show
        self.sampler = LimeTabularSampler(dataset)
        #: Ledger of the most recent :meth:`explain_batch` call
        #: (rows scored and wall time, read by the serving dispatcher).
        self.batch_stats_: EvalStats | None = None

    # ------------------------------------------------------------------
    def explain(
        self,
        predict_fn: PredictFn,
        instance: np.ndarray,
        *,
        random_state: RandomState = None,
    ) -> LimeExplanation:
        """Explain ``predict_fn`` at ``instance``: :meth:`explain_batch`'s
        pipeline at batch size one.  Metadata adds the call's
        eval-ledger block (``n_model_evals``, ``wall_time_s``, ...)."""
        instance = check_array(instance, name="instance", ndim=1)
        stats = EvalStats()
        with stats.timer():
            (explanation,) = self._explain(
                stats.wrap_predict_fn(predict_fn),
                instance[None],
                [random_state],
            )
        explanation.metadata.update(stats.as_metadata())
        return explanation

    # ------------------------------------------------------------------
    def explain_batch(
        self,
        predict_fn: PredictFn,
        instances: np.ndarray,
        *,
        random_state: RandomState = None,
        seeds: list[int | None] | None = None,
    ) -> list[LimeExplanation]:
        """Explain many instances in one stacked pass, **bitwise
        identical** to ``explain(instance, random_state=seed)`` per
        instance.

        Each instance derives all randomness from its own spawned child
        seed; ``seeds`` overrides them with one explicit per-instance
        seed each — the serving dispatcher's entry point, which must
        reproduce the serial path for every coalesced request.
        :attr:`batch_stats_` records the run.

        Per-instance metadata carries the fit (``score``,
        ``selected_features``, ...) plus ``"stacked": True``; per-call
        eval-ledger blocks are not separable once the fits are stacked.
        """
        instances = check_array(instances, name="instances", ndim=2)
        if seeds is None:
            seeds = spawn_seeds(random_state, instances.shape[0])
        elif len(seeds) != instances.shape[0]:
            raise ValidationError(
                f"got {len(seeds)} seeds for {instances.shape[0]} instances"
            )
        stats = EvalStats()
        self.batch_stats_ = stats
        with stats.timer():
            explanations = self._explain(
                stats.wrap_predict_fn(predict_fn), instances, seeds
            )
        for explanation in explanations:
            explanation.metadata["stacked"] = True
        return explanations

    # ------------------------------------------------------------------
    def _explain(
        self,
        predict_fn: PredictFn,
        instances: np.ndarray,
        seeds: list[RandomState],
    ) -> list[LimeExplanation]:
        """The one LIME pipeline, over blocks of at most
        :data:`_BLOCK_CELLS` design cells."""
        n, d = instances.shape
        block = max(1, _BLOCK_CELLS // (self.n_samples * (d + 1)))
        return [
            explanation
            for start in range(0, n, block)
            for explanation in self._explain_block(
                predict_fn,
                instances[start : start + block],
                seeds[start : start + block],
            )
        ]

    def _explain_block(
        self,
        predict_fn: PredictFn,
        instances: np.ndarray,
        seeds: list[RandomState],
    ) -> list[LimeExplanation]:
        """One stacked block of instances, fanned out into one result
        each.

        Per instance, in instance order: the seeded sampler draws
        (:meth:`~xaidb.data.perturbation.LimeTabularSampler.sample_block`),
        and one ``predict_fn`` call on that instance's own C-contiguous
        ``(n_samples, d)`` array — coalescing rows across instances would
        change call shapes, and BLAS-backed predictors (``X @ w``) are
        not bitwise row-stable across shapes.  Everything else — match
        indicators, distances, locality weights, the interpretable
        design, the ridge fits and their R^2 — is computed for the whole
        block at once.
        """
        B, d = instances.shape
        n = self.n_samples
        sampler = self.sampler
        perturbed, binary = sampler.sample_block(instances, n, seeds)
        predictions = []
        for rows in perturbed:
            # xailint: disable=XDB009 (one call per instance keeps its call shape: BLAS predictors are not row-stable across shapes)
            output = np.asarray(predict_fn(rows), dtype=float)
            if output.shape != (n,):
                raise ValidationError(
                    "predict_fn must return one scalar per row; got shape "
                    f"{output.shape}"
                )
            predictions.append(output)
        weights = exponential_kernel(
            sampler.standardised_distances(instances, perturbed),
            self.kernel_width,
        )
        # interpretable representation: standardised raw values for
        # numeric columns, match indicators for categorical columns
        design = (perturbed - sampler.column_means) / sampler.column_stds
        categorical = self.dataset.categorical_indices
        design[:, :, categorical] = binary[:, :, categorical]

        budget = self.n_features_to_show
        if budget is None or budget >= d:
            values, intercepts, scores = _fit_surrogates(
                design, predictions, weights, self.l2
            )
            selected = [list(range(d)) for _ in range(B)]
        else:
            columns = np.asarray(
                [
                    self._select_features(design[b], predictions[b], weights[b])
                    for b in range(B)
                ]
            )
            coefficients, intercepts, scores = _fit_surrogates(
                np.take_along_axis(design, columns[:, None, :], axis=2),
                predictions,
                weights,
                self.l2,
            )
            values = np.zeros((B, d))
            np.put_along_axis(values, columns, coefficients, axis=1)
            selected = columns.tolist()
        return LimeExplanation.fan_out(
            self.dataset.feature_names,
            values,
            base_values=intercepts,
            predictions=[output[0] for output in predictions],
            metadata=[
                {
                    "score": score,
                    "n_samples": n,
                    "kernel_width": self.kernel_width,
                    "selected_features": features,
                }
                for score, features in zip(scores.tolist(), selected)
            ],
        )

    # ------------------------------------------------------------------
    def _select_features(
        self, Z: np.ndarray, target: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Greedy forward selection on the weighted R^2 of one instance.

        Mirrors LIME's ``forward_selection`` option.  Each step fits
        every remaining candidate (columns ``selected + [candidate]``,
        in that order) in one stacked call and keeps the first best in
        the remaining set's iteration order.
        """
        selected: list[int] = []
        remaining = set(range(Z.shape[1]))
        for _ in range(self.n_features_to_show):
            candidates = list(remaining)
            columns = [selected + [candidate] for candidate in candidates]
            _, _, scores = _fit_surrogates(
                Z[:, columns].transpose(1, 0, 2),
                [target] * len(candidates),
                np.broadcast_to(weights, (len(candidates), weights.shape[0])),
                self.l2,
            )
            best_feature, best_score = None, -np.inf
            for candidate, score in zip(candidates, scores.tolist()):
                if score > best_score:
                    best_feature, best_score = candidate, score
            selected.append(best_feature)
            remaining.discard(best_feature)
        return np.asarray(sorted(selected), dtype=int)
