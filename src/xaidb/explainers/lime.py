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
"""

from __future__ import annotations

import numpy as np

from xaidb.data.dataset import Dataset
from xaidb.data.perturbation import LimeTabularSampler
from xaidb.exceptions import ValidationError
from xaidb.explainers.base import Explainer, FeatureAttribution, PredictFn
from xaidb.runtime import EvalStats
from xaidb.utils.kernels import exponential_kernel
from xaidb.utils.linalg import solve_psd
from xaidb.utils.rng import RandomState, check_random_state, spawn_seeds
from xaidb.utils.validation import check_array, check_positive

__all__ = ["LimeExplanation", "LimeExplainer"]


class LimeExplanation(FeatureAttribution):
    """A :class:`FeatureAttribution` whose metadata carries the surrogate
    fit quality (``score``: weighted R^2), the local intercept, and the
    number of perturbation samples used."""


def _weighted_ridge(
    Z: np.ndarray, target: np.ndarray, weights: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    """Solve weighted ridge regression; returns (coefficients, intercept)."""
    design = np.column_stack([Z, np.ones(Z.shape[0])])
    weighted = design * weights[:, None]
    gram = weighted.T @ design
    penalty = np.eye(design.shape[1]) * l2
    penalty[-1, -1] = 0.0
    theta = solve_psd(gram + penalty, weighted.T @ target)
    return theta[:-1], float(theta[-1])


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
        """Explain ``predict_fn`` at ``instance``."""
        instance = check_array(instance, name="instance", ndim=1)
        rng = check_random_state(random_state)
        stats = EvalStats()
        counted_fn = stats.wrap_predict_fn(predict_fn)
        with stats.timer():
            perturbed, binary = self.sampler.sample(
                instance, self.n_samples, random_state=rng
            )
            predictions = np.asarray(counted_fn(perturbed), dtype=float)
            if predictions.shape != (self.n_samples,):
                raise ValidationError(
                    "predict_fn must return one scalar per row; got shape "
                    f"{predictions.shape}"
                )
            distances = self.sampler.standardised_distances(
                instance, perturbed
            )
            weights = exponential_kernel(distances, self.kernel_width)

            # interpretable representation: standardised raw values for
            # numeric columns, match indicators for categorical columns
            design_full = (
                perturbed - self.sampler.column_means[None, :]
            ) / self.sampler.column_stds[None, :]
            for col in self.dataset.categorical_indices:
                design_full[:, col] = binary[:, col]

            selected = self._select_features(
                design_full, predictions, weights
            )
            coefficients = np.zeros(self.dataset.n_features)
            coef_sel, intercept = _weighted_ridge(
                design_full[:, selected], predictions, weights, self.l2
            )
            coefficients[selected] = coef_sel

            fitted = design_full[:, selected] @ coef_sel + intercept
            score = _weighted_r2(predictions, fitted, weights)
        return LimeExplanation(
            feature_names=self.dataset.feature_names,
            values=coefficients,
            base_value=intercept,
            prediction=float(predictions[0]),
            metadata={
                "score": score,
                "n_samples": self.n_samples,
                "kernel_width": self.kernel_width,
                "selected_features": [int(i) for i in selected],
                **stats.as_metadata(),
            },
        )

    # ------------------------------------------------------------------
    def explain_batch(
        self,
        predict_fn: PredictFn,
        instances: np.ndarray,
        *,
        random_state: RandomState = None,
        seeds: list[int | None] | None = None,
    ) -> list[LimeExplanation]:
        """Explain many instances, one seeded :meth:`explain` each.

        Each instance's explanation derives all randomness from its own
        spawned child seed; :attr:`batch_stats_` records the run.

        ``seeds`` overrides the spawned child seeds with one explicit
        per-instance seed each — the serving dispatcher's entry point,
        which must reproduce ``explain(instance, random_state=seed)``
        bitwise for every coalesced request.
        """
        instances = check_array(instances, name="instances", ndim=2)
        if seeds is None:
            seeds = spawn_seeds(random_state, instances.shape[0])
        elif len(seeds) != instances.shape[0]:
            raise ValidationError(
                f"got {len(seeds)} seeds for {instances.shape[0]} instances"
            )
        self.batch_stats_ = EvalStats()
        with self.batch_stats_.timer():
            explanations = [
                self.explain(predict_fn, instance, random_state=seed)
                for instance, seed in zip(instances, seeds)
            ]
        for explanation in explanations:
            self.batch_stats_.count_rows(
                explanation.metadata.get("n_model_evals", 0)
            )
        return explanations

    # ------------------------------------------------------------------
    def _select_features(
        self, Z: np.ndarray, target: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Greedy forward selection on weighted residual reduction.

        Mirrors LIME's ``forward_selection`` option; with
        ``n_features_to_show=None`` every feature is kept.
        """
        n_features = Z.shape[1]
        budget = self.n_features_to_show
        if budget is None or budget >= n_features:
            return np.arange(n_features)
        selected: list[int] = []
        remaining = set(range(n_features))
        for _ in range(budget):
            best_feature, best_score = None, -np.inf
            for candidate in remaining:
                columns = selected + [candidate]
                coef, intercept = _weighted_ridge(
                    Z[:, columns], target, weights, self.l2
                )
                fitted = Z[:, columns] @ coef + intercept
                score = _weighted_r2(target, fitted, weights)
                if score > best_score:
                    best_feature, best_score = candidate, score
            selected.append(best_feature)
            remaining.discard(best_feature)
        return np.asarray(sorted(selected), dtype=int)


def _weighted_r2(
    target: np.ndarray, fitted: np.ndarray, weights: np.ndarray
) -> float:
    """Weighted coefficient of determination."""
    mean = float(np.average(target, weights=weights))
    ss_res = float(np.average((target - fitted) ** 2, weights=weights))
    ss_tot = float(np.average((target - mean) ** 2, weights=weights))
    # xailint: disable=XDB006 (exact-zero denominator guard)
    if ss_tot == 0.0:
        # xailint: disable=XDB006 (exact-zero numerator of the degenerate R^2 case)
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot
