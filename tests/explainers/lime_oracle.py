"""Per-instance LIME reference, independent of the explainer's stacked
pipeline: one instance at a time, its own column-by-column draws and
``predict_fn`` call, then 2-D numpy for the match indicators, the
distances, the design, the weighted ridge (one single-RHS
``solve_psd``) and the weighted R^2.
``LimeExplainer.explain``/``explain_batch`` must match it bitwise.
"""

from __future__ import annotations

import numpy as np

from xaidb.explainers.lime import LimeExplainer
from xaidb.utils.kernels import exponential_kernel
from xaidb.utils.linalg import solve_psd
from xaidb.utils.rng import check_random_state


def weighted_ridge(Z, target, weights, l2):
    """Weighted ridge regression; returns (coefficients, intercept)."""
    design = np.column_stack([Z, np.ones(Z.shape[0])])
    weighted = design * weights[:, None]
    gram = weighted.T @ design
    penalty = np.eye(design.shape[1]) * l2
    penalty[-1, -1] = 0.0
    theta = solve_psd(gram + penalty, weighted.T @ target)
    return theta[:-1], float(theta[-1])


def weighted_r2(target, fitted, weights):
    """Weighted coefficient of determination."""
    mean = float(np.average(target, weights=weights))
    ss_res = float(np.average((target - fitted) ** 2, weights=weights))
    ss_tot = float(np.average((target - mean) ** 2, weights=weights))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def select_features(Z, target, weights, budget, l2):
    """Greedy forward selection on weighted R^2."""
    n_features = Z.shape[1]
    if budget is None or budget >= n_features:
        return np.arange(n_features)
    selected: list[int] = []
    remaining = set(range(n_features))
    for _ in range(budget):
        best_feature, best_score = None, -np.inf
        for candidate in remaining:
            columns = selected + [candidate]
            coef, intercept = weighted_ridge(Z[:, columns], target, weights, l2)
            fitted = Z[:, columns] @ coef + intercept
            score = weighted_r2(target, fitted, weights)
            if score > best_score:
                best_feature, best_score = candidate, score
        selected.append(best_feature)
        remaining.discard(best_feature)
    return np.asarray(sorted(selected), dtype=int)


def reference_sample(sampler, instance, n_samples, rng):
    """LIME perturbations drawn column by column for one instance."""
    d = instance.shape[0]
    perturbed = np.tile(instance, (n_samples, 1))
    binary = np.ones((n_samples, d))
    for col in range(d):
        if col in sampler.category_frequencies:
            codes, probs = sampler.category_frequencies[col]
            draws = rng.choice(codes, size=n_samples - 1, p=probs)
            perturbed[1:, col] = draws
            binary[1:, col] = (draws == instance[col]).astype(float)
        else:
            std = sampler.column_stds[col]
            draws = rng.normal(instance[col], std, size=n_samples - 1)
            perturbed[1:, col] = draws
            tolerance = sampler.numeric_match_tolerance * std
            binary[1:, col] = (
                np.abs(draws - instance[col]) <= tolerance
            ).astype(float)
    return perturbed, binary


def lime_reference(explainer: LimeExplainer, predict_fn, instance, seed):
    """``(values, intercept, prediction, score, selected)`` for one
    instance, explained with ``explainer``'s sampler, kernel width,
    budget, ridge and feature budget."""
    sampler = explainer.sampler
    rng = check_random_state(seed)
    perturbed, binary = reference_sample(
        sampler, instance, explainer.n_samples, rng
    )
    predictions = np.asarray(predict_fn(perturbed), dtype=float)
    scale = sampler.column_stds
    delta = (perturbed - instance[None, :]) / scale[None, :]
    distances = np.sqrt(np.sum(delta * delta, axis=1))
    weights = exponential_kernel(distances, explainer.kernel_width)
    design_full = (
        perturbed - sampler.column_means[None, :]
    ) / sampler.column_stds[None, :]
    for col in explainer.dataset.categorical_indices:
        design_full[:, col] = binary[:, col]
    selected = select_features(
        design_full,
        predictions,
        weights,
        explainer.n_features_to_show,
        explainer.l2,
    )
    coefficients = np.zeros(explainer.dataset.n_features)
    coef_sel, intercept = weighted_ridge(
        design_full[:, selected], predictions, weights, explainer.l2
    )
    coefficients[selected] = coef_sel
    fitted = design_full[:, selected] @ coef_sel + intercept
    score = weighted_r2(predictions, fitted, weights)
    return (
        coefficients,
        intercept,
        float(predictions[0]),
        score,
        [int(i) for i in selected],
    )
