"""From local explanations to global understanding (tutorial §2.1.2;
Lundberg et al. 2020, "From local explanations to global understanding
with explainable AI for trees").

Local SHAP vectors over a dataset compose into global views:

- :func:`global_shap_importance` — mean |SHAP| per feature, the standard
  global importance bar chart;
- :func:`shap_summary` — per-feature distributional statistics (mean
  absolute value, signed mean, correlation of the attribution with the
  feature value — the "does high feature value push the score up?"
  direction of the beeswarm plot);
- :func:`supervised_clustering` — group instances by explanation
  similarity rather than raw-feature similarity (the paper's supervised
  clustering), via simple k-medoids on SHAP vectors.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.explainers.base import FeatureAttribution
from xaidb.utils.kernels import pairwise_distances
from xaidb.utils.rng import RandomState, check_random_state
from xaidb.utils.validation import check_array

__all__ = [
    "ExplainFn",
    "shap_matrix",
    "global_shap_importance",
    "shap_summary",
    "supervised_clustering",
]

ExplainFn = Callable[[np.ndarray], FeatureAttribution]


def shap_matrix(explain_fn: ExplainFn, X: np.ndarray) -> np.ndarray:
    """Stack local attributions into an ``(n, d)`` matrix.

    ``explain_fn`` is called once per row — unless it carries an
    ``explain_batch`` attribute (``X -> sequence of FeatureAttribution``),
    in which case the whole dataset goes through that one call so the
    explainer can amortise its setup (KernelSHAP's stacked solve, the
    TreeSHAP lane program) across rows.  Adapters
    around :meth:`xaidb.explainers.lime.LimeExplainer.explain_batch` are
    the canonical provider; passing a bound ``explainer.explain`` method
    also works — the batch entry point is resolved from the owning
    explainer, and every batch implementation in the repo is bitwise
    identical to its per-row path, so the routing never changes results.
    """
    X = check_array(X, name="X", ndim=2)
    batch_fn = getattr(explain_fn, "explain_batch", None)
    if not callable(batch_fn) and getattr(explain_fn, "__name__", "") == "explain":
        # a bound ``explainer.explain``: look up the batch path on the
        # explainer itself
        batch_fn = getattr(
            getattr(explain_fn, "__self__", None), "explain_batch", None
        )
    if callable(batch_fn):
        explanations = batch_fn(X)
        return np.vstack([e.values for e in explanations])
    return np.vstack([explain_fn(row).values for row in X])


def global_shap_importance(
    attributions: np.ndarray, feature_names: list[str]
) -> FeatureAttribution:
    """Mean |SHAP| per feature as a global importance explanation."""
    attributions = check_array(attributions, name="attributions", ndim=2)
    if attributions.shape[1] != len(feature_names):
        raise ValidationError("feature_names width mismatch")
    return FeatureAttribution(
        feature_names=list(feature_names),
        values=np.abs(attributions).mean(axis=0),
        base_value=0.0,
        metadata={
            "method": "global_shap_importance",
            "n_instances": int(attributions.shape[0]),
        },
    )


def shap_summary(
    attributions: np.ndarray,
    X: np.ndarray,
    feature_names: list[str],
) -> list[dict]:
    """Beeswarm-style per-feature summary rows.

    Each row reports mean |phi|, signed mean phi, and the Pearson
    correlation between the feature's value and its attribution (positive
    = larger values push the prediction up), sorted by importance.
    """
    attributions = check_array(attributions, name="attributions", ndim=2)
    X = check_array(X, name="X", ndim=2)
    if attributions.shape != X.shape:
        raise ValidationError("attributions and X must align")
    rows = []
    for j, name in enumerate(feature_names):
        phi = attributions[:, j]
        values = X[:, j]
        if phi.std() > 0 and values.std() > 0:
            direction = float(np.corrcoef(values, phi)[0, 1])
        else:
            direction = 0.0
        rows.append(
            {
                "feature": name,
                "mean_abs_shap": float(np.abs(phi).mean()),
                "mean_shap": float(phi.mean()),
                "value_direction": direction,
            }
        )
    rows.sort(key=lambda r: -r["mean_abs_shap"])
    return rows


def supervised_clustering(
    attributions: np.ndarray,
    n_clusters: int,
    *,
    n_iterations: int = 20,
    random_state: RandomState = None,
) -> tuple[np.ndarray, np.ndarray]:
    """k-medoids over SHAP vectors: instances explained the same way end
    up together, regardless of raw-feature distance.

    Returns ``(labels, medoid_indices)``.
    """
    attributions = check_array(attributions, name="attributions", ndim=2)
    n = attributions.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValidationError("n_clusters out of range")
    rng = check_random_state(random_state)
    distances = pairwise_distances(attributions)
    medoids = rng.choice(n, size=n_clusters, replace=False)
    for __ in range(n_iterations):
        labels = np.argmin(distances[:, medoids], axis=1)
        new_medoids = medoids.copy()
        for cluster in range(n_clusters):
            members = np.flatnonzero(labels == cluster)
            if members.size == 0:
                continue
            within = distances[np.ix_(members, members)].sum(axis=1)
            new_medoids[cluster] = members[int(np.argmin(within))]
        if np.array_equal(new_medoids, medoids):
            break
        medoids = new_medoids
    labels = np.argmin(distances[:, medoids], axis=1)
    return labels, medoids
