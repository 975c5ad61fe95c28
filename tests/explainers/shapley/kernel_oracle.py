"""Per-instance KernelSHAP reference, independent of the explainer's
pipeline: a fresh :class:`MarginalImputationGame` per instance, direct
``value``/``values_batch`` calls (no runtime, no cache) and one
single-RHS ``solve_psd`` per instance.  The stacked pipeline behind
``KernelShapExplainer.explain``/``explain_batch`` must match it bitwise.
:func:`sampled_design_reference` is the sampled coalition design drawn
pair by pair (each pair's subset from its own row of keys) and
deduplicated with ``np.unique(axis=0)``.
"""

from __future__ import annotations

from math import comb

import numpy as np

from xaidb.explainers.shapley.coalitions import kernel_shap_design
from xaidb.explainers.shapley.games import MarginalImputationGame
from xaidb.utils.combinatorics import shapley_kernel_weight
from xaidb.utils.linalg import solve_psd


def constrained_wls(masks, values, weights, base_value, full_value, l2=1e-10):
    """The Shapley-kernel weighted least squares with ``phi_0 = v(∅)``
    and efficiency enforced exactly, eliminated onto the last feature."""
    d = masks.shape[1]
    Z = masks.astype(float)
    delta = full_value - base_value
    target = values - base_value - Z[:, -1] * delta
    design = Z[:, :-1] - Z[:, -1][:, None]
    weighted = design * weights[:, None]
    gram = weighted.T @ design + l2 * np.eye(d - 1)
    head = solve_psd(gram, weighted.T @ target)
    phi = np.empty(d)
    phi[:-1] = head
    phi[-1] = delta - head.sum()
    return phi


def kernel_shap_reference(explainer, instances, seeds):
    """``(values, base_value, prediction)`` per instance, explained one
    at a time with ``explainer``'s model, background, budget, ridge and
    ``max_batch_rows``."""
    d = instances.shape[1]
    out = []
    for x, seed in zip(instances, seeds):
        game = MarginalImputationGame(
            explainer.predict_fn, x, explainer.background
        )
        masks, weights = kernel_shap_design(d, explainer.n_coalitions, seed)
        base = game.value(())
        full = game.value(range(d))
        values = game.values_batch(
            masks, max_batch_rows=explainer.config.max_batch_rows
        )
        phi = constrained_wls(masks, values, weights, base, full, explainer.l2)
        out.append((phi, base, full))
    return out


def sampled_design_reference(d, budget, rng):
    """Size-stratified paired masks, one pair at a time: after the size
    draw, pair ``p`` of size ``k`` takes the ``k`` features with the
    smallest keys in row ``p`` of one ``rng.random((n_pairs, d))`` block
    (which holds the same values as ``n_pairs`` sequential
    ``rng.random(d)`` draws).  Aggregated with ``np.unique(masks,
    axis=0, return_counts=True)``."""
    sizes = np.arange(1, d)
    mass = np.asarray(
        [shapley_kernel_weight(int(s), d) * comb(d, int(s)) for s in sizes]
    )
    probabilities = mass / mass.sum()
    n_pairs = budget // 2
    masks = np.zeros((2 * n_pairs, d), dtype=bool)
    drawn_sizes = rng.choice(sizes, size=n_pairs, p=probabilities)
    for pair, size in enumerate(drawn_sizes):
        keys = rng.random(d)
        chosen = np.argsort(keys)[: int(size)]
        masks[2 * pair, chosen] = True
        masks[2 * pair + 1] = ~masks[2 * pair]
    unique_masks, counts = np.unique(masks, axis=0, return_counts=True)
    return unique_masks, counts.astype(float)
