"""The sampled KernelSHAP design promises a distribution, not a stream:
within each size every subset is equally likely, and the pair sizes
follow the Shapley-kernel mass.  Chi-square goodness of fit over many
fixed seeds (deterministic, so never flaky), at d = 5.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
from scipy import stats

from xaidb.explainers.shapley.coalitions import _sampled_design
from xaidb.utils.combinatorics import shapley_kernel_weight

D = 5
BUDGET = 64
N_SEEDS = 400
#: far below any p-value a correct draw gives on these fixed seeds, far
#: above what a biased one does
ALPHA = 1e-4


def _mask_counts() -> dict[tuple[int, ...], float]:
    """Total multiplicity of each mask over ``N_SEEDS`` designs."""
    counts: dict[tuple[int, ...], float] = {}
    for seed in range(N_SEEDS):
        masks, weights = _sampled_design(D, BUDGET, np.random.default_rng(seed))
        for mask, weight in zip(masks, weights):
            key = tuple(np.flatnonzero(mask))
            counts[key] = counts.get(key, 0.0) + weight
    return counts


COUNTS = _mask_counts()


def test_every_draw_is_a_complement_pair():
    total = sum(COUNTS.values())
    assert total == N_SEEDS * 2 * (BUDGET // 2)
    full = set(range(D))
    for subset, count in COUNTS.items():
        assert 0 < len(subset) < D
        assert COUNTS[tuple(sorted(full - set(subset)))] == count


def test_subsets_of_each_size_are_uniform():
    """A size-k mask comes from a size-k draw or is the complement of a
    size-(d-k) draw; either way each of the C(d, k) subsets is equally
    likely, so their counts are one uniform multinomial."""
    for k in range(1, D):
        observed = np.asarray(
            [COUNTS.get(subset, 0.0) for subset in combinations(range(D), k)]
        )
        assert observed.size == comb(D, k)
        assert stats.chisquare(observed).pvalue > ALPHA, (k, observed)


def test_pair_sizes_follow_the_kernel_mass():
    """Every pair yields one mask of size ``min(k, d - k)``, so the mask
    counts per size ``k < d / 2`` count the pairs drawn with size ``k``
    or ``d - k``."""
    mass = np.asarray(
        [shapley_kernel_weight(k, D) * comb(D, k) for k in range(1, D)]
    )
    p = mass / mass.sum()
    small = range(1, (D + 1) // 2)
    observed = np.asarray(
        [
            sum(c for s, c in COUNTS.items() if len(s) == k)
            for k in small
        ]
    )
    expected_share = np.asarray([p[k - 1] + p[D - k - 1] for k in small])
    n_pairs = N_SEEDS * (BUDGET // 2)
    assert observed.sum() == n_pairs
    result = stats.chisquare(observed, expected_share * n_pairs)
    assert result.pvalue > ALPHA, (observed, expected_share * n_pairs)
