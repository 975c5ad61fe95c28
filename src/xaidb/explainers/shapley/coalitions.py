"""Shared coalition-mask arenas for sampling-based Shapley estimators.

KernelSHAP's coalition design is a pure function of ``(n_features,
budget, seed)`` — the exhaustive enumeration does not even depend on
the seed — yet the seed paths rebuilt it per instance, per request.
This module builds each design once, marks the arrays read-only, and
memoizes them under that key, so:

- a batched :meth:`KernelShapExplainer.explain_batch` call with one
  seed per instance shares one design per distinct seed (and exactly
  one in the exhaustive regime);
- repeated server requests against the same ``(model, explainer,
  config)`` key reuse the cached arrays across dispatch batches.

Designs built from a non-reproducible ``random_state`` (a live
``Generator``, or ``None``) are returned uncached: caching them would
freeze one draw of a stream the caller expects to advance.

A sampled design promises a distribution, not a random stream (DESIGN.md,
"KernelSHAP design contract"): sizes follow the kernel mass, subsets of
one size are uniform, masks come in complement pairs.  It is drawn with
two generator calls per design: the sizes, then one key matrix whose
ranks pick every pair's subset.

The module also hosts :func:`sample_uniform_masks`, the shared
mask-matrix sampler the vectorized Banzhaf estimator draws from (one
``(n_samples, n_players)`` block whose rows reproduce the historical
per-sample ``rng.random(n) < 0.5`` draws bit-for-bit, because the
generator consumes the same stream in the same order).
"""

from __future__ import annotations

import threading
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from xaidb.utils.combinatorics import shapley_kernel_weight
from xaidb.utils.rng import RandomState, check_random_state

__all__ = [
    "kernel_shap_design",
    "sample_uniform_masks",
    "design_cache_info",
    "clear_design_cache",
]

#: (d, budget, seed) -> (masks, weights); insertion-ordered for FIFO
#: eviction.  Guarded by ``_LOCK`` — the dispatcher evaluates distinct
#: batch keys on concurrent threads.
_CACHE: "dict[tuple, tuple[np.ndarray, np.ndarray]]" = {}
_LOCK = threading.Lock()
_MAX_ENTRIES = 128
_INFO = {"hits": 0, "misses": 0}


def _frozen(
    masks: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    masks.setflags(write=False)
    weights.setflags(write=False)
    return masks, weights


def _enumerated_design(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Every non-trivial coalition with its Shapley-kernel weight."""
    masks = []
    weights = []
    for size in range(1, d):
        kernel = shapley_kernel_weight(size, d)
        for subset in combinations(range(d), size):
            mask = np.zeros(d, dtype=bool)
            mask[list(subset)] = True
            masks.append(mask)
            weights.append(kernel)
    return np.asarray(masks), np.asarray(weights)


@lru_cache(maxsize=_MAX_ENTRIES)
def _size_distribution(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Coalition sizes ``1 .. d-1`` and their draw probabilities, each
    proportional to the *total* Shapley-kernel mass of that size.
    Read-only; computed once per ``d``."""
    sizes = np.arange(1, d)
    mass = np.asarray(
        [shapley_kernel_weight(int(s), d) * comb(d, int(s)) for s in sizes]
    )
    probabilities = mass / mass.sum()
    sizes.setflags(write=False)
    probabilities.setflags(write=False)
    return sizes, probabilities


def _sampled_design(
    d: int, budget: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Size-stratified paired sampling from the kernel distribution.

    Sizes are drawn with probability proportional to the *total* kernel
    mass of that size (one ``rng.choice`` call); then one
    ``rng.random((n_pairs, d))`` key matrix picks every pair's subset
    at once: a pair of size ``k`` takes the ``k`` features with the
    smallest keys (``rank < k``, ranks from a double ``argsort``).
    i.i.d. keys rank as a uniform permutation, so each size-``k``
    subset is equally likely.  Each sampled mask is paired with its
    complement.  Duplicate draws are aggregated
    — a mask sampled ``k`` times enters the design once with weight
    ``k``, which solves the same WLS normal equations as ``k``
    unit-weight copies while keeping the mask set unique (so downstream
    caches dedupe cleanly).
    """
    sizes, probabilities = _size_distribution(d)
    n_pairs = budget // 2
    drawn_sizes = rng.choice(sizes, size=n_pairs, p=probabilities)
    ranks = rng.random((n_pairs, d)).argsort(axis=1).argsort(axis=1)
    masks = np.empty((2 * n_pairs, d), dtype=bool)
    np.less(ranks, drawn_sizes[:, None], out=masks[0::2])
    np.logical_not(masks[0::2], out=masks[1::2])
    unique_masks, counts = _unique_rows(masks)
    return unique_masks, counts.astype(float)


def _unique_rows(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(masks, axis=0, return_counts=True)`` for a boolean
    matrix: the same rows, in the same (lexicographic, column 0 first)
    order, with the same counts.

    Rows are packed into big-endian 64-bit words — bit order then
    matches column order, so sorting the words sorts the rows — and
    sorted with one ``lexsort`` over the words, instead of the
    structured per-column sort ``np.unique(axis=0)`` runs.  One word
    covers ``d <= 64``; wider rows take more words on the same path.
    """
    n = masks.shape[0]
    packed = np.packbits(masks, axis=1)
    n_words = -(-packed.shape[1] // 8)
    padded = np.zeros((n, 8 * n_words), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    words = padded.view(">u8").astype(np.uint64)
    order = np.lexsort(words.T[::-1])
    ranked = words[order]
    starts = np.flatnonzero(
        np.concatenate(([True], np.any(ranked[1:] != ranked[:-1], axis=1)))
    )
    counts = np.diff(np.append(starts, n))
    return masks[order[starts]], counts


def kernel_shap_design(
    d: int, n_coalitions: int, random_state: RandomState = None
) -> tuple[np.ndarray, np.ndarray]:
    """Coalition masks and regression weights for a KernelSHAP fit.

    Exhaustive when ``2^d - 2 <= n_coalitions`` (seed-independent),
    sampled otherwise.  Returns read-only arrays; reproducible designs
    (exhaustive, or sampled from an integer seed) come from the shared
    cache, so equal keys return the *same objects* — callers may rely
    on identity for downstream memoization.
    """
    exhaustive = (2**d - 2) <= n_coalitions
    if exhaustive:
        key = (d, n_coalitions, None)
    elif isinstance(random_state, (int, np.integer)):
        key = (d, n_coalitions, int(random_state))
    else:
        key = None
    if key is not None:
        with _LOCK:
            cached = _CACHE.get(key)
            if cached is not None:
                _INFO["hits"] += 1
                return cached
            _INFO["misses"] += 1
    if exhaustive:
        design = _frozen(*_enumerated_design(d))
    else:
        design = _frozen(
            *_sampled_design(d, n_coalitions, check_random_state(random_state))
        )
    if key is not None:
        with _LOCK:
            _CACHE.setdefault(key, design)
            while len(_CACHE) > _MAX_ENTRIES:
                _CACHE.pop(next(iter(_CACHE)))
            return _CACHE[key]
    return design


def sample_uniform_masks(
    rng: np.random.Generator, n_samples: int, n_players: int
) -> np.ndarray:
    """``(n_samples, n_players)`` fair-coin coalition masks.

    One block draw; row ``s`` equals the s-th sequential
    ``rng.random(n_players) < 0.5`` draw bit-for-bit (the generator
    fills the block row-major from the same stream).
    """
    return rng.random((n_samples, n_players)) < 0.5


def design_cache_info() -> dict[str, int]:
    """Hit/miss/entry counters — benchmark and test observability."""
    with _LOCK:
        return {"entries": len(_CACHE), **_INFO}


def clear_design_cache() -> None:
    """Drop every cached design (tests; long-lived servers on memory
    pressure)."""
    with _LOCK:
        _CACHE.clear()
        _INFO["hits"] = _INFO["misses"] = 0
