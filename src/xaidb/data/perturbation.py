"""Neighborhood/perturbation samplers used by LIME and Anchors.

LIME perturbs an instance by (a) for numeric features, sampling from a
normal distribution fitted to the training column and (b) for categorical
features, sampling codes from their empirical frequencies; each perturbed
feature that *matches* the instance contributes a ``1`` to the binary
interpretable representation.  The tutorial (§2.1.1) stresses that this
sampling "can be unreliable" — the samplers here expose exactly the knobs
(kernel width, number of samples) that experiments E1/E2 sweep.

Anchors needs a *conditional* sampler: draw realistic instances in which a
fixed set of feature predicates holds while the remaining features vary.
:class:`ConditionalSampler` implements the standard approach of resampling
unfixed features from random training rows.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from xaidb.data.dataset import Dataset
from xaidb.exceptions import ValidationError
from xaidb.utils.rng import RandomState, check_random_state
from xaidb.utils.validation import check_array, check_positive

__all__ = ["LimeTabularSampler", "ConditionalSampler"]


class LimeTabularSampler:
    """Sample LIME-style perturbations around a tabular instance.

    Parameters
    ----------
    dataset:
        Training data used to estimate per-column statistics (mean/std for
        numeric columns, category frequencies for categorical columns).
    numeric_match_tolerance:
        A perturbed numeric value counts as "matching" the instance (binary
        feature on) when it lies within this many column standard
        deviations of the instance value.
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        numeric_match_tolerance: float = 0.5,
    ) -> None:
        check_positive(numeric_match_tolerance, name="numeric_match_tolerance")
        self.dataset = dataset
        self.numeric_match_tolerance = numeric_match_tolerance
        self.column_means = dataset.X.mean(axis=0)
        self.column_stds = dataset.X.std(axis=0)
        # Guard degenerate constant columns: perturbation keeps them fixed.
        self.column_stds = np.where(self.column_stds > 0, self.column_stds, 1.0)
        self.category_frequencies: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for col in dataset.categorical_indices:
            codes, counts = np.unique(dataset.X[:, col], return_counts=True)
            self.category_frequencies[col] = (codes, counts / counts.sum())

    def sample(
        self,
        instance: np.ndarray,
        n_samples: int,
        *,
        random_state: RandomState = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n_samples`` perturbations of ``instance``: the block of
        one of :meth:`sample_block`.

        Returns
        -------
        (X_perturbed, Z_binary):
            ``X_perturbed`` has shape ``(n_samples, d)`` in the original
            feature space (row 0 is the instance itself); ``Z_binary`` is
            the ``{0,1}`` interpretable representation where 1 means the
            perturbed feature matches the instance.
        """
        instance = check_array(instance, name="instance", ndim=1)
        perturbed, binary = self.sample_block(
            instance[None], n_samples, [random_state]
        )
        return perturbed[0], binary[0]

    def sample_block(
        self,
        instances: np.ndarray,
        n_samples: int,
        random_states: Sequence[RandomState],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Perturb a block of instances, one random state each.

        Returns ``(B, n_samples, d)`` perturbations and match
        indicators.  Only the draws run per instance — each from its
        own generator, column by column — so block ``b`` is bitwise
        what a block of that instance alone would draw; the indicators
        are computed for the whole block at once.
        """
        instances = check_array(instances, name="instances", ndim=2)
        if instances.shape[1] != self.dataset.n_features:
            raise ValidationError(
                f"instance has {instances.shape[1]} features, expected "
                f"{self.dataset.n_features}"
            )
        if n_samples < 2:
            raise ValidationError("n_samples must be at least 2")
        if len(random_states) != instances.shape[0]:
            raise ValidationError(
                f"got {len(random_states)} random states for "
                f"{instances.shape[0]} instances"
            )
        perturbed = np.empty((instances.shape[0], n_samples, instances.shape[1]))
        perturbed[:, 0] = instances
        for block, instance, random_state in zip(
            perturbed, instances, random_states
        ):
            rng = check_random_state(random_state)
            for col, value in enumerate(instance.tolist()):
                if col in self.category_frequencies:
                    codes, probs = self.category_frequencies[col]
                    block[1:, col] = rng.choice(
                        codes, size=n_samples - 1, p=probs
                    )
                else:
                    block[1:, col] = rng.normal(
                        value, self.column_stds[col], size=n_samples - 1
                    )
        tolerance = self.numeric_match_tolerance * self.column_stds
        matches = np.abs(perturbed - instances[:, None, :]) <= tolerance
        categorical = list(self.category_frequencies)
        matches[:, :, categorical] = (
            perturbed[:, :, categorical] == instances[:, None, categorical]
        )
        return perturbed, matches.astype(float)

    def standardised_distances(
        self, instance: np.ndarray, perturbed: np.ndarray
    ) -> np.ndarray:
        """Euclidean distances in per-column-standardised space (so the
        locality kernel treats every feature on an equal footing).

        Stacks too: ``(B, d)`` instances against ``(B, n, d)``
        perturbations give ``(B, n)`` distances, each row bitwise the
        single-instance result."""
        delta = (perturbed - instance[..., None, :]) / self.column_stds
        return np.sqrt(np.sum(delta * delta, axis=-1))


class ConditionalSampler:
    """Sample realistic instances subject to fixed-feature predicates.

    Given a set of anchored columns, every sample starts from a random
    training row and has the anchored columns overwritten with the target
    instance's values — the standard perturbation distribution of the
    Anchors algorithm (Ribeiro et al. 2018).
    """

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset

    def sample(
        self,
        instance: np.ndarray,
        fixed_columns: Sequence[int],
        n_samples: int,
        *,
        random_state: RandomState = None,
    ) -> np.ndarray:
        """Draw ``n_samples`` rows with ``fixed_columns`` pinned to the
        instance's values and all other columns resampled from data."""
        instance = check_array(instance, name="instance", ndim=1)
        if n_samples < 1:
            raise ValidationError("n_samples must be at least 1")
        fixed = list(fixed_columns)
        if any(not 0 <= c < self.dataset.n_features for c in fixed):
            raise ValidationError("fixed_columns out of range")
        rng = check_random_state(random_state)
        row_indices = rng.integers(0, self.dataset.n_rows, size=n_samples)
        samples = self.dataset.X[row_indices].copy()
        if fixed:
            samples[:, fixed] = instance[fixed]
        return samples
