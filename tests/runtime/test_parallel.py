"""parallel_map semantics and the serial == parallel determinism
contract for TMC Data Shapley, the one explainer that rides on it."""

from __future__ import annotations

import numpy as np
import pytest

from xaidb.exceptions import ValidationError
from xaidb.runtime import parallel_map


def _square(x: int) -> int:  # module-level: picklable for the pool
    return x * x


def test_serial_map_preserves_order():
    assert parallel_map(_square, [3, 1, 2]) == [9, 1, 4]
    assert parallel_map(_square, []) == []


def test_pool_map_matches_serial():
    tasks = list(range(8))
    serial = parallel_map(_square, tasks, n_jobs=1)
    pooled = parallel_map(_square, tasks, n_jobs=2)
    assert pooled == serial


def test_unpicklable_fn_falls_back_to_serial():
    offset = 10
    closure = lambda x: x + offset  # noqa: E731 - deliberately unpicklable
    assert parallel_map(closure, [1, 2, 3], n_jobs=2) == [11, 12, 13]


def test_n_jobs_validation():
    with pytest.raises(ValidationError):
        parallel_map(_square, [1], n_jobs=0)


# ------------------------------------------------------- determinism
def test_parallel_tmc_matches_serial_bitwise():
    from xaidb.datavaluation import UtilityFunction, tmc_shapley_values
    from xaidb.models import KNeighborsClassifier

    rng = np.random.default_rng(5)
    X = rng.normal(size=(24, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=24) > 0).astype(int)
    X_valid = rng.normal(size=(16, 3))
    y_valid = (X_valid[:, 0] > 0).astype(int)
    utility = UtilityFunction(
        KNeighborsClassifier(n_neighbors=3), X_valid, y_valid
    )
    serial, serial_std = tmc_shapley_values(
        utility, X, y, n_permutations=6, random_state=11
    )
    pooled, pooled_std = tmc_shapley_values(
        utility, X, y, n_permutations=6, random_state=11, n_jobs=2
    )
    assert np.array_equal(serial, pooled)
    assert np.array_equal(serial_std, pooled_std)

