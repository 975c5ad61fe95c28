"""Test-side exactness oracle for the fixed-depth tree descent.

:func:`apply_row` is the seed's row-at-a-time walk: one Python ``while``
loop per row, ``x[feature] <= threshold`` going left.  The packed
:class:`~xaidb.models.tree_kernels.EnsembleKernel` behind
``TreeStructure.apply`` and every forest/GBM prediction must route every
row to bitwise the same leaf (``tests/models/test_tree_kernels.py``,
``tests/models/test_tree_descent.py``); benchmark A10 times
:func:`apply_rowwise` as its "before" column.
"""

from __future__ import annotations

import numpy as np

from xaidb.models.tree import TreeStructure

__all__ = ["apply_row", "apply_rowwise"]


def apply_row(tree: TreeStructure, row: np.ndarray) -> int:
    """Leaf index reached by one input row."""
    node = 0
    while not tree.is_leaf(node):
        if row[tree.feature[node]] <= tree.threshold[node]:
            node = tree.children_left[node]
        else:
            node = tree.children_right[node]
    return node


def apply_rowwise(tree: TreeStructure, X: np.ndarray) -> np.ndarray:
    """Row-at-a-time ``apply``."""
    X = np.asarray(X, dtype=float)
    return np.asarray([apply_row(tree, row) for row in X], dtype=int)
