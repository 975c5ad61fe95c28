"""Vectorized TreeSHAP kernels over the packed ``EnsembleKernel`` arena.

They read the arena's routing format — the self-looping step arrays and
``is_internal`` — at internal nodes only.  The per-row recursions in
``tests/explainers/shapley/tree_oracle.py`` are the exactness oracle —
the kernels here must reproduce them bitwise (``np.array_equal``; signs
of exact zeros may differ where the vectorized form adds a masked
``0.0`` the recursion skips).

**Path-dependent** (:func:`ensemble_path_dependent_shap`): *leaf lanes*.
The Lundberg Algorithm-2 recursion visits every node for every row
(absent features descend both children) and, at each leaf, unwinds a
path of ``(feature, zero_fraction, one_fraction, weight)`` entries into
per-feature contributions.  What a leaf contributes to a row depends on
very little:

- its *structural path* — split features, zero fractions (products of
  training-cover ratios), which entry each repeated feature unwinds,
  the leaf value — is a property of the tree alone;
- ``one_fraction`` is exactly ``0.0`` or ``1.0``: whether the row
  follows the path at that node, ANDed with the bit of the feature's
  earlier occurrence on the path (the recursion carries it forward
  through the unwind);
- the weights are a pure function of those two.

So a leaf's contribution is a function of its *hot pattern*, one bit
per path node.  A leaf at depth ``k`` has up to ``2**k`` patterns, but
a batch realises only the patterns its rows take — at most one per row,
usually a handful per leaf — and rows sharing a pattern get the same
contribution.  The kernel therefore computes each distinct (leaf,
pattern) *lane* once, never a table of all ``2**k`` patterns (at depth
16 that is 10^5-10^8 lanes):

1. it routes the rows once per tree level (``X[:, feature] <=
   threshold``: the same split test as the recursion, NaN going right);
2. it encodes each row's pattern *class* level by level: the class
   below a node is the pair (class at the parent, the row's bit for the
   edge), renumbered densely, so class ids stay below the row count at
   any depth.  Every distinct (node, class) is a lane, and a leaf's
   lanes are its distinct hot patterns; because a lane below a node
   inherits its parent lane's path state, sibling leaves share their
   ancestors' steps instead of replaying them;
3. it runs the recursion's EXTEND/UNWIND steps for all lanes of all
   trees in the group at once, one tree level per step.  Path lengths
   and UNWIND positions differ per lane, so they are lane arrays; the
   lanes that UNWIND (a repeated split feature) are a contiguous prefix
   of the level;
4. it unwinds each leaf lane's path entries into contributions and
   folds them into ``phi`` with ``np.bincount`` over keys laid out in
   the recursion's order — left-first leaf order within a tree — then
   adds the trees in term order.

The number of numpy operations per call grows with tree depth and path
length, not with the number of nodes or rows, so there is no per-call
fixed cost for a single row to amortise: ``explain`` is a batch of one.
Rows are processed in blocks of ``_ROW_BLOCK``; within a block, trees
are taken in consecutive groups sized so the (node, row) tables stay
within ``_GROUP_CELLS`` (one group for small batches), and the leaf
unwinds and the fold run in chunks — all bitwise-safe, since rows,
lanes and trees are independent until the final ordered fold.

*Bitwise identity.* Every lane replays the recursion's scalar
expressions in the same order: ``(po * w) * (i + 1) / (length + 1)``,
the hot/cold UNWIND branches selected per lane, each leaf's unwound
weights summed from ``0.0`` in ascending position order, and
``total * (one - zero) * value``.  Weight positions past a lane's path
length hold don't-care values that never flow into live positions (the
UNWIND carry is masked), and ``np.bincount`` adds its weights one by
one from ``0.0`` in input order — the recursion's ``phi[f] += ...``
order.  A shared lane computes exactly the scalar sequence each of its
rows would, so deduplication changes no bit.

**Interventional** (:func:`ensemble_interventional_shap`).  For one
``(x, z)`` pair each leaf is an AND-game over the features where ``x``
and ``z`` diverge on the leaf's path, with closed-form Shapley values
``±(a-1)! b! / (a+b)!``.  The kernel enumerates each tree's leaf paths
once (row-independent), then evaluates every leaf against the whole
background set at once: per-feature match masks, coalition sizes
``a``/``b`` by row-wise popcount, and factorial weights from an exact
precomputed table.  The per-row recursion (normalized to the same
left-first leaf order, accumulating one fresh ``phi_z`` per background
row) is again the oracle.

Both kernels fold trees sequentially in term order, exactly like the
per-term Python loops they replace.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from xaidb.models.tree_kernels import EnsembleKernel
from xaidb.utils.validation import check_array

__all__ = [
    "ensemble_path_dependent_shap",
    "ensemble_interventional_shap",
]

#: Rows per block.  Rows are independent, so blocking is bitwise-safe;
#: large blocks let more rows share a lane.
_ROW_BLOCK = 4096
#: (node, row) cells per tree group: the trees of a block are processed
#: in consecutive groups whose per-node row tables stay within this
#: budget (one group for small batches).
_GROUP_CELLS = 1 << 17
#: Cells per leaf-unwind chunk (position x position x lane) and per
#: fold chunk (slot x row); both only bound transient memory.
_CHUNK_CELLS = 1 << 15


# ----------------------------------------------------------------------
# Path-dependent: leaf lanes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Level:
    """The nodes at one depth of a tree group.

    Node order within a level is: unwinding internal nodes, unwinding
    leaves, plain leaves, plain internal nodes — so the lanes that
    UNWIND are a prefix and the leaf lanes a contiguous range.
    """

    nodes: np.ndarray
    #: position of each node's parent in the previous level
    parent_index: np.ndarray
    #: the previous level's internal nodes, and each node's parent
    #: among them
    split: np.ndarray
    split_of: np.ndarray
    is_left: np.ndarray
    #: node whose incoming edge extended the path entry for the
    #: parent's split feature, if one exists (else the tree root)
    prev: np.ndarray
    #: path length at the parent, before the UNWIND
    length: np.ndarray
    n_unwind: int
    leaf_lo: int
    leaf_hi: int
    #: leaf-store index of the level's first leaf
    store_lo: int
    max_unwind_last: int
    max_extend_length: int


@dataclass(frozen=True)
class _LeafPlan:
    """The row-independent part of every leaf's EXTEND/UNWIND program,
    for trees ``first .. first + n_trees - 1`` of the arena.

    Node ids are local to the group (arena id minus ``base``).  A path
    entry is identified by the node its extending edge enters:
    ``zero[node]`` is the entry's zero fraction and ``hot[node, row]``
    (computed per call) its one-fraction.  Leaves below a root are
    numbered in level order (the *leaf store*); single-node trees
    attribute nothing and have no leaf.
    """

    first: int
    n_trees: int
    base: int
    n_nodes: int
    roots: np.ndarray
    levels: tuple
    zero: np.ndarray
    #: per leaf: the entry node of each final path position 1..len-1
    final_edge: np.ndarray
    final_len: np.ndarray
    leaf_node: np.ndarray
    #: fold slots — one per (leaf, path position), in the recursion's
    #: accumulation order (tree order, then left-first leaf order)
    slot_leaf: np.ndarray
    slot_pos: np.ndarray
    slot_tree: np.ndarray
    slot_feature: np.ndarray


def _tree_groups(kernel: EnsembleKernel, n_rows: int) -> list[_LeafPlan]:
    """Plans for consecutive tree groups of at most ``_GROUP_CELLS //
    n_rows`` nodes (at least one tree each), built once per pack and
    group in :attr:`EnsembleKernel.plans` (tree structure is immutable
    once fitted)."""
    plans = kernel.plans
    budget = max(1, _GROUP_CELLS // max(1, n_rows))
    groups = []
    first = 0
    while first < kernel.n_trees:
        stop, nodes = first + 1, int(kernel.counts[first])
        while stop < kernel.n_trees and nodes + kernel.counts[stop] <= budget:
            nodes += int(kernel.counts[stop])
            stop += 1
        if (first, stop) not in plans:
            plans[first, stop] = _build_plan(kernel, first, stop)
        groups.append(plans[first, stop])
        first = stop
    return groups


def _build_plan(kernel: EnsembleKernel, first: int, stop: int) -> _LeafPlan:
    base = int(kernel.offsets[first])
    end = base + int(kernel.counts[first:stop].sum())
    children = kernel.step_children[2 * base : 2 * end].reshape(-1, 2) - base
    left, right = children[:, 0], children[:, 1]
    feature, covers = kernel.step_feature[base:end], kernel.covers[base:end]
    is_internal = kernel.is_internal[base:end]
    roots = np.asarray(kernel.offsets[first:stop], dtype=np.intp) - base
    zero = np.ones(end - base)
    # node -> (depth, parent, is_left, prev, unwound position, length)
    info: dict[int, tuple] = {}
    # (tree, leaf, final path) in left-first DFS order; a path entry is
    # (feature, entry node), position 0 being the recursion's dummy
    leaves: list[tuple] = []
    for t, root in enumerate(roots.tolist()):
        stack: list[tuple] = [(root, 0, [(-1, root)])]
        while stack:
            node, depth, path = stack.pop()
            if not is_internal[node]:
                if depth:
                    leaves.append((t, node, path))
                continue
            split = int(feature[node])
            incoming_zero, at, prev, kept = 1.0, -1, root, path
            for i in range(1, len(path)):
                if path[i][0] == split:
                    at, prev = i, path[i][1]
                    incoming_zero = zero[prev]
                    kept = path[:i] + path[i + 1 :]
                    break
            # left child pushed last: popped first (normalized order)
            for child, is_left in (
                (int(right[node]), False),
                (int(left[node]), True),
            ):
                zero[child] = incoming_zero * covers[child] / covers[node]
                info[child] = (depth + 1, node, is_left, prev, at, len(path))
                stack.append((child, depth + 1, kept + [(split, child)]))

    def rank(node: int) -> int:
        if info[node][4] >= 0:
            return 0 if is_internal[node] else 1
        return 3 if is_internal[node] else 2

    by_depth: dict[int, list[int]] = {}
    for node in sorted(info, key=lambda n: (info[n][0], rank(n))):
        by_depth.setdefault(info[node][0], []).append(node)
    levels = []
    store: dict[int, int] = {}
    previous = roots.tolist()
    for depth in range(1, len(by_depth) + 1):
        nodes = by_depth[depth]
        ranks = [rank(node) for node in nodes]
        n_unwind = ranks.count(0) + ranks.count(1)
        leaf_lo, leaf_hi = ranks.count(0), n_unwind + ranks.count(2)
        store_lo = len(store)
        for node in nodes[leaf_lo:leaf_hi]:
            store[node] = len(store)
        _, parents, is_left, prev, _, length = zip(*(info[n] for n in nodes))
        position = {node: i for i, node in enumerate(previous)}
        splits = list(dict.fromkeys(parents))
        split_at = {node: i for i, node in enumerate(splits)}
        length = np.asarray(length, dtype=np.intp)
        levels.append(
            _Level(
                nodes=np.asarray(nodes, dtype=np.intp),
                parent_index=np.asarray(
                    [position[p] for p in parents], dtype=np.intp
                ),
                split=np.asarray(splits, dtype=np.intp),
                split_of=np.asarray([split_at[p] for p in parents], dtype=np.intp),
                is_left=np.asarray(is_left, dtype=bool),
                prev=np.asarray(prev, dtype=np.intp),
                length=length,
                n_unwind=n_unwind,
                leaf_lo=leaf_lo,
                leaf_hi=leaf_hi,
                store_lo=store_lo,
                max_unwind_last=int(length[:n_unwind].max(initial=1)) - 1,
                max_extend_length=int(
                    (length - (np.arange(len(nodes)) < n_unwind)).max()
                ),
            )
        )
        previous = nodes

    n_positions = max((len(path) - 1 for *_, path in leaves), default=0)
    final_edge = np.empty((n_positions, len(store)), dtype=np.intp)
    final_len = np.empty(len(store), dtype=np.intp)
    leaf_node = np.empty(len(store), dtype=np.intp)
    slots: list[tuple[int, int, int, int]] = []
    for t, node, path in leaves:
        index = store[node]
        leaf_node[index] = node
        final_len[index] = len(path)
        final_edge[:, index] = node  # padding: any node's bits will do
        for p, (split, entry) in enumerate(path[1:]):
            final_edge[p, index] = entry
            slots.append((index, p, t, split))
    slot_table = np.asarray(slots, dtype=np.intp).reshape(-1, 4).T
    return _LeafPlan(
        first=first,
        n_trees=stop - first,
        base=base,
        n_nodes=end - base,
        roots=roots,
        levels=tuple(levels),
        zero=zero,
        final_edge=final_edge,
        final_len=final_len,
        leaf_node=leaf_node,
        slot_leaf=slot_table[0],
        slot_pos=slot_table[1],
        slot_tree=slot_table[2],
        slot_feature=slot_table[3],
    )


def _unwind_lanes(
    weights: np.ndarray,
    carry: np.ndarray,
    last: np.ndarray,
    one: np.ndarray,
    zero: np.ndarray,
    n_positions: int,
):
    """The recursion's ``_unwind`` weight loop for many lanes at once,
    yielding ``(j, unwound[j])`` for ``j = n_positions-1 .. 0``.

    ``one`` is exactly ``0.0`` or ``1.0`` per lane; the hot/cold branch
    of the scalar code becomes a ``np.where`` select between the two
    closed forms, each computed with the reference's expression order.
    Lanes with ``j >= last`` yield don't-care values (their paths are
    shorter) and keep their ``carry``.
    """
    # xailint: disable=XDB006 (exact-zero one-fraction guard, as in the scalar unwind)
    hot = one != 0.0
    span = last + 1
    for j in range(n_positions - 1, -1, -1):
        previous = weights[j]
        gap = last - j
        # hot lanes have one == 1.0, so (j + 1) * one == j + 1 exactly
        unwound = np.where(
            hot, carry * span / (j + 1), previous * span / (zero * gap)
        )
        carry = np.where(
            hot & (gap > 0), previous - unwound * zero * gap / span, carry
        )
        yield j, unwound


def _extend_lanes(
    weights: np.ndarray,
    size: np.ndarray,
    pz: np.ndarray,
    po: np.ndarray,
    max_length: int,
) -> None:
    """The recursion's ``_extend`` weight loop for many lanes at once, in
    place; ``size`` is each lane's path length before the new entry.
    Positions past a lane's length only ever feed other don't-care
    positions."""
    lanes = weights.shape[1]
    weights[size, np.arange(lanes)] = 0.0
    span = size + 1
    scratch = np.empty(lanes)
    for i in range(max_length - 1, -1, -1):
        np.multiply(po, weights[i], out=scratch)
        scratch *= i + 1
        scratch /= span
        weights[i + 1] += scratch
        weights[i] *= pz
        weights[i] *= size - i
        weights[i] /= span


def _leaf_contributions(
    plan: _LeafPlan,
    values: np.ndarray,
    weights: np.ndarray,
    leaf: np.ndarray,
    rep: np.ndarray,
    hot: np.ndarray,
) -> np.ndarray:
    """Unwind each path position of every leaf lane in turn and sum what
    is left: returns ``contribution[lane, position - 1]``."""
    n_lanes, n_positions = leaf.shape[0], plan.final_edge.shape[0]
    contribution = np.empty((n_lanes, n_positions))
    chunk = max(1, _CHUNK_CELLS // (n_positions * n_positions))
    for lo in range(0, n_lanes, chunk):
        cols = slice(lo, min(lo + chunk, n_lanes))
        lane_leaf = leaf[cols]
        last = plan.final_len[lane_leaf] - 1
        width = int(last.max())
        entry = plan.final_edge[:width, lane_leaf]
        one = hot[entry, rep[cols]].astype(float)
        zero = plan.zero[entry]
        carry = np.broadcast_to(weights[last, np.arange(lo, cols.stop)], one.shape)
        unwound = np.empty((width, width, last.shape[0]))
        for j, column in _unwind_lanes(
            weights[:, cols], carry, last, one, zero, width
        ):
            unwound[j] = column
        # the recursion sums the unwound weights from 0.0, ascending
        total = np.zeros(one.shape)
        for j in range(width):
            total += np.where(j < last, unwound[j], 0.0)
        total *= one - zero
        total *= values[plan.leaf_node[lane_leaf]]
        contribution[cols, :width] = total.T
    return contribution


def _group_path_dependent(
    kernel: EnsembleKernel,
    plan: _LeafPlan,
    X: np.ndarray,
    out: np.ndarray,
) -> None:
    """One tree group over a row block: a level-synchronous pass that
    refines the rows into pattern classes and runs the lanes'
    EXTEND/UNWIND steps and leaf unwinds, then the fold."""
    n_rows, n_features = out.shape
    nodes = slice(plan.base, plan.base + plan.n_nodes)
    feature, threshold = kernel.step_feature[nodes], kernel.step_threshold[nodes]
    values = kernel.values[nodes]
    n_roots = plan.roots.shape[0]
    n_weights = plan.final_edge.shape[0] + 2
    #: hot[node, row]: one-fraction (0/1) of the path entry ``node`` enters
    hot = np.empty((plan.n_nodes, n_rows), dtype=bool)
    hot[plan.roots] = True
    # the root level: one lane per tree, holding the dummy entry;
    # lane[node, row] is the row's lane (pattern class) at the level
    lane = np.repeat(np.arange(n_roots, dtype=np.int32)[:, None], n_rows, axis=1)
    count = np.ones(n_roots, dtype=np.intp)
    lane_start = np.arange(n_roots)
    weights = np.zeros((n_weights, n_roots))
    weights[0] = 1.0
    lane_of = np.empty((plan.leaf_node.shape[0], n_rows), dtype=np.int32)
    leaf_weights: list[np.ndarray] = []
    leaf_rep: list[np.ndarray] = []
    leaf_of: list[np.ndarray] = []
    n_leaf_lanes = 0
    rows = np.arange(n_rows)
    for level in plan.levels:
        parent_index = level.parent_index
        # the row follows this edge (NaN compares False -> right, as in
        # the scalar reference), and followed the split feature's earlier
        # occurrence: the recursion's incoming one-fraction
        split = level.split
        go_left = (X[:, feature[split]] <= threshold[split]).T
        bit = go_left[level.split_of] == level.is_left[:, None]
        del go_left
        bit &= hot[level.prev]
        hot[level.nodes] = bit
        # a class below a node is a (parent class, bit) pair: key the
        # pairs over disjoint per-node ranges and number the keys that
        # occur densely, node by node — the numbers are the level's lanes
        inherit_of = lane[parent_index]
        del lane
        width = 2 * count[parent_index]
        start = np.cumsum(width) - width
        lane = inherit_of * 2
        lane += (start - 2 * lane_start[parent_index])[:, None]
        lane += bit
        seen = np.zeros(int(start[-1] + width[-1]), dtype=bool)
        seen[lane] = True
        seen_rank = np.cumsum(seen, dtype=np.int32)
        np.take(seen_rank, lane, out=lane, mode="clip")
        lane -= 1
        lane_start = seen_rank[start] - seen[start]
        count = seen_rank[start + width - 1] - lane_start
        # each lane inherits its parent lane's path state; any row of a
        # class stands for all of them
        rep = np.empty(int(seen_rank[-1]), dtype=np.intp)
        rep[lane] = rows
        inherit = np.empty_like(rep)
        inherit[lane] = inherit_of
        del inherit_of
        weights = weights[:, inherit]
        lane_node = np.repeat(np.arange(count.shape[0]), count)
        size = level.length[lane_node]
        if level.n_unwind:
            # a repeated feature: UNWIND its earlier entry first
            u = int(lane_start[level.n_unwind - 1] + count[level.n_unwind - 1])
            prev = level.prev[lane_node[:u]]
            block = weights[:, :u]
            last = size[:u] - 1
            for j, unwound in _unwind_lanes(
                block,
                block[last, np.arange(u)],
                last,
                hot[prev, rep[:u]].astype(float),
                plan.zero[prev],
                level.max_unwind_last,
            ):
                block[j] = unwound
            size[:u] -= 1
        _extend_lanes(
            weights,
            size,
            plan.zero[level.nodes[lane_node]],
            bit[lane_node, rep].astype(float),
            level.max_extend_length,
        )
        if level.leaf_hi > level.leaf_lo:
            lo = int(lane_start[level.leaf_lo])
            hi = int(lane_start[level.leaf_hi - 1] + count[level.leaf_hi - 1])
            stored = slice(
                level.store_lo, level.store_lo + level.leaf_hi - level.leaf_lo
            )
            np.add(
                lane[level.leaf_lo : level.leaf_hi],
                n_leaf_lanes - lo,
                out=lane_of[stored],
            )
            leaf_weights.append(weights[:, lo:hi].copy())
            leaf_rep.append(rep[lo:hi])
            leaf_of.append(lane_node[lo:hi] - level.leaf_lo + level.store_lo)
            n_leaf_lanes += hi - lo
    if not n_leaf_lanes:
        return  # single-node trees only: nothing to attribute
    del lane, weights
    flat = _leaf_contributions(
        plan,
        values,
        np.concatenate(leaf_weights, axis=1),
        np.concatenate(leaf_of),
        np.concatenate(leaf_rep),
        hot,
    ).ravel()
    del hot, leaf_weights
    # fold: keys (tree, row, feature) laid out slot-major, so bincount
    # adds each key's contributions in the recursion's leaf order
    n_positions = plan.final_edge.shape[0]
    rows_per_chunk = max(1, _CHUNK_CELLS // plan.slot_pos.shape[0])
    for lo in range(0, n_rows, rows_per_chunk):
        hi = min(lo + rows_per_chunk, n_rows)
        m = hi - lo
        cells = np.multiply(
            lane_of[plan.slot_leaf, lo:hi], n_positions, dtype=np.intp
        )
        cells += plan.slot_pos[:, None]
        keys = (plan.slot_tree[:, None] * m + np.arange(m)) * n_features
        keys += plan.slot_feature[:, None]
        phi = np.bincount(
            keys.ravel(),
            flat[cells.ravel()],
            minlength=plan.n_trees * m * n_features,
        ).reshape(plan.n_trees, m, n_features)
        target = out[lo:hi]
        for t in range(plan.n_trees):
            target += kernel.scales[plan.first + t] * phi[t]


def ensemble_path_dependent_shap(
    kernel: EnsembleKernel,
    X: np.ndarray,
    n_features: int,
    *,
    row_block: int = _ROW_BLOCK,
) -> np.ndarray:
    """Path-dependent TreeSHAP for all rows of ``X`` across every tree
    of the arena: shape ``(n_rows, n_features)``.

    ``kernel`` is a :meth:`EnsembleKernel.for_terms` pack; trees are
    scaled by its :attr:`EnsembleKernel.scales`.  Bitwise identical per
    row to the per-row recursion of the test oracle::

        phi = zeros(d)
        for (tree, leaf_values, scale) in terms:
            phi += scale * path_dependent_tree_shap(tree, leaf_values, x, d)

    Rows are processed in independent blocks of ``row_block``; the
    result does not depend on the blocking.
    """
    X = np.asarray(X, dtype=float)
    out = np.zeros((X.shape[0], n_features))
    # don't-care lanes may divide by zero or overflow; live lanes never do
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, X.shape[0], row_block):
            stop = min(start + row_block, X.shape[0])
            for plan in _tree_groups(kernel, stop - start):
                _group_path_dependent(kernel, plan, X[start:stop], out[start:stop])
    return out


# ----------------------------------------------------------------------
# Interventional: leaf AND-games against the whole background at once
# ----------------------------------------------------------------------
def _factorial_tables(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(a-1)! b! / (a+b)!`` and ``a! (b-1)! / (a+b)!`` lookup
    tables: the integer arithmetic happens in Python ints, so each cell
    is the same correctly-rounded float the recursion computes."""
    pos = np.zeros((depth + 1, depth + 1))
    neg = np.zeros((depth + 1, depth + 1))
    for a in range(depth + 1):
        for b in range(depth + 1):
            if a + b == 0:
                continue
            denom = factorial(a + b)
            if a:
                pos[a, b] = factorial(a - 1) * factorial(b) / denom
            if b:
                neg[a, b] = factorial(a) * factorial(b - 1) / denom
    return pos, neg


def _leaf_paths(
    kernel: EnsembleKernel, tree_index: int
) -> list[tuple[int, list[tuple[int, bool]]]]:
    """Left-first DFS enumeration of one tree's leaves with their
    decision paths ``[(arena_node, went_left), ...]`` — structural,
    shared by every row."""
    children = kernel.step_children
    is_internal = kernel.is_internal
    leaves: list[tuple[int, list[tuple[int, bool]]]] = []
    stack: list[tuple[int, list[tuple[int, bool]]]] = [
        (int(kernel.offsets[tree_index]), [])
    ]
    while stack:
        node, path = stack.pop()
        if not is_internal[node]:
            leaves.append((node, path))
            continue
        stack.append((int(children[2 * node + 1]), path + [(node, False)]))
        stack.append((int(children[2 * node]), path + [(node, True)]))
    return leaves


def ensemble_interventional_shap(
    kernel: EnsembleKernel,
    x: np.ndarray,
    background: np.ndarray,
) -> np.ndarray:
    """Interventional TreeSHAP of ``x`` against ``background`` across
    every tree of the arena: shape ``(n_features,)``.

    ``kernel`` is a :meth:`EnsembleKernel.for_terms` pack.  Bitwise
    identical (up to signs of exact zeros, via masked adds the
    recursion skips) to the test oracle's::

        phi = zeros(d)
        for (tree, leaf_values, scale) in terms:
            phi += scale * interventional_tree_shap(tree, leaf_values, x, background)
    """
    x = check_array(x, name="x", ndim=1)
    Z = check_array(background, name="background", ndim=2)
    n_background, d = Z.shape[0], x.shape[0]
    feature, threshold = kernel.step_feature, kernel.step_threshold
    n_nodes = kernel.is_internal.shape[0]
    internal_ids = np.flatnonzero(kernel.is_internal)
    # split outcomes for x (per node) and every background row at once
    x_goes_left = np.zeros(n_nodes, dtype=bool)
    z_goes_left = np.zeros((n_background, n_nodes), dtype=bool)
    if internal_ids.size:
        x_goes_left[internal_ids] = (
            x[feature[internal_ids]] <= threshold[internal_ids]
        )
        z_goes_left[:, internal_ids] = (
            Z[:, feature[internal_ids]] <= threshold[internal_ids]
        )
    pos_table = neg_table = None
    out = np.zeros(d)
    for t in range(kernel.n_trees):
        contributions = np.zeros((n_background, d))
        for leaf, path in _leaf_paths(kernel, t):
            if not path:
                continue  # single-node tree: x and z always agree
            # group path occurrences by feature, first-occurrence order
            order: list[int] = []
            occurrences: dict[int, list[tuple[int, bool]]] = {}
            for node, went_left in path:
                f = int(feature[node])
                if f not in occurrences:
                    occurrences[f] = []
                    order.append(f)
                occurrences[f].append((node, went_left))
            k = len(order)
            x_match = np.empty(k, dtype=bool)
            z_match = np.empty((n_background, k), dtype=bool)
            for j, f in enumerate(order):
                x_ok = True
                z_ok = np.ones(n_background, dtype=bool)
                for node, went_left in occurrences[f]:
                    x_ok = x_ok and (bool(x_goes_left[node]) == went_left)
                    z_ok &= z_goes_left[:, node] == went_left
                x_match[j] = x_ok
                z_match[:, j] = z_ok
            # the leaf's AND-game: A = follow-x features, B = follow-z
            in_a = x_match[None, :] & ~z_match
            in_b = ~x_match[None, :] & z_match
            reachable = (x_match[None, :] | z_match).all(axis=1)
            a_sizes = in_a.sum(axis=1)
            b_sizes = in_b.sum(axis=1)
            valid = reachable & ((a_sizes + b_sizes) > 0)
            if not valid.any():
                continue
            if pos_table is None or pos_table.shape[0] <= k:
                pos_table, neg_table = _factorial_tables(max(k, 16))
            value = float(kernel.values[leaf])
            pos = pos_table[a_sizes, b_sizes] * value
            neg = neg_table[a_sizes, b_sizes] * value
            for j, f in enumerate(order):
                contributions[:, f] += np.where(valid & in_a[:, j], pos, 0.0)
                contributions[:, f] -= np.where(valid & in_b[:, j], neg, 0.0)
        # fold background rows sequentially, then trees in term order —
        # the recursion's accumulation structure
        phi_tree = np.zeros(d)
        for row in range(n_background):
            phi_tree += contributions[row]
        out += float(kernel.scales[t]) * (phi_tree / n_background)
    return out
