"""Explaining database repairs through Shapley values (tutorial §3;
Deutch, Frost, Gilad & Sheffer 2021).

Given integrity constraints — functional dependencies here — an
inconsistent database has some set of violating tuple pairs.  "Which
tuples are to blame?" is a fair-division question: the *inconsistency
game* assigns every subset of tuples its number of internal violations,
and a tuple's Shapley value in that game is its share of the blame.  The
module also produces a minimal(ish) repair: greedily delete the
highest-blame tuples until consistency holds, which for FD-violation
counting is the classic weighted-vertex-cover heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from xaidb.db.relation import Relation
from xaidb.exceptions import ValidationError
from xaidb.explainers.shapley.exact import exact_shapley_values
from xaidb.explainers.shapley.games import Game
from xaidb.explainers.shapley.sampling import permutation_shapley_values
from xaidb.utils.rng import RandomState

__all__ = [
    "FunctionalDependency",
    "violating_pairs",
    "inconsistency_count",
    "repair_blame",
    "greedy_repair",
]


@dataclass(frozen=True)
class FunctionalDependency:
    """``lhs -> rhs``: tuples agreeing on ``lhs`` must agree on ``rhs``."""

    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.lhs or not self.rhs:
            raise ValidationError("FD sides must be non-empty")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FD({', '.join(self.lhs)} -> {', '.join(self.rhs)})"


def violating_pairs(
    relation: Relation, dependency: FunctionalDependency
) -> list[tuple[Hashable, Hashable]]:
    """All pairs of base tuples that jointly violate the FD."""
    for column in dependency.lhs + dependency.rhs:
        if column not in relation.columns:
            raise ValidationError(f"FD references unknown column {column!r}")
    pairs = []
    rows = list(relation.rows)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            left, right = rows[i], rows[j]
            if all(left[c] == right[c] for c in dependency.lhs) and any(
                left[c] != right[c] for c in dependency.rhs
            ):
                lineage_left = sorted(left.provenance.lineage(), key=str)
                lineage_right = sorted(right.provenance.lineage(), key=str)
                if len(lineage_left) == 1 and len(lineage_right) == 1:
                    pairs.append((lineage_left[0], lineage_right[0]))
                else:
                    raise ValidationError(
                        "repair explanations require base relations "
                        "(atomic provenance per row)"
                    )
    return pairs


def inconsistency_count(
    relation: Relation, dependencies: Sequence[FunctionalDependency]
) -> int:
    """Total number of violating pairs across all FDs."""
    return sum(len(violating_pairs(relation, fd)) for fd in dependencies)


class _InconsistencyGame(Game):
    """``v(S)`` = number of violating pairs entirely inside ``S``."""

    def __init__(
        self,
        tuples: Sequence[Hashable],
        pairs: Sequence[tuple[Hashable, Hashable]],
    ) -> None:
        super().__init__(len(tuples))
        self.tuples = list(tuples)
        index = {token: i for i, token in enumerate(self.tuples)}
        self.pairs = [(index[a], index[b]) for a, b in pairs]

    def value(self, coalition) -> float:
        present = set(coalition)
        return float(
            sum(1 for a, b in self.pairs if a in present and b in present)
        )


def repair_blame(
    relation: Relation,
    dependencies: Sequence[FunctionalDependency],
    *,
    n_permutations: int | None = None,
    random_state: RandomState = None,
) -> dict[Hashable, float]:
    """Shapley blame of each base tuple for the database's inconsistency.

    For pair-counting games the exact Shapley value is each tuple's
    violating-pair degree divided by 2 (every pair splits evenly between
    its two endpoints); the game-theoretic computation is retained (and
    tested against that closed form) because it generalises to non-pair
    constraints.
    """
    pairs = []
    for dependency in dependencies:
        pairs.extend(violating_pairs(relation, dependency))
    tuples = relation.tuple_ids()
    if not tuples:
        raise ValidationError("relation has no base tuples")
    game = _InconsistencyGame(tuples, pairs)
    if n_permutations is None:
        phi = exact_shapley_values(game)
    else:
        phi, __ = permutation_shapley_values(
            game, n_permutations, random_state=random_state
        )
    return dict(zip(tuples, phi.tolist()))


def greedy_repair(
    relation: Relation,
    dependencies: Sequence[FunctionalDependency],
) -> tuple[Relation, list[Hashable]]:
    """Delete highest-blame tuples until every FD holds.

    Returns ``(consistent_subrelation, deleted_tuple_ids)``.  Greedy
    max-degree deletion is a 2-approximation of the minimal repair for
    pairwise FD conflicts.
    """
    current = relation
    deleted: list[Hashable] = []
    while True:
        pairs = []
        for dependency in dependencies:
            pairs.extend(violating_pairs(current, dependency))
        if not pairs:
            return current, deleted
        degree: dict[Hashable, int] = {}
        for a, b in pairs:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        victim = max(sorted(degree, key=str), key=lambda t: degree[t])
        deleted.append(victim)
        remaining = set(current.tuple_ids()) - {victim}
        current = current.restrict_to(remaining)
