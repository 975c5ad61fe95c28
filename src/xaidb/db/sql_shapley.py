"""The Shapley value of tuples in query answering (Livshits, Bertossi,
Kimelfeld & Sebag 2021; tutorial §3 "Explanations in Databases").

Two games over *endogenous* base tuples:

- **Boolean queries**: ``v(S) = 1`` iff the output tuple is derivable
  from ``S`` (plus exogenous tuples) — evaluated directly on the
  why-provenance DNF, no query re-execution needed;
- **numeric queries**: ``v(S) = q(D restricted to S)`` for an arbitrary
  caller-supplied query function (aggregates, model-in-the-loop queries,
  anything).

The boolean game also backs :func:`banzhaf_of_tuples_boolean`, the
power-index alternative.  All of them reuse xaidb's game/estimator stack,
so exact enumeration and permutation sampling come for free and agree
with the feature-attribution implementations they share code with.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence

from xaidb.db.provenance import Provenance
from xaidb.db.relation import Relation
from xaidb.exceptions import ValidationError
from xaidb.explainers.shapley.banzhaf import (
    banzhaf_values,
    banzhaf_values_sampled,
)
from xaidb.explainers.shapley.exact import exact_shapley_values
from xaidb.explainers.shapley.games import Game
from xaidb.explainers.shapley.sampling import permutation_shapley_values
from xaidb.utils.rng import RandomState

__all__ = [
    "QueryFn",
    "BooleanQueryGame",
    "shapley_of_tuples_boolean",
    "shapley_of_tuples",
    "banzhaf_of_tuples_boolean",
]

QueryFn = Callable[[frozenset], float]


class BooleanQueryGame(Game):
    """``v(S) = 1`` iff the provenance is satisfied by S ∪ exogenous."""

    def __init__(
        self,
        provenance: Provenance,
        endogenous: Sequence[Hashable],
        *,
        exogenous: Iterable[Hashable] = (),
    ) -> None:
        super().__init__(len(endogenous))
        self.provenance = provenance
        self.endogenous = list(endogenous)
        self.exogenous = frozenset(exogenous)

    def value(self, coalition) -> float:
        present = self.exogenous | {
            self.endogenous[i] for i in coalition
        }
        return 1.0 if self.provenance.satisfied_by(present) else 0.0


class _NumericQueryGame(Game):
    """``v(S) = query_fn(tuple ids in S)``."""

    def __init__(self, endogenous: Sequence[Hashable], query_fn: QueryFn) -> None:
        super().__init__(len(endogenous))
        self.endogenous = list(endogenous)
        self.query_fn = query_fn

    def value(self, coalition) -> float:
        present = frozenset(self.endogenous[i] for i in coalition)
        return float(self.query_fn(present))


def shapley_of_tuples_boolean(
    provenance: Provenance,
    endogenous: Sequence[Hashable],
    *,
    exogenous: Iterable[Hashable] = (),
    n_permutations: int | None = None,
    random_state: RandomState = None,
) -> dict[Hashable, float]:
    """Shapley value of each endogenous tuple for a boolean query answer.

    Exact enumeration by default; pass ``n_permutations`` to switch to
    Monte-Carlo for many tuples.  A tuple with value 0 plays no role in
    any derivation; values sum to ``v(D) - v(∅)`` (1 when the answer
    holds and requires at least one endogenous tuple).
    """
    if not endogenous:
        raise ValidationError("endogenous tuple list is empty")
    game = BooleanQueryGame(provenance, endogenous, exogenous=exogenous)
    if n_permutations is None:
        phi = exact_shapley_values(game)
    else:
        phi, __ = permutation_shapley_values(
            game, n_permutations, random_state=random_state
        )
    return dict(zip(endogenous, phi.tolist()))


def shapley_of_tuples(
    relation: Relation,
    query_fn: Callable[[Relation], float],
    *,
    endogenous: Sequence[Hashable] | None = None,
    n_permutations: int | None = None,
    random_state: RandomState = None,
) -> dict[Hashable, float]:
    """Shapley value of base tuples for a numeric query over ``relation``.

    ``query_fn`` receives the relation restricted to a coalition's base
    tuples and returns the (scalar) query answer.  ``endogenous`` defaults
    to every base tuple in the relation's lineage.
    """
    tuples = list(endogenous) if endogenous is not None else relation.tuple_ids()
    if not tuples:
        raise ValidationError("relation has no base tuples")
    exogenous = frozenset(relation.tuple_ids()) - frozenset(tuples)

    def evaluate(present: frozenset) -> float:
        return float(query_fn(relation.restrict_to(present | exogenous)))

    game = _NumericQueryGame(tuples, evaluate)
    if n_permutations is None:
        phi = exact_shapley_values(game)
    else:
        phi, __ = permutation_shapley_values(
            game, n_permutations, random_state=random_state
        )
    return dict(zip(tuples, phi.tolist()))


def banzhaf_of_tuples_boolean(
    provenance: Provenance,
    endogenous: Sequence[Hashable],
    *,
    exogenous: Iterable[Hashable] = (),
    n_samples: int | None = None,
    random_state: RandomState = None,
) -> dict[Hashable, float]:
    """Banzhaf value of each endogenous tuple for a boolean query answer —
    the power-index alternative to :func:`shapley_of_tuples_boolean`."""
    if not endogenous:
        raise ValidationError("endogenous tuple list is empty")
    game = BooleanQueryGame(provenance, endogenous, exogenous=exogenous)
    if n_samples is None:
        beta = banzhaf_values(game)
    else:
        beta, __ = banzhaf_values_sampled(
            game, n_samples, random_state=random_state
        )
    return dict(zip(endogenous, beta.tolist()))
