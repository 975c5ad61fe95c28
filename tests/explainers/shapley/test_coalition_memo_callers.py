"""Every estimator that accepts or builds a raw game memoises it in
:class:`~xaidb.runtime.GameRuntime`.

Each case runs once through the production runtime and once with
``GameRuntime.wrap`` swapped for a plain-dict memo oracle (frozenset keys,
unbounded).  The two must return bitwise-equal values, call the counted
game with the same sequence of coalitions, and call it once per distinct
coalition the estimator requested.
"""

from __future__ import annotations

import numpy as np
import pytest

from xaidb.db import (
    FunctionalDependency,
    Provenance,
    Relation,
    aggregate,
    banzhaf_of_tuples_boolean,
    repair_blame,
    shapley_of_tuples,
    shapley_of_tuples_boolean,
)
from xaidb.db.repairs import _InconsistencyGame
from xaidb.db.sql_shapley import BooleanQueryGame
from xaidb.explainers.shapley import (
    QIIExplainer,
    banzhaf_values,
    banzhaf_values_sampled,
    exact_shapley_values,
    permutation_shapley_values,
)
from xaidb.explainers.shapley.games import FunctionGame
from xaidb.runtime import GameRuntime


class _DictMemo:
    """The oracle: a plain-dict coalition memo over ``game``."""

    def __init__(self, game):
        self.game = game
        self.n_players = game.n_players
        self.memo: dict[frozenset, float] = {}

    def value(self, coalition):
        key = frozenset(int(p) for p in coalition)
        if key not in self.memo:
            self.memo[key] = float(self.game.value(key))
        return self.memo[key]

    def values_batch(self, masks):
        return np.asarray([self.value(np.flatnonzero(m)) for m in masks])

    def grand_value(self):
        return self.value(range(self.n_players))

    def empty_value(self):
        return self.value(())


def _weights_game(n, seen):
    weights = np.random.default_rng(n).normal(size=n)

    def v(coalition):
        seen.append(coalition)
        return float(sum(weights[i] for i in sorted(coalition)) ** 2)

    return FunctionGame(n, v)


_UNCOUNTED: dict[type, object] = {}


def _count_method(monkeypatch, cls, seen):
    real = _UNCOUNTED.setdefault(cls, cls.value)

    def value(self, coalition):
        coalition = frozenset(int(p) for p in coalition)
        seen.append(coalition)
        return real(self, coalition)

    monkeypatch.setattr(cls, "value", value)


def _exact(monkeypatch, seen):
    return exact_shapley_values(_weights_game(7, seen))


def _permutation(monkeypatch, seen):
    return permutation_shapley_values(
        _weights_game(7, seen), 40, random_state=3
    )


def _banzhaf(monkeypatch, seen):
    return banzhaf_values(_weights_game(7, seen))


def _banzhaf_sampled(monkeypatch, seen):
    return banzhaf_values_sampled(_weights_game(9, seen), 60, random_state=5)


def _qii(monkeypatch, seen):
    rng = np.random.default_rng(11)
    weights = rng.normal(size=5)

    def predict(X):
        seen.append(np.asarray(X).tobytes())
        return np.tanh(X @ weights)

    attribution = QIIExplainer(predict, rng.normal(size=(6, 5))).shapley_qii(
        rng.normal(size=5), n_permutations=30, random_state=2
    )
    return (
        attribution.values,
        attribution.base_value,
        attribution.prediction,
        attribution.metadata["standard_errors"],
    )


def _repair_relation():
    return Relation.from_dicts(
        "t",
        [
            {"zip": "10001", "city": "NY"},
            {"zip": "10001", "city": "LA"},
            {"zip": "10001", "city": "NY"},
            {"zip": "90210", "city": "LA"},
            {"zip": "90210", "city": "SF"},
            {"zip": "60601", "city": "CH"},
        ],
    )


def _repair_blame(monkeypatch, seen):
    _count_method(monkeypatch, _InconsistencyGame, seen)
    fd = FunctionalDependency(lhs=("zip",), rhs=("city",))
    blame = repair_blame(_repair_relation(), [fd])
    sampled = repair_blame(
        _repair_relation(), [fd], n_permutations=20, random_state=1
    )
    return list(blame.values()) + list(sampled.values())


_PROVENANCE = Provenance([{"d", "e1"}, {"d", "e2"}, {"e1", "e3", "e4"}])
_TUPLES = ["d", "e1", "e2", "e3", "e4"]


def _sql_boolean(monkeypatch, seen):
    _count_method(monkeypatch, BooleanQueryGame, seen)
    exact = shapley_of_tuples_boolean(_PROVENANCE, _TUPLES)
    sampled = shapley_of_tuples_boolean(
        _PROVENANCE, _TUPLES, n_permutations=25, random_state=4
    )
    return list(exact.values()) + list(sampled.values())


def _sql_numeric(monkeypatch, seen):
    sales = Relation.from_dicts(
        "sales", [{"amount": float(a)} for a in (10, 25, 5, 40, 15)]
    )

    def query(relation):
        seen.append(frozenset(relation.tuple_ids()))
        return aggregate(relation, "avg", "amount") if len(relation) else 0.0

    exact = shapley_of_tuples(sales, query)
    sampled = shapley_of_tuples(
        sales, query, n_permutations=25, random_state=6
    )
    return list(exact.values()) + list(sampled.values())


def _banzhaf_of_tuples(monkeypatch, seen):
    _count_method(monkeypatch, BooleanQueryGame, seen)
    exact = banzhaf_of_tuples_boolean(_PROVENANCE, _TUPLES)
    sampled = banzhaf_of_tuples_boolean(
        _PROVENANCE, _TUPLES, n_samples=40, random_state=7
    )
    return list(exact.values()) + list(sampled.values())


_CASES = {
    "exact_shapley_values": _exact,
    "permutation_shapley_values": _permutation,
    "banzhaf_values": _banzhaf,
    "banzhaf_values_sampled": _banzhaf_sampled,
    "shapley_qii": _qii,
    "repair_blame": _repair_blame,
    "shapley_of_tuples_boolean": _sql_boolean,
    "shapley_of_tuples": _sql_numeric,
    "banzhaf_of_tuples_boolean": _banzhaf_of_tuples,
}


def _flatten(result):
    if isinstance(result, tuple):
        return [np.asarray(part, dtype=float) for part in result]
    return [np.asarray(result, dtype=float)]


@pytest.mark.parametrize("case", sorted(_CASES))
def test_runtime_matches_dict_memo_oracle(case, monkeypatch):
    run = _CASES[case]

    seen_runtime: list = []
    got = _flatten(run(monkeypatch, seen_runtime))

    memos: list[_DictMemo] = []

    def oracle_wrap(cls, game):
        if isinstance(game, _DictMemo):
            return game
        memos.append(_DictMemo(game))
        return memos[-1]

    monkeypatch.setattr(GameRuntime, "wrap", classmethod(oracle_wrap))
    seen_oracle: list = []
    want = _flatten(run(monkeypatch, seen_oracle))

    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
    assert memos, "the caller never wrapped its game"
    assert seen_runtime == seen_oracle
    assert len(seen_runtime) == sum(len(memo.memo) for memo in memos)
