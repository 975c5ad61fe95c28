"""LIME's stacked pipeline is bitwise the per-instance reference.

``explain_batch`` (and ``explain``, its batch of one) stack distances,
designs and ridge fits over blocks of instances; every result must
equal :func:`tests.explainers.lime_oracle.lime_reference` byte for
byte — values, intercept, prediction, R^2 and the selected features —
whatever the batch size, block boundaries, seed kind, feature budget
or predictor, and ``predict_fn`` must still see one ``(n_samples, d)``
C-contiguous array per instance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xaidb.explainers import LimeExplainer, predict_positive_proba
from xaidb.explainers import lime as lime_module
from xaidb.utils.rng import spawn_seeds

from .lime_oracle import lime_reference


class RecordingPredict:
    """Counts calls and checks each call's array."""

    def __init__(self, predict_fn, n_samples: int, d: int) -> None:
        self.predict_fn = predict_fn
        self.shape = (n_samples, d)
        self.calls = 0

    def __call__(self, X):
        assert X.shape == self.shape
        assert X.flags["C_CONTIGUOUS"]
        self.calls += 1
        return self.predict_fn(X)


def assert_matches_reference(lime, predict_fn, instances, seeds, results):
    assert len(results) == len(instances)
    for instance, seed, got in zip(instances, seeds, results):
        values, intercept, prediction, score, selected = lime_reference(
            lime, predict_fn, instance, seed
        )
        assert got.values.tobytes() == values.tobytes()
        assert got.base_value == intercept
        assert got.prediction == prediction
        assert got.metadata["score"] == score
        assert got.metadata["selected_features"] == selected


def _predictors(income, income_forest, income_logistic):
    return {
        "forest": predict_positive_proba(income_forest),
        "logistic": predict_positive_proba(income_logistic),
    }


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 9),
    block=st.integers(1, 4),
    offset=st.integers(0, 500),
    seed_kind=st.sampled_from(["seeds", "int", "none", "generator"]),
    budget=st.sampled_from([None, 1, 3]),
    model=st.sampled_from(["forest", "logistic"]),
    n_samples=st.sampled_from([10, 37, 64]),
)
def test_batch_is_bitwise_the_reference(
    income, income_forest, income_logistic,
    n, block, offset, seed_kind, budget, model, n_samples,
):
    dataset = income.dataset
    d = dataset.n_features
    assert dataset.categorical_indices  # numeric and categorical columns
    lime = LimeExplainer(
        dataset, n_samples=n_samples, n_features_to_show=budget
    )
    predict_fn = _predictors(income, income_forest, income_logistic)[model]
    recorder = RecordingPredict(predict_fn, n_samples, d)
    instances = dataset.X[offset : offset + n]
    spawned: list[list[int]] = []

    def recording_spawn(random_state, count):
        seeds = spawn_seeds(random_state, count)
        spawned.append(seeds)
        return seeds

    with pytest.MonkeyPatch.context() as patch:
        # blocks of ``block`` instances, so batches straddle boundaries
        patch.setattr(lime_module, "_BLOCK_CELLS", block * n_samples * (d + 1))
        patch.setattr(lime_module, "spawn_seeds", recording_spawn)
        if seed_kind == "seeds":
            seeds = [offset + 7 * i for i in range(n)]
            results = lime.explain_batch(recorder, instances, seeds=seeds)
        elif seed_kind == "int":
            results = lime.explain_batch(recorder, instances, random_state=offset)
        elif seed_kind == "none":
            results = lime.explain_batch(recorder, instances, random_state=None)
        else:
            results = lime.explain_batch(
                recorder, instances, random_state=np.random.default_rng(offset)
            )
    if seed_kind != "seeds":
        (seeds,) = spawned
    if seed_kind == "generator":
        assert seeds == spawn_seeds(np.random.default_rng(offset), n)
    assert recorder.calls == n
    assert lime.batch_stats_.n_model_evals == n * n_samples
    assert all(result.metadata["stacked"] for result in results)
    assert_matches_reference(lime, predict_fn, instances, seeds, results)


def test_batch_straddling_the_real_block_size(income, income_forest):
    dataset = income.dataset
    lime = LimeExplainer(dataset, n_samples=128)
    block = lime_module._BLOCK_CELLS // (128 * (dataset.n_features + 1))
    instances = dataset.X[: block + 1]
    seeds = list(range(100, 100 + len(instances)))
    predict_fn = predict_positive_proba(income_forest)
    results = lime.explain_batch(predict_fn, instances, seeds=seeds)
    assert_matches_reference(lime, predict_fn, instances, seeds, results)


@pytest.mark.parametrize("budget", [None, 2])
def test_explain_is_the_batch_of_one(income, income_logistic, budget):
    """``explain`` with a live generator advances it exactly as the
    reference does, and adds the call's eval-ledger block."""
    dataset = income.dataset
    lime = LimeExplainer(dataset, n_samples=50, n_features_to_show=budget)
    predict_fn = predict_positive_proba(income_logistic)
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    for instance in dataset.X[:3]:
        got = lime.explain(predict_fn, instance, random_state=ours)
        assert_matches_reference(lime, predict_fn, [instance], [theirs], [got])
        assert got.metadata["n_model_evals"] == 50
        assert "stacked" not in got.metadata
    assert ours.random() == theirs.random()
