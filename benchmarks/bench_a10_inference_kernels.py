"""A10 (perf) — vectorized tree-inference kernels (docs/PERFORMANCE.md).

Reproduced shape: perturbation explainers are *model-evaluation-bound*
(the tutorial's central cost claim), so the rows/s of the models under
explanation is the system's throughput ceiling.  The seed implementation
descended trees one Python ``while`` loop per row (``apply_row``, now
the test-side oracle in ``tests/models/rowwise_oracle.py``); the
fixed-depth descent kernels
(:mod:`xaidb.models.tree_kernels`) replace that with a handful of
vectorized steps over a stacked node arena:

1. forest and GBM ``predict``/``predict_proba`` at 10^4 rows are
   >= 10x the row-wise reference in rows/s, bit-identically;
2. a single tree's ``apply`` beats its row-wise loop;
3. the speedup is visible *end to end*: one KernelSHAP call against the
   forest (thousands of hybrid rows through ``predict_proba``) gets
   measurably faster with identical attributions.

Besides the printed table, the run emits ``benchmarks/
BENCH_inference.json`` — machine-readable rows/s before/after — so the
perf trajectory across sessions has a baseline artifact.

``XAIDB_A10_ROWS`` overrides the row count (the ``tools/check.py``
smoke uses a smaller workload; the >= 10x bar applies at >= 10^4 rows,
the smoke asserts a looser >= 4x).
"""

import os
import time
from pathlib import Path

import numpy as np

from benchmarks._tables import merge_bench_record, print_table
from tests.models.rowwise_oracle import apply_rowwise
from xaidb.explainers.shapley import KernelShapExplainer
from xaidb.models import (
    DecisionTreeRegressor,
    GradientBoostedRegressor,
    RandomForestClassifier,
)

N_ROWS = int(os.environ.get("XAIDB_A10_ROWS", "10000"))
N_FEATURES = 8
#: the acceptance bar is >= 10x at the full 10^4-row workload; smoke
#: runs on smaller batches clear a looser bar (kernel advantage grows
#: with batch size).
MIN_ENSEMBLE_SPEEDUP = 10.0 if N_ROWS >= 10_000 else 4.0


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _fit_models():
    rng = np.random.default_rng(100)
    X = rng.normal(size=(1500, N_FEATURES))
    y_reg = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=1500)
    y_clf = (y_reg > 0).astype(int)
    tree = DecisionTreeRegressor(max_depth=8, random_state=0).fit(X, y_reg)
    forest = RandomForestClassifier(
        n_estimators=20, max_depth=6, random_state=1
    ).fit(X, y_clf)
    gbm = GradientBoostedRegressor(
        n_estimators=30, max_depth=3, random_state=2
    ).fit(X, y_reg)
    X_eval = rng.normal(size=(N_ROWS, N_FEATURES))
    return tree, forest, gbm, X_eval


# ----------------------------------------------------- row-wise references
def _forest_proba_rowwise(forest, X):
    """The historical per-tree realignment loop over the row-wise apply."""
    total = np.zeros((X.shape[0], len(forest.classes_)))
    for estimator in forest.estimators_:
        leaves = apply_rowwise(estimator.tree_, X)
        codes = np.asarray(estimator.classes_, dtype=int)
        total[:, codes] += estimator.tree_.value[leaves]
    return total / len(forest.estimators_)


def _gbm_predict_rowwise(gbm, X):
    raw = np.full(X.shape[0], gbm.init_score_)
    for stage in gbm.trees_:
        leaves = apply_rowwise(stage.tree_, X)
        raw += gbm.learning_rate * stage.tree_.value[leaves, 0]
    return raw


def _kernelshap_seconds(forest, X_eval, proba_fn):
    """One KernelSHAP call whose model evaluations go through
    ``proba_fn`` — the end-to-end view of the inference kernels."""
    background = X_eval[:20]
    instance = X_eval[42]
    explainer = KernelShapExplainer(
        lambda X: proba_fn(forest, X)[:, 1],
        background,
        n_coalitions=128,
    )
    attribution, seconds = _timed(
        lambda: explainer.explain(instance, random_state=0)
    )
    return attribution, seconds


def compute_rows():
    tree, forest, gbm, X_eval = _fit_models()

    workloads = []  # (label, before_s, after_s, identical)
    leaves_before, tree_before = _timed(apply_rowwise, tree.tree_, X_eval)
    leaves_after, tree_after = _timed(tree.tree_.apply, X_eval)
    workloads.append((
        "tree apply (depth<=8)", tree_before, tree_after,
        bool(np.array_equal(leaves_before, leaves_after)),
    ))

    proba_before, forest_before = _timed(
        _forest_proba_rowwise, forest, X_eval
    )
    proba_after, forest_after = _timed(forest.predict_proba, X_eval)
    workloads.append((
        "forest predict_proba (20 trees)", forest_before, forest_after,
        bool(np.array_equal(proba_before, proba_after)),
    ))

    raw_before, gbm_before = _timed(_gbm_predict_rowwise, gbm, X_eval)
    raw_after, gbm_after = _timed(gbm.predict, X_eval)
    workloads.append((
        "gbm predict (30 stages)", gbm_before, gbm_after,
        bool(np.array_equal(raw_before, raw_after)),
    ))

    shap_before, e2e_before = _kernelshap_seconds(
        forest, X_eval, _forest_proba_rowwise
    )
    shap_after, e2e_after = _kernelshap_seconds(
        forest, X_eval, lambda model, X: model.predict_proba(X)
    )
    # the explainer's own ledger knows how many hybrid rows it scored
    e2e_rows = int(shap_after.metadata["n_model_evals"])
    workloads.append((
        "end-to-end kernelshap (128 coalitions)", e2e_before, e2e_after,
        bool(np.allclose(shap_before.values, shap_after.values,
                         atol=1e-12, rtol=0.0)),
    ))

    rows = []
    record = {"n_rows": N_ROWS, "n_features": N_FEATURES, "workloads": {}}
    for label, before_s, after_s, identical in workloads:
        n_rows = e2e_rows if label.startswith("end-to-end") else N_ROWS
        speedup = before_s / after_s if after_s > 0 else float("inf")
        rows.append((
            label,
            f"{n_rows / before_s:,.0f}",
            f"{n_rows / after_s:,.0f}",
            f"{speedup:.1f}x",
            "bit-identical" if identical else "DIVERGED",
        ))
        record["workloads"][label] = {
            "before_s": before_s,
            "after_s": after_s,
            "n_rows": n_rows,
            "rows_per_s_before": n_rows / before_s,
            "rows_per_s_after": n_rows / after_s,
            "speedup": speedup,
            "identical": identical,
        }
    if N_ROWS >= 10_000:  # smoke runs must not overwrite the baseline
        out_path = Path(__file__).resolve().parent / "BENCH_inference.json"
        merge_bench_record(out_path, "a10_inference", record)
    return rows, record


def test_a10_inference_kernels(benchmark):
    rows, record = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    print_table(
        f"A10 (perf): vectorized tree-inference kernels vs row-wise "
        f"reference ({N_ROWS:,} rows; paper: explanation cost = model "
        f"evaluations)",
        ["workload", "rows/s before", "rows/s after", "speedup",
         "invariant"],
        rows,
    )
    workloads = record["workloads"]
    # every kernel path reproduces its row-wise reference exactly
    assert all(w["identical"] for w in workloads.values())
    # the ensemble kernels clear the acceptance bar
    forest = workloads["forest predict_proba (20 trees)"]
    gbm = workloads["gbm predict (30 stages)"]
    assert forest["speedup"] >= MIN_ENSEMBLE_SPEEDUP
    assert gbm["speedup"] >= MIN_ENSEMBLE_SPEEDUP
    # a single tree also wins (smaller margin: one tree, less batching)
    assert workloads["tree apply (depth<=8)"]["speedup"] > 1.5
    # ... and the win survives end to end through KernelSHAP
    e2e = workloads["end-to-end kernelshap (128 coalitions)"]
    assert e2e["speedup"] > 1.2
