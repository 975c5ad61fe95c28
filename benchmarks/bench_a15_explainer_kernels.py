"""A15 (perf) — vectorized explainer kernels (docs/PERFORMANCE.md).

Where A10 vectorized the *models under explanation*, A15 vectorizes the
*explainers themselves*:

1. leaf-lane path-dependent TreeSHAP
   (:func:`~xaidb.explainers.shapley.tree_shap_kernels.ensemble_path_dependent_shap`)
   explains 10^4 rows of a forest and a GBM >= 5x faster than the
   per-row recursion (``path_dependent_tree_shap`` from the test oracle
   ``tests/explainers/shapley/tree_oracle.py``, summed over the
   explainer's terms), bit-identically (the recursion
   is timed on a subsample and extrapolated by rows/s — at 10^4 rows it
   would dominate the whole benchmark run).  The same kernel serves
   small batches: batch-of-one (``explain``) and batch-16 rows time it
   per row against the recursion, and the batch-of-one kernel must not
   be slower than the recursion even in the smoke run (the gate
   ``tools/check.py`` runs).  An unbounded-depth forest at 1,600 rows
   covers deep trees;
2. the stacked KernelSHAP batch path
   (:meth:`~xaidb.explainers.shapley.kernel.KernelShapExplainer.explain_batch`)
   clears >= 2x over the per-instance pipeline — ``explain`` with a
   cached ``make_runtime`` runtime per instance — in the exhaustive
   regime (shared design arena, one base evaluation, no per-instance
   cache hashing, one Cholesky per mask set) and stays bitwise
   identical in the sampled regime too.

The run merges its workloads into ``benchmarks/BENCH_inference.json``
under the ``"a15_explainer_kernels"`` key, preserving A10's rows.

``XAIDB_A15_SMOKE=1`` shrinks every workload and loosens the speedup
bars (CI smoke); the acceptance bars apply to the full run.
"""

import os
import time
from pathlib import Path

import numpy as np

from benchmarks._tables import merge_bench_record, print_table
from tests.explainers.shapley.tree_oracle import path_dependent_tree_shap
from xaidb.explainers.shapley import (
    KernelShapExplainer,
    TreeShapExplainer,
)
from xaidb.explainers.shapley.coalitions import clear_design_cache
from xaidb.models import (
    GradientBoostedRegressor,
    LogisticRegression,
    RandomForestClassifier,
)
from xaidb.utils.rng import spawn_seeds

SMOKE = os.environ.get("XAIDB_A15_SMOKE", "0") == "1"

#: TreeSHAP workload: rows explained by the batch kernel.
N_ROWS = 600 if SMOKE else 10_000
#: rows the per-row recursion reference is actually timed on
#: (extrapolated to N_ROWS by rows/s; bitwise checked on this slice)
N_REFERENCE_ROWS = 60 if SMOKE else 200
#: KernelSHAP workload: instances per batch.
N_INSTANCES = 24 if SMOKE else 160
N_BACKGROUND = 20
N_FEATURES = 8
#: rows explained one call at a time (batch-of-one) or in calls of
#: SMALL_BATCH rows, each against the recursion on the same rows
N_SMALL_ROWS = 32 if SMOKE else 160
SMALL_BATCH = 16
#: the unbounded-depth forest workload's row count
N_DEEP_ROWS = 400 if SMOKE else 1600

MIN_TREE_SPEEDUP = 2.0 if SMOKE else 5.0
MIN_KERNEL_SPEEDUP = 1.2 if SMOKE else 2.0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _fit_models():
    rng = np.random.default_rng(200)
    X = rng.normal(size=(1500, N_FEATURES))
    y_reg = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=1500)
    y_clf = (y_reg > 0).astype(int)
    forest = RandomForestClassifier(
        n_estimators=20, max_depth=6, random_state=1
    ).fit(X, y_clf)
    gbm = GradientBoostedRegressor(
        n_estimators=30, max_depth=3, random_state=2
    ).fit(X, y_reg)
    logistic = LogisticRegression(l2=1e-2).fit(X, y_clf)
    deep = RandomForestClassifier(
        n_estimators=8, max_depth=None, random_state=3
    ).fit(X[:400], y_clf[:400])
    X_eval = rng.normal(size=(N_ROWS, N_FEATURES))
    return forest, gbm, logistic, deep, X_eval


def _recursion(explainer, x):
    """The per-row recursion summed over the explainer's terms
    in term order — the "before" path and the exactness oracle."""
    phi = np.zeros(x.shape[0])
    for tree, leaf_values, scale in explainer.terms_:
        phi += scale * path_dependent_tree_shap(
            tree, leaf_values, x, x.shape[0]
        )
    return phi


def _tree_shap_workload(label, model, X_eval, batch_size=None):
    """The kernel vs the per-row recursion on a subsample, extrapolated
    to the full row count by rows/s.  ``batch_size=None`` explains all
    rows in one call; otherwise in calls of ``batch_size`` rows
    (``1`` goes through ``explain``)."""
    explainer = TreeShapExplainer(model)
    explainer.explain_batch(X_eval[:1])  # pack and plan outside the timing
    n_rows = X_eval.shape[0]
    if batch_size is None:
        batch, after_s = _timed(lambda: explainer.explain_batch(X_eval))
    elif batch_size == 1:
        batch, after_s = _timed(lambda: [explainer.explain(x) for x in X_eval])
    else:
        batch, after_s = _timed(
            lambda: [
                attribution
                for start in range(0, n_rows, batch_size)
                for attribution in explainer.explain_batch(
                    X_eval[start : start + batch_size]
                )
            ]
        )

    n_reference = min(N_REFERENCE_ROWS, n_rows)
    reference_rows = X_eval[:n_reference]
    per_row, reference_s = _timed(
        lambda: [_recursion(explainer, row) for row in reference_rows]
    )
    before_s = reference_s * (n_rows / n_reference)
    identical = all(
        np.array_equal(batch[i].values, per_row[i]) for i in range(n_reference)
    )
    return {
        "label": label,
        "n_rows": n_rows,
        "batch_size": n_rows if batch_size is None else batch_size,
        "before_s": before_s,
        "after_s": after_s,
        "rows_per_s_before": n_rows / before_s,
        "rows_per_s_after": n_rows / after_s,
        "speedup": before_s / after_s,
        "identical": bool(identical),
        "reference_rows_timed": n_reference,
    }


def _kernel_shap_workload(label, predict_fn, X_eval, n_coalitions, seed):
    """Stacked batch vs the per-instance pipeline — one ``explain`` per
    instance through its own cached ``make_runtime`` runtime, hashing
    every mask into a fresh memo cache — both run in full (no
    extrapolation) over the same instances and seeds."""
    background = X_eval[:N_BACKGROUND]
    instances = X_eval[N_BACKGROUND : N_BACKGROUND + N_INSTANCES]
    clear_design_cache()
    serial_explainer = KernelShapExplainer(
        predict_fn, background, n_coalitions=n_coalitions
    )
    seeds = spawn_seeds(seed, N_INSTANCES)
    serial, before_s = _timed(
        lambda: [
            serial_explainer.explain(
                x, random_state=s, runtime=serial_explainer.make_runtime(x)
            )
            for x, s in zip(instances, seeds)
        ]
    )
    clear_design_cache()
    stacked_explainer = KernelShapExplainer(
        predict_fn, background, n_coalitions=n_coalitions
    )
    stacked, after_s = _timed(
        lambda: stacked_explainer.explain_batch(instances, random_state=seed)
    )
    identical = all(
        np.array_equal(s.values, b.values) for s, b in zip(serial, stacked)
    )
    return {
        "label": label,
        "n_rows": N_INSTANCES,
        "before_s": before_s,
        "after_s": after_s,
        "rows_per_s_before": N_INSTANCES / before_s,
        "rows_per_s_after": N_INSTANCES / after_s,
        "speedup": before_s / after_s,
        "identical": bool(identical),
        "n_coalitions": n_coalitions,
    }


def compute_rows():
    forest, gbm, logistic, deep, X_eval = _fit_models()
    small = X_eval[:N_SMALL_ROWS]
    depth = max(tree.tree_.max_depth() for tree in deep.estimators_)

    def logistic_predict(Z):
        return logistic.predict_proba(Z)[:, 1]

    workloads = [
        _tree_shap_workload(
            "tree_shap batch, forest (20 trees)", forest, X_eval
        ),
        _tree_shap_workload(
            "tree_shap batch, gbm (30 stages)", gbm, X_eval
        ),
        _tree_shap_workload(
            "tree_shap batch-of-one, forest (20 trees)", forest, small, 1
        ),
        _tree_shap_workload(
            "tree_shap batch-of-one, gbm (30 stages)", gbm, small, 1
        ),
        _tree_shap_workload(
            f"tree_shap batch-{SMALL_BATCH}, forest (20 trees)",
            forest,
            small,
            SMALL_BATCH,
        ),
        _tree_shap_workload(
            f"tree_shap batch-{SMALL_BATCH}, gbm (30 stages)",
            gbm,
            small,
            SMALL_BATCH,
        ),
        _tree_shap_workload(
            f"tree_shap batch, unbounded-depth forest (8 trees, depth {depth})",
            deep,
            X_eval[:N_DEEP_ROWS],
        ),
        _kernel_shap_workload(
            "kernel_shap stacked, exhaustive (254 masks)",
            logistic_predict,
            X_eval,
            n_coalitions=2**N_FEATURES - 2,
            seed=0,
        ),
        _kernel_shap_workload(
            "kernel_shap stacked, sampled (64 masks)",
            logistic_predict,
            X_eval,
            n_coalitions=64,
            seed=0,
        ),
    ]

    rows = []
    record = {
        "n_rows": N_ROWS,
        "n_instances": N_INSTANCES,
        "n_features": N_FEATURES,
        "workloads": {},
    }
    for w in workloads:
        rows.append((
            w["label"],
            f"{w['rows_per_s_before']:,.0f}",
            f"{w['rows_per_s_after']:,.0f}",
            f"{w['speedup']:.1f}x",
            "bit-identical" if w["identical"] else "DIVERGED",
        ))
        record["workloads"][w["label"]] = {
            k: v for k, v in w.items() if k != "label"
        }
    if not SMOKE:  # smoke runs must not overwrite the baseline
        out_path = Path(__file__).resolve().parent / "BENCH_inference.json"
        merge_bench_record(out_path, "a15_explainer_kernels", record)
    return rows, record


def test_a15_explainer_kernels(benchmark):
    rows, record = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    print_table(
        f"A15 (perf): vectorized explainer kernels vs retained per-row/"
        f"per-instance references ({N_ROWS:,} TreeSHAP rows, "
        f"{N_INSTANCES} KernelSHAP instances)",
        ["workload", "rows/s before", "rows/s after", "speedup",
         "invariant"],
        rows,
    )
    workloads = record["workloads"]
    # every vectorized path reproduces its retained reference exactly
    assert all(w["identical"] for w in workloads.values())
    # batched TreeSHAP clears the acceptance bar on both ensembles
    assert workloads[
        "tree_shap batch, forest (20 trees)"
    ]["speedup"] >= MIN_TREE_SPEEDUP
    assert workloads[
        "tree_shap batch, gbm (30 stages)"
    ]["speedup"] >= MIN_TREE_SPEEDUP
    # one kernel serves single rows: at batch one it must not be slower
    # than the per-row recursion it replaced in ``explain``
    for label, w in workloads.items():
        if label.startswith("tree_shap batch-of-one"):
            assert w["after_s"] <= w["before_s"], label
    # stacked KernelSHAP clears its bar in the exhaustive regime (the
    # serving default for small d) and never regresses when sampling
    exhaustive = workloads["kernel_shap stacked, exhaustive (254 masks)"]
    sampled = workloads["kernel_shap stacked, sampled (64 masks)"]
    assert exhaustive["speedup"] >= MIN_KERNEL_SPEEDUP
    assert sampled["speedup"] >= (0.8 if SMOKE else 1.0)
