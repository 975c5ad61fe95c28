"""E18 — Complaint-driven debugging + incremental deletion
(Wu et al. 2020 "Rain" recall shape; Wu, Tannen & Davidson 2020 "PrIU"
speedup table; Schelter et al. 2021 "HedgeCut" unlearning latency).

Reproduced shapes:

- complaint-driven influence ranking recovers planted corrupted training
  rows far above the random baseline (recall@k curve);
- PrIU-style incremental deletion matches full retraining to numerical
  precision for linear models (exact, timed on 20,000 rows where the
  n-independent update shows) and to ~1e-3 for logistic (1 warm Newton
  step), at a large speedup;
- HedgeCut-style unlearning deletes a point orders of magnitude faster
  than retraining the forest.
"""

import time

import numpy as np

from benchmarks._tables import print_table


def _best_of(n, setup, timed):
    """Minimum wall-clock of ``timed(state)`` over ``n`` fresh ``setup()``
    states — standard noise suppression for sub-millisecond timing
    assertions (setup cost is excluded)."""
    best = float("inf")
    for __ in range(n):
        state = setup()
        start = time.perf_counter()
        timed(state)
        best = min(best, time.perf_counter() - start)
    return best
from xaidb.data import make_income
from xaidb.db import Complaint, ComplaintDebugger
from xaidb.incremental import (
    IncrementalLinearRegression,
    IncrementalLogisticRegression,
    UnlearnableExtraTrees,
)
from xaidb.models import LinearRegression, LogisticRegression

K_VALUES = [20, 40, 80, 160]
N_CORRUPT = 40
#: Training rows for the timed PrIU linear deletion (see compute_rows).
LINEAR_ROWS = 20_000


def compute_rows():
    workload = make_income(700, random_state=0)
    X, y = workload.dataset.X.copy(), workload.dataset.y.copy()
    rng = np.random.default_rng(1)
    # xailint: disable=XDB006 (labels are exact 0.0/1.0 floats)
    negatives = np.flatnonzero(y == 0.0)
    corrupted = rng.choice(negatives, size=N_CORRUPT, replace=False)
    y[corrupted] = 1.0

    # --- complaint-driven debugging ---
    model = LogisticRegression(l2=1e-2).fit(X, y)
    debugger = ComplaintDebugger(model, X, y, X)
    complaint = Complaint(
        query_rows=np.arange(len(X)), direction=-1,
        description="positive rate too high",
    )
    ranking = debugger.rank_training_points(complaint)
    recall_rows = []
    for k in K_VALUES:
        influence_recall = debugger.recall_at_k(ranking, corrupted, k)
        random_recall = float(
            np.mean(
                [
                    debugger.recall_at_k(
                        np.random.default_rng(s).permutation(len(y)),
                        corrupted,
                        k,
                    )
                    for s in range(10)
                ]
            )
        )
        recall_rows.append((k, influence_recall, random_recall))

    # --- incremental deletion vs retrain ---
    deletion_rows = []
    blamed = ranking[:N_CORRUPT].tolist()

    # PrIU's linear update costs O(k d^2) for k deleted rows whatever the
    # training-set size, a retrain O(n d^2): on the debugging set above
    # the two tie, so the linear deletion runs on a larger training set.
    big_X = make_income(LINEAR_ROWS, random_state=0).dataset.X
    linear_rng = np.random.default_rng(2)
    linear_y = big_X @ linear_rng.normal(size=big_X.shape[1])
    linear_y += 0.1 * linear_rng.normal(size=len(big_X))
    deleted = linear_rng.choice(len(big_X), size=N_CORRUPT, replace=False)
    linear_keep = np.setdiff1d(np.arange(len(big_X)), deleted)
    linear_incremental_s = _best_of(
        3,
        lambda: IncrementalLinearRegression().fit(big_X, linear_y),
        lambda inc: inc.delete_rows(deleted),
    )
    linear_retrain_s = _best_of(
        3,
        lambda: None,
        lambda __: LinearRegression().fit(
            big_X[linear_keep], linear_y[linear_keep]
        ),
    )
    incremental_linear = IncrementalLinearRegression().fit(big_X, linear_y)
    incremental_linear.delete_rows(deleted)
    linear_error = float(
        np.abs(
            incremental_linear.coef_
            - incremental_linear.retrained_reference().coef_
        ).max()
    )
    deletion_rows.append(
        ("linear (PrIU exact)", linear_incremental_s, linear_retrain_s,
         linear_retrain_s / max(linear_incremental_s, 1e-9), linear_error)
    )

    keep = np.setdiff1d(np.arange(len(y)), blamed)
    logistic_incremental_s = _best_of(
        3,
        lambda: IncrementalLogisticRegression(l2=1e-2, refine_steps=2).fit(X, y),
        lambda inc: inc.delete_rows(blamed),
    )
    logistic_retrain_s = _best_of(
        3,
        lambda: None,
        lambda __: LogisticRegression(l2=1e-2).fit(X[keep], y[keep]),
    )
    incremental_logistic = IncrementalLogisticRegression(
        l2=1e-2, refine_steps=2
    ).fit(X, y)
    incremental_logistic.delete_rows(blamed)
    logistic_error = float(
        np.abs(
            incremental_logistic.theta_
            - incremental_logistic.retrained_reference().theta_
        ).max()
    )
    deletion_rows.append(
        ("logistic (2 warm Newton)", logistic_incremental_s,
         logistic_retrain_s,
         logistic_retrain_s / max(logistic_incremental_s, 1e-9),
         logistic_error)
    )

    # --- unlearning latency ---
    forest = UnlearnableExtraTrees(
        n_estimators=8, max_depth=6, random_state=0
    ).fit(X[:300], y[:300])
    start = time.perf_counter()
    regrows = sum(forest.forget(i) for i in range(10))
    forget_s = (time.perf_counter() - start) / 10
    forest_retrain_s = _best_of(
        2,
        lambda: None,
        lambda __: UnlearnableExtraTrees(
            n_estimators=8, max_depth=6, random_state=0
        ).fit(X[1:300], y[1:300]),
    )
    deletion_rows.append(
        ("extra trees (HedgeCut forget)", forget_s, forest_retrain_s,
         forest_retrain_s / max(forget_s, 1e-9), float(regrows))
    )
    return recall_rows, deletion_rows


def test_e18_debugging_unlearning(benchmark):
    recall_rows, deletion_rows = benchmark.pedantic(
        compute_rows, rounds=1, iterations=1
    )
    print_table(
        "E18a: complaint-driven corrupted-row recall@k (paper: influence "
        "ranking >> random)",
        ["k", "influence recall", "random recall"],
        recall_rows,
    )
    print_table(
        "E18b: deletion latency — incremental vs retrain (last column: "
        "max parameter error, or regrow count for trees)",
        ["model", "incremental s", "retrain s", "speedup", "error / regrows"],
        deletion_rows,
    )
    # influence beats random at every k
    for __, influence_recall, random_recall in recall_rows:
        assert influence_recall > random_recall
    by_name = {row[0]: row for row in deletion_rows}
    # PrIU linear is numerically exact
    assert by_name["linear (PrIU exact)"][4] < 1e-8
    # incremental updates are faster than retraining
    assert by_name["linear (PrIU exact)"][3] > 1.0
    assert by_name["extra trees (HedgeCut forget)"][3] > 1.0
    # warm-started logistic is close to the retrain optimum
    assert by_name["logistic (2 warm Newton)"][4] < 1e-2
