"""A7 (ablation) — the shared evaluation runtime's cost accounting
(DESIGN.md; tutorial §2's "explanations are many model evaluations"
cost claim, made measurable).

Reproduced shape: perturbation explainers are dominated by model
evaluations, so the three runtime levers must show up directly in the
ledger —

1. *memoisation*: repeated/overlapping KernelSHAP coalition workloads
   (the interactive what-if pattern from the tutorial's DB use cases)
   cut model evaluations by >= 2x when calls share a
   :class:`~xaidb.runtime.GameRuntime`, and the saving is exactly
   accounted by ``cache_hit_rate``;
2. *chunking*: ``max_batch_rows`` bounds the peak rows per
   ``predict_fn`` call (the memory ceiling) while leaving the
   attributions bit-identical;
3. *parallelism*: TMC-Shapley with ``n_jobs > 1`` really runs on the
   worker pool (no serial fallback) and returns bitwise the same values
   as the serial run under the same seed, because each permutation
   draws from its own spawned child seed.
"""

import numpy as np

from benchmarks._tables import print_table
from xaidb.data import make_income
from xaidb.datavaluation import UtilityFunction, tmc_shapley_values
from xaidb.explainers.shapley import KernelShapExplainer
from xaidb.models import KNeighborsClassifier
from xaidb.runtime import EvalStats, RuntimeConfig, WorkerPool

# 2^10 - 2 = 1022 coalitions fits the default budget, so every explain
# call enumerates the same exhaustive coalition set — the fully
# overlapping workload of the tutorial's interactive what-if pattern.
D = 10
N_COALITIONS = 2048


class _LedgerPredict:
    """A linear model that records every call's row count."""

    def __init__(self, weights: np.ndarray) -> None:
        self.weights = weights
        self.n_rows = 0
        self.n_calls = 0
        self.peak_rows = 0

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        self.n_rows += X.shape[0]
        self.n_calls += 1
        self.peak_rows = max(self.peak_rows, X.shape[0])
        return X @ self.weights


def _workload():
    rng = np.random.default_rng(70)
    background = rng.normal(size=(25, D))
    instance = rng.normal(size=D)
    weights = rng.normal(size=D)
    return background, instance, weights


def _repeated_workload_rows():
    """The memoisation lever: explain the same instance three times
    (exhaustive enumeration, so the coalition sets coincide exactly —
    the re-requested-explanation workload), cold versus sharing one
    runtime."""
    background, instance, weights = _workload()
    seeds = [0, 1, 2]

    cold = _LedgerPredict(weights)
    explainer = KernelShapExplainer(
        cold, background, n_coalitions=N_COALITIONS
    )
    for seed in seeds:
        explainer.explain(instance, random_state=seed)

    shared = _LedgerPredict(weights)
    explainer = KernelShapExplainer(
        shared, background, n_coalitions=N_COALITIONS
    )
    runtime = explainer.make_runtime(instance)
    hit_rates = [
        explainer.explain(
            instance, random_state=seed, runtime=runtime
        ).metadata["cache_hit_rate"]
        for seed in seeds
    ]
    return cold, shared, hit_rates


def _chunking_row():
    """The memory lever: a max_batch_rows ceiling caps the peak rows per
    predict call, bit-identically."""
    background, instance, weights = _workload()

    unchunked = _LedgerPredict(weights)
    reference = KernelShapExplainer(
        unchunked, background, n_coalitions=N_COALITIONS,
    ).explain(instance, random_state=0)

    max_batch_rows = 512
    chunked = _LedgerPredict(weights)
    bounded = KernelShapExplainer(
        chunked, background, n_coalitions=N_COALITIONS,
        config=RuntimeConfig(max_batch_rows=max_batch_rows),
    ).explain(instance, random_state=0)

    identical = bool(np.array_equal(reference.values, bounded.values))
    return unchunked, chunked, max_batch_rows, identical


def _parallel_tmc_row():
    """The parallelism lever: spawned per-permutation seeds make the
    process-pool run reproduce the serial run bitwise.  A fan-out that
    quietly fell back to serial would match trivially, so the pool must
    also have served the map."""
    workload = make_income(300, random_state=0)
    train, valid = workload.dataset.split(test_fraction=0.4, random_state=1)
    X, y = train.X[:40], train.y[:40]
    utility = UtilityFunction(
        KNeighborsClassifier(n_neighbors=5), valid.X, valid.y
    )
    serial, __ = tmc_shapley_values(
        utility, X, y, n_permutations=16, random_state=0,
    )
    stats = EvalStats()
    maps_before = WorkerPool.get().n_maps
    parallel, __ = tmc_shapley_values(
        utility, X, y, n_permutations=16, random_state=0, n_jobs=2,
        stats=stats,
    )
    pooled = (
        stats.n_serial_fallbacks == 0
        and WorkerPool.get().n_maps > maps_before
    )
    return bool(np.array_equal(serial, parallel)), pooled


def compute_rows():
    cold, shared, hit_rates = _repeated_workload_rows()
    unchunked, chunked, max_batch_rows, identical = _chunking_row()
    tmc_match, tmc_pooled = _parallel_tmc_row()
    rows = [
        ("kernelshap x3, cold cache", cold.n_rows, cold.peak_rows, "-"),
        (
            "kernelshap x3, shared runtime",
            shared.n_rows,
            shared.peak_rows,
            f"{hit_rates[-1]:.2f}",
        ),
        (
            f"kernelshap chunked (max_batch_rows={max_batch_rows})",
            chunked.n_rows,
            chunked.peak_rows,
            "bit-identical" if identical else "DIVERGED",
        ),
        (
            "tmc n_jobs=2 vs serial",
            "-",
            "-",
            ("bit-identical" if tmc_match else "DIVERGED")
            + (", pooled" if tmc_pooled else ", SERIAL FALLBACK"),
        ),
    ]
    context = {
        "cold": cold,
        "shared": shared,
        "unchunked": unchunked,
        "chunked": chunked,
        "max_batch_rows": max_batch_rows,
        "chunk_identical": identical,
        "final_hit_rate": hit_rates[-1],
        "tmc_match": tmc_match,
        "tmc_pooled": tmc_pooled,
    }
    return rows, context


def test_a07_runtime_scaling(benchmark):
    rows, context = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    print_table(
        "A7 (ablation): shared evaluation runtime — memoisation, chunking, "
        "parallelism (paper: explanation cost = model evaluations)",
        ["workload", "model-eval rows", "peak rows/call", "invariant"],
        rows,
    )
    cold, shared = context["cold"], context["shared"]
    # memoisation: repeated workloads cost >= 2x less model evaluation
    assert cold.n_rows >= 2 * shared.n_rows
    # ... and the repeat calls are (almost) pure cache hits
    assert context["final_hit_rate"] > 0.9
    # chunking: the ceiling binds and held
    assert context["unchunked"].peak_rows > context["max_batch_rows"]
    assert context["chunked"].peak_rows <= context["max_batch_rows"]
    assert context["chunk_identical"]
    # parallelism: same seed, same values, pool or not — and the pool ran
    assert context["tmc_match"]
    assert context["tmc_pooled"]
