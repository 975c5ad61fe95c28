"""KernelSHAP (Lundberg & Lee 2017).

Shapley values are the solution of a specific weighted linear regression:
fit an additive surrogate ``g(z) = phi_0 + sum_i phi_i z_i`` over coalition
indicator vectors ``z``, weighting each coalition by the Shapley kernel
``(d-1) / (C(d,|z|) |z| (d-|z|))``.  The empty and grand coalitions carry
infinite weight, so we enforce them as *exact* constraints:
``phi_0 = v(empty)`` and ``sum_i phi_i = v(full) - v(empty)`` (the latter
by variable elimination).  This is the ablation DESIGN.md calls out —
penalised variants trade exact efficiency for numerical convenience; we
keep the axiom exact.

With few features every coalition is enumerated and the result equals the
exact Shapley value (up to the background approximation); with many
features coalitions are sampled in complementary pairs, size-stratified by
the kernel distribution.

``explain`` and ``explain_batch`` run one pipeline over one
:class:`~xaidb.runtime.GameRuntime` per instance; ``explain`` is the
batch of one.
"""

from __future__ import annotations

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.explainers.base import Explainer, FeatureAttribution, PredictFn
from xaidb.explainers.shapley.coalitions import kernel_shap_design
from xaidb.explainers.shapley.games import MarginalImputationGame
from xaidb.runtime import EvalStats, GameRuntime, RuntimeConfig
from xaidb.utils.linalg import solve_psd_batched
from xaidb.utils.rng import RandomState, spawn_seeds
from xaidb.utils.validation import check_array

__all__ = ["KernelShapExplainer"]


class KernelShapExplainer(Explainer):
    """Model-agnostic SHAP via the Shapley-kernel weighted regression.

    Parameters
    ----------
    predict_fn:
        Scalar model output to explain.
    background:
        Reference rows for the marginal-imputation value function.
    n_coalitions:
        Sampling budget when exhaustive enumeration (``2^d - 2``
        coalitions) would exceed it.
    l2:
        Tiny ridge stabiliser for the (possibly rank-deficient) sampled
        regression; does not affect the enforced constraints.
    config:
        Shared-runtime settings, defaulting to
        :class:`~xaidb.runtime.RuntimeConfig`'s defaults:
        ``max_batch_rows`` chunks every explanation's model calls.  The
        coalition memo applies only to runtimes built by
        :meth:`make_runtime`.
    """

    def __init__(
        self,
        predict_fn: PredictFn,
        background: np.ndarray,
        *,
        n_coalitions: int = 2048,
        l2: float = 1e-10,
        feature_names: list[str] | None = None,
        config: RuntimeConfig | None = None,
    ) -> None:
        if n_coalitions < 4:
            raise ValidationError("n_coalitions must be at least 4")
        self.predict_fn = predict_fn
        self.background = check_array(background, name="background", ndim=2)
        self.n_coalitions = n_coalitions
        self.l2 = l2
        self.feature_names = feature_names
        self.config = config or RuntimeConfig()
        #: Shared ledger of the most recent :meth:`explain_batch` call.
        self.batch_stats_: EvalStats | None = None

    # ------------------------------------------------------------------
    def make_runtime(
        self,
        instance: np.ndarray,
        *,
        stats: EvalStats | None = None,
    ) -> GameRuntime:
        """A runtime for repeated explanations of one instance.

        Pass the result to :meth:`explain` via ``runtime=`` to share the
        coalition cache across calls (interactive workloads re-request
        the same explanation with different budgets/visualisations);
        its :attr:`~xaidb.runtime.GameRuntime.stats` accumulate across
        those calls while each attribution's metadata reports per-call
        deltas.  ``stats`` threads in an external ledger (e.g. one
        shared across a batch) instead of a fresh one.  This is the only
        way the memo cache reaches KernelSHAP: a single explanation's
        design is duplicate-free, so only repeated calls can hit.
        """
        instance = check_array(instance, name="instance", ndim=1)
        return self._runtime(instance, stats, cache=True)

    def _runtime(
        self,
        instance: np.ndarray,
        stats: EvalStats | None,
        *,
        cache: bool,
    ) -> GameRuntime:
        return GameRuntime(
            MarginalImputationGame(self.predict_fn, instance, self.background),
            config=self.config,
            stats=stats,
            cache=cache,
        )

    def explain(
        self,
        instance: np.ndarray,
        *,
        random_state: RandomState = None,
        runtime: GameRuntime | None = None,
    ) -> FeatureAttribution:
        """Explain one instance: :meth:`explain_batch`'s pipeline at
        batch size one.  Without ``runtime=`` it builds the same
        uncached runtime the batch builds per row; metadata adds the
        call's eval-ledger deltas."""
        instance = check_array(instance, name="instance", ndim=1)
        d = instance.shape[0]
        if d < 2:
            raise ValidationError("KernelSHAP needs at least 2 features")
        if runtime is None:
            # one explanation's design is duplicate-free, so hashing its
            # masks into a memo cache could never hit
            runtime = self._runtime(instance, None, cache=False)
        elif runtime.n_players != d:
            raise ValidationError(
                f"runtime is for {runtime.n_players} players, instance "
                f"has {d} features"
            )
        before = runtime.stats.copy()
        with runtime.stats.timer():
            (attribution,) = self._explain_runtimes([runtime], [random_state])
        attribution.metadata.update(runtime.stats.since(before).as_metadata())
        return attribution

    # ------------------------------------------------------------------
    def explain_batch(
        self,
        instances: np.ndarray,
        *,
        random_state: RandomState = None,
        seeds: list[int | None] | None = None,
    ) -> list[FeatureAttribution]:
        """Explain many instances in one *stacked* pass — the serving
        dispatcher's batch entry point, **bitwise identical** to
        ``explain(instance, random_state=seed)`` per instance.

        Each row gets an uncached runtime writing into the shared
        :attr:`batch_stats_` ledger, and the rows share everything that
        is shareable: coalition designs from the read-only arena, one
        base evaluation, and one Gram factorization per distinct mask
        set (see :meth:`_explain_runtimes`).

        Per-instance metadata carries the design shape
        (``method``/``n_coalitions``/``exhaustive``) plus
        ``"stacked": True``; per-call eval-ledger deltas are not
        separable once the base evaluation is shared.
        """
        instances = check_array(instances, name="instances", ndim=2)
        n, d = instances.shape
        if d < 2:
            raise ValidationError("KernelSHAP needs at least 2 features")
        if seeds is None:
            seeds = spawn_seeds(random_state, n)
        elif len(seeds) != n:
            raise ValidationError(
                f"got {len(seeds)} seeds for {n} instances"
            )
        stats = EvalStats()
        self.batch_stats_ = stats
        with stats.timer():
            games = MarginalImputationGame.for_rows(
                self.predict_fn, instances, self.background
            )
            attributions = self._explain_runtimes(
                # uncached, as in ``explain``
                [
                    GameRuntime(game, config=self.config, stats=stats, cache=False)
                    for game in games
                ],
                seeds,
            )
        for attribution in attributions:
            attribution.metadata["stacked"] = True
        return attributions

    def _explain_runtimes(
        self,
        runtimes: list[GameRuntime],
        seeds: list[RandomState],
    ) -> list[FeatureAttribution]:
        """The one KernelSHAP pipeline, over one runtime per instance.

        1. coalition designs come from the shared read-only arena — one
           design for the whole batch in the exhaustive regime, one per
           distinct seed otherwise;
        2. the base value ``v(∅)`` (instance-independent: the mean
           background prediction) is evaluated once, on the first
           runtime — each instance would score a bitwise-equal
           background copy, so the value is identical;
        3. ``v(N)`` and the design masks are evaluated per runtime, so
           every ``predict_fn`` call keeps the input array and shape of
           a single-instance explanation.  Coalescing rows *across*
           instances would change call shapes, and BLAS-backed
           predictors (``X @ w``) are not bitwise row-stable across
           shapes;
        4. the constrained WLS solves stack onto one shared Cholesky
           factorization per distinct mask set (:meth:`_solve_stacked`).
        """
        d = runtimes[0].n_players
        designs = [self._coalition_design(d, seed) for seed in seeds]
        base_value = runtimes[0].value(())
        full_values = np.asarray(
            [runtime.value(range(d)) for runtime in runtimes]
        )
        coalition_values = [
            runtime.values_batch(masks)
            for runtime, (masks, _) in zip(runtimes, designs)
        ]
        phis = self._solve_stacked(
            designs, coalition_values, base_value, full_values
        )
        exhaustive = (2**d - 2) <= self.n_coalitions
        return FeatureAttribution.fan_out(
            self.feature_names or [f"x{i}" for i in range(d)],
            phis,
            base_values=base_value,
            predictions=full_values,
            metadata=[
                {
                    "method": "kernel_shap",
                    "n_coalitions": int(masks.shape[0]),
                    "exhaustive": exhaustive,
                }
                for masks, _ in designs
            ],
        )

    # ------------------------------------------------------------------
    def _solve_stacked(
        self,
        designs: list[tuple[np.ndarray, np.ndarray]],
        coalition_values: list[np.ndarray],
        base_value: float,
        full_values: np.ndarray,
    ) -> np.ndarray:
        """Constrained weighted least squares per instance, with the
        efficiency constraint eliminated onto the last feature.  Every
        instance with the same mask set (the arena returns identical
        objects for identical designs) shares the design and Gram
        matrix; every system's Cholesky factorization and solves then
        run in one stacked call (:func:`solve_psd_batched`), each
        bitwise the single-RHS ``solve_psd``."""
        n = len(designs)
        d = designs[0][0].shape[1]
        groups: dict[int, tuple[np.ndarray, np.ndarray, list[int]]] = {}
        for i, (masks, weights) in enumerate(designs):
            groups.setdefault(id(masks), (masks, weights, []))[2].append(i)
        deltas = full_values - base_value
        grams = np.empty((n, d - 1, d - 1))
        rhs = np.empty((n, d - 1))
        for masks, weights, members in groups.values():
            Z = masks.astype(float)
            design = Z[:, :-1] - Z[:, -1][:, None]
            weighted = design * weights[:, None]
            grams[members] = weighted.T @ design + self.l2 * np.eye(d - 1)
            for i in members:
                target = coalition_values[i] - base_value - Z[:, -1] * deltas[i]
                # per-instance matvec: the multi-RHS gemm is not bitwise
                # column-equivalent to the serial dgemv
                rhs[i] = weighted.T @ target
        heads = solve_psd_batched(grams, rhs)
        phis = np.empty((n, d))
        phis[:, :-1] = heads
        phis[:, -1] = deltas - heads.sum(axis=1)
        return phis

    # ------------------------------------------------------------------
    def _coalition_design(
        self, d: int, random_state: RandomState
    ) -> tuple[np.ndarray, np.ndarray]:
        """Coalition masks and regression weights, from the shared
        read-only design arena (:mod:`~xaidb.explainers.shapley.
        coalitions`): exhaustive designs and integer-seeded samples are
        built once per ``(d, budget, seed)`` and reused across calls,
        instances and dispatch batches."""
        return kernel_shap_design(d, self.n_coalitions, random_state)
