"""The batched explanation back-end: (model, explainer, config) → work.

The dispatcher owns two registries — models (by digest) and explainer
factories (by name) — and turns one coalesced micro-batch into exactly
one batched explainer call.  Backends are built once per
``(model, explainer, config digest)`` and cached, so a hot workload
pays explainer construction (quantile bins, perturbation statistics)
once, not per request; every backend's batch entry point is seeded
per instance, which keeps the batched results **bitwise identical** to
the per-request serial path (asserted in ``tests/service/`` and by
xaibench's served workloads).

Built-in explainer names: ``"lime"``, ``"kernel_shap"``, ``"anchors"``,
``"tree_shap"``.  Custom backends register via
:meth:`Dispatcher.register_explainer` with a factory
``(entry, config) -> (instances, seeds) -> (results, stats)``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from xaidb.data.dataset import Dataset
from xaidb.explainers.base import PredictFn
from xaidb.explainers.lime import LimeExplainer
from xaidb.explainers.shapley import KernelShapExplainer, TreeShapExplainer
from xaidb.rules.anchors import AnchorsExplainer
from xaidb.runtime.stats import EvalStats
from xaidb.service.types import (
    UnknownExplainerError,
    UnknownModelError,
    config_digest,
)

__all__ = [
    "ModelEntry",
    "Dispatcher",
    "BackendFn",
    "BackendFactory",
    "MAX_BACKENDS",
]

#: Most backends one dispatcher keeps built.  Backend keys include a
#: digest of the client-supplied config, so without a bound every
#: distinct config a client sends would pin an explainer forever; the
#: least recently used backend is dropped (and rebuilt on its next
#: request) instead.
MAX_BACKENDS = 64

#: A built backend: ``(instances, per-instance seeds) -> (results,
#: evaluation ledger or None)``.
BackendFn = Callable[
    [np.ndarray, list[int | None]], tuple[list[Any], EvalStats | None]
]
#: Builds a backend for one (model entry, explainer config) pair.
BackendFactory = Callable[["ModelEntry", dict[str, Any]], BackendFn]


@dataclass
class ModelEntry:
    """One served model: its prediction function plus the side inputs
    different explainer families need (training data for LIME/Anchors
    perturbation statistics, background rows for KernelSHAP, the fitted
    model object itself for TreeSHAP's structure traversal).

    ``n_features`` is the instance width the model takes (``None`` when
    nothing registered with it tells), checked at admission."""

    digest: str
    predict_fn: PredictFn
    dataset: Dataset | None = None
    background: np.ndarray | None = None
    model: Any | None = None
    n_features: int | None = None


# ----------------------------------------------------------- built-ins
#
# Every built-in backend has the same run shape — construct the
# explainer once from the entry's side inputs, then feed each coalesced
# batch to ``explain_batch`` with the per-instance seeds and return the
# shared ledger.  Only the construction differs, so built-ins are a
# *table of constructors* and one generic factory; the seed-threading
# closure is written once instead of once per family (the historical
# copy-paste drifted three times before ``tree_shap`` would have made
# it four).


def _require_dataset(entry: ModelEntry, need: str) -> Dataset:
    if entry.dataset is None:
        raise UnknownModelError(
            f"model {entry.digest!r} has no dataset; {need}"
        )
    return entry.dataset


def _resolve_background(entry: ModelEntry) -> np.ndarray:
    background = entry.background
    if background is None and entry.dataset is not None:
        background = entry.dataset.X
    if background is None:
        raise UnknownModelError(
            f"model {entry.digest!r} has neither background rows nor a "
            f"dataset; KernelSHAP needs a background"
        )
    return background


def _build_lime(entry: ModelEntry, config: dict[str, Any]):
    dataset = _require_dataset(
        entry, "LIME needs one for perturbation statistics"
    )
    return LimeExplainer(dataset, **config)


def _build_kernel_shap(entry: ModelEntry, config: dict[str, Any]):
    return KernelShapExplainer(
        entry.predict_fn, _resolve_background(entry), **config
    )


def _build_anchors(entry: ModelEntry, config: dict[str, Any]):
    dataset = _require_dataset(
        entry, "Anchors needs one for its perturbation distribution"
    )
    return AnchorsExplainer(entry.predict_fn, dataset, **config)


def _build_tree_shap(entry: ModelEntry, config: dict[str, Any]):
    if entry.model is None:
        raise UnknownModelError(
            f"model {entry.digest!r} has no fitted model object; "
            f"tree_shap traverses the tree structures themselves"
        )
    return TreeShapExplainer(entry.model, **config)


def _run_with_predict_fn(explainer, entry, instances, seeds):
    # LIME's batch entry point takes the prediction function per call
    return explainer.explain_batch(entry.predict_fn, instances, seeds=seeds)


def _run_plain(explainer, entry, instances, seeds):
    return explainer.explain_batch(instances, seeds=seeds)


@dataclass(frozen=True)
class _BuiltinSpec:
    """Declarative recipe for one built-in backend."""

    build: Callable[[ModelEntry, dict[str, Any]], Any]
    run: Callable[[Any, ModelEntry, np.ndarray, list], list] = _run_plain


_BUILTIN_SPECS: dict[str, _BuiltinSpec] = {
    "lime": _BuiltinSpec(build=_build_lime, run=_run_with_predict_fn),
    "kernel_shap": _BuiltinSpec(build=_build_kernel_shap),
    "anchors": _BuiltinSpec(build=_build_anchors),
    # seeds are accepted and ignored — TreeSHAP is deterministic, but
    # the dispatcher threads per-instance seeds uniformly
    "tree_shap": _BuiltinSpec(build=_build_tree_shap),
}


def _spec_factory(spec: _BuiltinSpec) -> BackendFactory:
    def factory(entry: ModelEntry, config: dict[str, Any]) -> BackendFn:
        explainer = spec.build(entry, config)

        def run(instances, seeds):
            results = spec.run(explainer, entry, instances, seeds)
            return results, getattr(explainer, "batch_stats_", None)

        return run

    return factory


_BUILTIN_FACTORIES: dict[str, BackendFactory] = {
    name: _spec_factory(spec) for name, spec in _BUILTIN_SPECS.items()
}


class Dispatcher:
    """Model + explainer registries with a per-batch-key backend cache.

    Backends are kept in a least-recently-used cache of at most
    :data:`MAX_BACKENDS` entries.

    Thread-safety note: :meth:`dispatch` runs in worker threads (the
    server calls it via ``asyncio.to_thread``), and distinct batch keys
    dispatch concurrently, so the backend cache is guarded by a lock; a
    backend is built outside it.  The model and explainer registries
    are written only at setup time — no locking is needed for them as
    long as registration precedes serving.
    """

    def __init__(self) -> None:
        self._models: dict[str, ModelEntry] = {}
        self._factories: dict[str, BackendFactory] = dict(
            _BUILTIN_FACTORIES
        )
        self._backends: OrderedDict[tuple[str, str, str], BackendFn] = (
            OrderedDict()
        )
        self._backends_lock = threading.Lock()

    # ------------------------------------------------------------------
    def register_model(
        self,
        digest: str,
        predict_fn: PredictFn,
        *,
        dataset: Dataset | None = None,
        background: np.ndarray | None = None,
        model: Any | None = None,
    ) -> ModelEntry:
        """Register a served model under ``digest``; re-registering a
        digest replaces the entry and drops its cached backends.

        ``model`` is the fitted model object itself — required only by
        structure-walking backends (``tree_shap``); prediction-function
        backends never touch it.  The entry's ``n_features`` comes from
        ``model.n_features_in_``, else the background's width, else the
        dataset's.
        """
        if background is not None:
            background = np.asarray(background, dtype=float)
        n_features = getattr(model, "n_features_in_", None)
        if n_features is None and background is not None:
            n_features = background.shape[1]
        if n_features is None and dataset is not None:
            n_features = dataset.n_features
        entry = ModelEntry(
            digest=digest,
            predict_fn=predict_fn,
            dataset=dataset,
            background=background,
            model=model,
            n_features=None if n_features is None else int(n_features),
        )
        self._models[digest] = entry
        self._drop_backends(lambda key: key[0] == digest)
        return entry

    def register_explainer(self, name: str, factory: BackendFactory) -> None:
        """Register (or replace) an explainer factory under ``name``."""
        self._factories[name] = factory
        self._drop_backends(lambda key: key[1] == name)

    def _drop_backends(self, stale: Callable[[tuple], bool]) -> None:
        with self._backends_lock:
            for key in [key for key in self._backends if stale(key)]:
                del self._backends[key]

    @property
    def models(self) -> tuple[str, ...]:
        return tuple(self._models)

    def n_features(self, model: str) -> int | None:
        """The instance width ``model`` takes, or ``None`` when it is
        unknown (unregistered digests fail later, in dispatch)."""
        entry = self._models.get(model)
        return None if entry is None else entry.n_features

    @property
    def explainers(self) -> tuple[str, ...]:
        return tuple(self._factories)

    # ------------------------------------------------------------------
    def _backend(
        self, model: str, explainer: str, config: dict[str, Any]
    ) -> BackendFn:
        key = (model, explainer, config_digest(config))
        with self._backends_lock:
            backend = self._backends.get(key)
            if backend is not None:
                self._backends.move_to_end(key)
                return backend
        entry = self._models.get(model)
        if entry is None:
            raise UnknownModelError(
                f"no model registered under digest {model!r}"
            )
        factory = self._factories.get(explainer)
        if factory is None:
            raise UnknownExplainerError(
                f"no explainer registered under {explainer!r} "
                f"(have: {sorted(self._factories)})"
            )
        backend = factory(entry, dict(config))
        with self._backends_lock:
            backend = self._backends.setdefault(key, backend)
            self._backends.move_to_end(key)
            while len(self._backends) > MAX_BACKENDS:
                self._backends.popitem(last=False)
        return backend

    def dispatch(
        self,
        model: str,
        explainer: str,
        config: dict[str, Any],
        instances: np.ndarray,
        seeds: list[int | None],
    ) -> tuple[list[Any], EvalStats | None]:
        """Run one coalesced batch through its backend.

        Returns one result per instance (order-aligned) plus the
        backend's evaluation ledger for this batch, ready to fold into
        :attr:`~xaidb.service.stats.ServiceStats.runtime`.
        """
        backend = self._backend(model, explainer, config)
        return backend(np.asarray(instances, dtype=float), seeds)
