"""Request/response contracts of the explanation serving layer.

An :class:`ExplainRequest` names *what* to explain — a registered model
(by digest), one instance, an explainer, its configuration — and *how
urgently* (an optional per-request deadline).  Concurrent requests that
agree on :attr:`~ExplainRequest.batch_key` (model digest, explainer
name, canonical config digest) are safe to coalesce into one batched
explainer call, because the only thing that differs between them is the
instance row and its seed.

Failures are typed: load shedding raises :class:`LoadShedError`, an
expired deadline :class:`DeadlineExceededError` — both subclasses of
:class:`ServiceError`, itself a :class:`~xaidb.exceptions.XaidbError`,
so callers can branch on *why* a request was rejected instead of
parsing message strings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from xaidb.exceptions import XaidbError
from xaidb.utils.validation import check_array

__all__ = [
    "ServiceError",
    "LoadShedError",
    "DeadlineExceededError",
    "UnknownModelError",
    "UnknownExplainerError",
    "InstanceWidthError",
    "config_digest",
    "ExplainRequest",
    "ExplainResponse",
]


class ServiceError(XaidbError, RuntimeError):
    """Base class for every failure the explanation server reports."""


class LoadShedError(ServiceError):
    """The bounded request queue is full; the request was rejected
    *before* queueing — retry later or against another replica."""


class DeadlineExceededError(ServiceError):
    """The request's deadline elapsed before its explanation completed;
    any late result is discarded."""


class UnknownModelError(ServiceError):
    """The request named a model digest the dispatcher has no entry for
    (or the entry lacks what the explainer needs, e.g. a dataset)."""


class UnknownExplainerError(ServiceError):
    """The request named an explainer the dispatcher has no factory for."""


class InstanceWidthError(ServiceError):
    """The request's instance has a different feature count than its
    model; rejected at admission, before queueing."""


def config_digest(config: dict[str, Any]) -> str:
    """Canonical short digest of an explainer configuration.

    Key order never matters (``sort_keys``) and non-JSON scalars fall
    back to ``repr``, so two requests carrying equal configs always
    land in the same micro-batch.
    """
    canonical = json.dumps(
        config, sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class ExplainRequest:
    """One explanation request entering the server.

    Attributes
    ----------
    model:
        Digest of a model registered with the dispatcher.
    explainer:
        Explainer name registered with the dispatcher (built-ins:
        ``"lime"``, ``"kernel_shap"``, ``"anchors"``).
    instance:
        The row to explain, shape ``(d,)``.
    config:
        Explainer constructor overrides (``n_samples``, ``n_coalitions``
        ...); requests only coalesce when their canonical digests match.
    random_state:
        Per-request seed.  The batched result is bitwise identical to
        the serial ``explain(instance, random_state=seed)`` path.
    deadline_s:
        Latency budget in seconds from submission; ``None`` waits
        indefinitely.  Expired requests are dropped before dispatch
        when possible and their responses discarded otherwise.
    """

    model: str
    explainer: str
    instance: np.ndarray
    config: dict[str, Any] = field(default_factory=dict)
    random_state: int | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        self.instance = check_array(self.instance, name="instance", ndim=1)

    @property
    def batch_key(self) -> tuple[str, str, str]:
        """The coalescing key: requests sharing it are batched together."""
        return (self.model, self.explainer, config_digest(self.config))


@dataclass
class ExplainResponse:
    """A completed explanation leaving the server.

    ``result`` is whatever the explainer family returns (a
    :class:`~xaidb.explainers.base.FeatureAttribution`, an
    :class:`~xaidb.rules.anchors.Anchor` ...); ``latency_s`` measures
    submission→completion including queueing, and ``batch_size`` reports
    how many requests shared the dispatched batch (1 = no coalescing).
    """

    request_id: int
    result: Any
    latency_s: float
    batch_size: int
    model: str
    explainer: str
