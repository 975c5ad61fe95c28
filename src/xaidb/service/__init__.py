"""xaidb.service — the explanation serving layer.

The paper's data-management pitch only bites once explanations are
*served*, not batch-computed.  This package turns the fast kernels
(:mod:`xaidb.models.tree_kernels`) and the batch-aware runtime
(:mod:`xaidb.runtime`) into a request-facing system, stdlib-only on the
serving side (``asyncio``):

- :class:`ExplainRequest` / :class:`ExplainResponse` — the contract,
  with typed rejections (:class:`LoadShedError`,
  :class:`DeadlineExceededError`);
- :class:`MicroBatcher` — bounded admission queue + natural-batch
  drain (whatever is queued when the server wakes, no timer);
  concurrent requests sharing a ``(model, explainer, config)`` key
  coalesce into one batched explainer call;
- :class:`Dispatcher` — model/explainer registries and the per-key
  backend cache that executes coalesced batches, bitwise identical to
  the per-request serial path;
- :class:`ExplanationServer` — the asyncio front-end tying the three
  together, with per-request deadlines and load shedding;
- :class:`ServiceStats` — latency percentiles (p50/p95/p99), queue
  depth, batch-size histogram, shed/deadline/cancellation counts, the
  recent dispatch failures, composed with the evaluation ledger
  (:class:`~xaidb.runtime.EvalStats`).

See ``docs/SERVING.md`` for the architecture tour.
"""

from xaidb.service.batcher import MicroBatcher, PendingRequest, group_by_key
from xaidb.service.dispatcher import (
    BackendFactory,
    BackendFn,
    Dispatcher,
    ModelEntry,
)
from xaidb.service.server import ExplanationServer
from xaidb.service.stats import ServiceStats
from xaidb.service.types import (
    DeadlineExceededError,
    ExplainRequest,
    ExplainResponse,
    InstanceWidthError,
    LoadShedError,
    ServiceError,
    UnknownExplainerError,
    UnknownModelError,
    config_digest,
)

__all__ = [
    "BackendFactory",
    "BackendFn",
    "DeadlineExceededError",
    "Dispatcher",
    "ExplainRequest",
    "ExplainResponse",
    "ExplanationServer",
    "InstanceWidthError",
    "LoadShedError",
    "MicroBatcher",
    "ModelEntry",
    "PendingRequest",
    "ServiceError",
    "ServiceStats",
    "UnknownExplainerError",
    "UnknownModelError",
    "config_digest",
    "group_by_key",
]
