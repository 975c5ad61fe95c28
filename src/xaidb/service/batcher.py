"""Bounded request queue + micro-batcher.

The admission and coalescing half of the server: requests enter a
bounded :class:`asyncio.Queue` (overflow is *rejected*, never buffered —
an overloaded explanation server must fail fast, not build an invisible
latency bomb), and :meth:`MicroBatcher.next_batch` drains them in
natural batches: wait for one request, then take whatever else is
already queued, up to ``max_batch_size``.  There is no batching timer;
requests that arrive while a batch is in flight queue up and form the
next batch, so coalescing grows with load and costs nothing when idle.
Grouping a drained batch by :attr:`~xaidb.service.types.
ExplainRequest.batch_key` and instance width is the caller's job
(:func:`group_by_key`), because one batch may legitimately carry
several distinct workloads.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from xaidb.exceptions import ValidationError
from xaidb.service.types import ExplainRequest, LoadShedError

__all__ = ["PendingRequest", "MicroBatcher", "group_by_key"]


@dataclass
class PendingRequest:
    """A queued request plus its completion plumbing."""

    request: ExplainRequest
    request_id: int
    future: "asyncio.Future[Any]"
    enqueued_at: float
    #: Absolute ``loop.time()`` deadline, or ``None``.
    deadline_at: float | None = None
    #: Size of the dispatched batch this request rode in (set by the
    #: dispatch path; 0 until then).
    batch_size: int = field(default=0)

    def expired(self, now: float) -> bool:
        return self.deadline_at is not None and now >= self.deadline_at


class MicroBatcher:
    """Bounded queue + natural-batch drain.

    Parameters
    ----------
    max_queue_depth:
        Admission bound; :meth:`put_nowait` raises
        :class:`~xaidb.service.types.LoadShedError` beyond it.
    max_batch_size:
        Upper bound on requests per drained batch (and therefore per
        dispatched batch).
    """

    def __init__(
        self,
        *,
        max_queue_depth: int = 256,
        max_batch_size: int = 32,
    ) -> None:
        if max_queue_depth < 1:
            raise ValidationError("max_queue_depth must be >= 1")
        if max_batch_size < 1:
            raise ValidationError("max_batch_size must be >= 1")
        self.max_queue_depth = max_queue_depth
        self.max_batch_size = max_batch_size
        self._queue: asyncio.Queue[PendingRequest] = asyncio.Queue(
            maxsize=max_queue_depth
        )

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently queued (admitted, not yet drained)."""
        return self._queue.qsize()

    def put_nowait(self, entry: PendingRequest) -> None:
        """Admit a request or shed it — never blocks, never buffers
        beyond the bound."""
        try:
            self._queue.put_nowait(entry)
        except asyncio.QueueFull:
            raise LoadShedError(
                f"request queue is full ({self.max_queue_depth} pending); "
                f"request shed"
            ) from None

    async def next_batch(self) -> list[PendingRequest]:
        """Drain one batch (at least one request).

        Waits indefinitely for the first request, then takes the
        requests already queued behind it, up to ``max_batch_size``, in
        arrival order.  Nothing is awaited once the first request is
        taken, so a cancelled drain never holds a request.
        """
        batch = [await self._queue.get()]
        while len(batch) < self.max_batch_size and not self._queue.empty():
            batch.append(self._queue.get_nowait())
        return batch

    def drain_nowait(self) -> list[PendingRequest]:
        """Remove and return everything still queued (shutdown path:
        the server fails these with a typed error)."""
        drained = []
        while not self._queue.empty():
            drained.append(self._queue.get_nowait())
        return drained


def group_by_key(
    batch: list[PendingRequest],
) -> dict[tuple[tuple[str, str, str], int], list[PendingRequest]]:
    """Split one drained batch into dispatch groups keyed by
    ``(batch_key, instance width)``, preserving arrival order within
    each group.

    Splitting on width keeps an instance with the wrong feature count
    out of its batch-mates' stacked array, so it fails alone instead of
    taking the whole batch down with it.
    """
    groups: dict[tuple[tuple[str, str, str], int], list[PendingRequest]] = {}
    for entry in batch:
        request = entry.request
        key = (request.batch_key, request.instance.shape[0])
        groups.setdefault(key, []).append(entry)
    return groups
