"""The asyncio explanation server: queue → micro-batches → fan-out.

:class:`ExplanationServer` is the headless, high-throughput counterpart
of the interactive explanation front-ends the paper surveys: requests
enter the bounded queue (overflow is shed with a typed error), a
batching loop drains whatever is queued when it wakes (no batching
timer: requests that arrive during a dispatch form the next batch),
coalesces requests sharing a ``(model, explainer, config)`` key into
*one* batched explainer call (dispatched off-loop in a worker thread so
the event loop keeps admitting traffic), and fans the per-instance
results back out to each caller's future.  Per-request deadlines are
enforced twice: expired requests are dropped *before* dispatch so the
back-end never pays for work nobody is waiting on, and a caller stops
waiting the moment its budget elapses regardless of where its request
is.

The contract that makes coalescing safe: each request carries its own
seed, and every backend's batch entry point reproduces the serial
``explain(instance, random_state=seed)`` results bitwise (asserted in
``tests/service/test_server.py``).
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
from typing import AsyncIterator

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.service.batcher import MicroBatcher, PendingRequest, group_by_key
from xaidb.service.dispatcher import Dispatcher
from xaidb.service.stats import ServiceStats
from xaidb.service.types import (
    DeadlineExceededError,
    ExplainRequest,
    ExplainResponse,
    InstanceWidthError,
    ServiceError,
)

__all__ = ["ExplanationServer"]


class ExplanationServer:
    """Micro-batching asyncio front-end over a :class:`Dispatcher`.

    Parameters
    ----------
    dispatcher:
        The batched back-end (models + explainer factories).
    max_queue_depth:
        Admission bound; submissions beyond it raise
        :class:`~xaidb.service.types.LoadShedError`.
    max_batch_size:
        Most requests one drained batch takes off the queue — see
        :class:`~xaidb.service.batcher.MicroBatcher`.
    max_inflight_batches:
        Dispatch-side backpressure: the batching loop stops draining
        the queue while this many batches are in flight, so overload
        builds *in the bounded queue* (where it sheds) instead of
        accumulating as unbounded dispatch tasks.
    stats:
        The serving ledger; defaults to a fresh
        :class:`~xaidb.service.stats.ServiceStats`.

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly::

        async with ExplanationServer(dispatcher) as server:
            response = await server.submit(request)
    """

    def __init__(
        self,
        dispatcher: Dispatcher,
        *,
        max_queue_depth: int = 256,
        max_batch_size: int = 32,
        max_inflight_batches: int = 8,
        stats: ServiceStats | None = None,
    ) -> None:
        if max_inflight_batches < 1:
            raise ValidationError("max_inflight_batches must be >= 1")
        self.max_inflight_batches = max_inflight_batches
        self.dispatcher = dispatcher
        self.stats = stats or ServiceStats()
        self.batcher = MicroBatcher(
            max_queue_depth=max_queue_depth,
            max_batch_size=max_batch_size,
        )
        self._serve_task: asyncio.Task | None = None
        self._dispatch_tasks: set[asyncio.Task] = set()
        #: ``batch key -> [lock, dispatches waiting on or holding it]``;
        #: a key leaves when its count drops to zero, so client-chosen
        #: config digests cannot grow the map forever.
        self._key_locks: dict[tuple[str, str, str], list] = {}
        self._ids = itertools.count(1)

    # ------------------------------------------------------------ lifecycle
    @property
    def running(self) -> bool:
        return self._serve_task is not None and not self._serve_task.done()

    async def start(self) -> None:
        if self.running:
            return
        self._serve_task = asyncio.create_task(
            self._serve(), name="xaidb-explanation-server"
        )

    async def stop(self) -> None:
        """Stop the batching loop, fail anything still queued with a
        typed error, then let in-flight dispatches finish.

        Queued callers are failed first, so none of them waits behind a
        slow or hung backend.  A dispatch already running in a worker
        thread cannot be cancelled, so ``stop()`` itself still returns
        only once those threads do.
        """
        if self._serve_task is not None:
            self._serve_task.cancel()
            try:
                await self._serve_task
            except asyncio.CancelledError:
                pass
            self._serve_task = None
        for entry in self.batcher.drain_nowait():
            if not entry.future.done():
                entry.future.set_exception(ServiceError("server stopped"))
        if self._dispatch_tasks:
            await asyncio.gather(
                *tuple(self._dispatch_tasks), return_exceptions=True
            )

    async def __aenter__(self) -> "ExplanationServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # --------------------------------------------------------------- submit
    async def submit(self, request: ExplainRequest) -> ExplainResponse:
        """Submit one request and await its explanation.

        Raises
        ------
        LoadShedError
            Immediately, when the queue is at ``max_queue_depth``.
        InstanceWidthError
            Immediately, when the instance's width differs from the
            model's registered ``n_features``; the request counts as
            received and failed.
        DeadlineExceededError
            When ``request.deadline_s`` elapses first.
        asyncio.CancelledError
            When the caller cancels the wait; the request counts as
            received and cancelled.
        ServiceError
            When dispatch fails (unknown model/explainer, backend
            error, server stopped).
        """
        if not self.running:
            raise ServiceError("server is not running; call start()")
        if request.deadline_s is not None and request.deadline_s <= 0:
            raise ValidationError("deadline_s must be > 0 or None")
        width = self.dispatcher.n_features(request.model)
        if width is not None and request.instance.shape[0] != width:
            self.stats.n_received += 1
            self.stats.n_failed += 1
            raise InstanceWidthError(
                f"instance has {request.instance.shape[0]} features; "
                f"model {request.model!r} takes {width}"
            )
        loop = asyncio.get_running_loop()
        entry = PendingRequest(
            request=request,
            request_id=next(self._ids),
            future=loop.create_future(),
            enqueued_at=loop.time(),
            deadline_at=(
                None
                if request.deadline_s is None
                else loop.time() + request.deadline_s
            ),
        )
        try:
            self.batcher.put_nowait(entry)
        except ServiceError:  # LoadShedError
            self.stats.n_shed += 1
            raise
        self.stats.n_received += 1
        self.stats.observe_queue_depth(self.batcher.depth)
        try:
            if request.deadline_s is None:
                result = await entry.future
            else:
                result = await asyncio.wait_for(
                    entry.future, request.deadline_s
                )
        except (asyncio.TimeoutError, DeadlineExceededError) as exc:
            self.stats.n_deadline_expired += 1
            raise DeadlineExceededError(
                f"deadline of {request.deadline_s}s expired for request "
                f"{entry.request_id} ({request.explainer} on "
                f"{request.model})"
            ) from exc
        except ServiceError:
            self.stats.n_failed += 1
            raise
        except asyncio.CancelledError:
            self.stats.n_cancelled += 1
            raise
        latency_s = loop.time() - entry.enqueued_at
        self.stats.record_completion(latency_s)
        return ExplainResponse(
            request_id=entry.request_id,
            result=result,
            latency_s=latency_s,
            batch_size=entry.batch_size,
            model=request.model,
            explainer=request.explainer,
        )

    # ------------------------------------------------------------- batching
    async def _serve(self) -> None:
        """The batching loop.  If it raises, every request it holds or
        has queued fails with a typed error and :attr:`running` turns
        false, instead of the waiters hanging on futures nothing will
        resolve."""
        batch: list[PendingRequest] = []
        try:
            while True:
                if len(self._dispatch_tasks) >= self.max_inflight_batches:
                    # backpressure: leave requests in the bounded queue
                    # (where overflow sheds) until a dispatch slot frees
                    await asyncio.wait(
                        tuple(self._dispatch_tasks),
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                    continue
                batch = await self.batcher.next_batch()
                for (key, _width), entries in group_by_key(batch).items():
                    task = asyncio.create_task(
                        self._dispatch_group(key, entries)
                    )
                    self._dispatch_tasks.add(task)
                    task.add_done_callback(self._dispatch_tasks.discard)
                batch = []
        # xailint: disable=XDB005 (supervision boundary: whatever kills the batching loop must reach every waiter as a typed error)
        except Exception as exc:
            self.stats.serve_error = repr(exc)
            error = ServiceError(f"batching loop failed: {exc!r}")
            error.__cause__ = exc  # every waiter sees the traceback
            self._fail_group(batch + self.batcher.drain_nowait(), error)

    async def _dispatch_group(
        self,
        key: tuple[str, str, str],
        entries: list[PendingRequest],
    ) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        live: list[PendingRequest] = []
        for entry in entries:
            if entry.future.done():
                continue  # caller already gone (deadline/cancellation)
            if entry.expired(now):
                # don't pay the back-end for work nobody is waiting on
                entry.future.set_exception(
                    DeadlineExceededError(
                        f"deadline expired while queued (request "
                        f"{entry.request_id})"
                    )
                )
                continue
            live.append(entry)
        if not live:
            return
        model, explainer_name, _ = key
        self.stats.record_batch(len(live))
        for entry in live:
            entry.batch_size = len(live)
        try:
            # assembly sits inside the failure boundary too: whatever it
            # raises must reach every waiter as a typed error
            instances = np.stack(
                [entry.request.instance for entry in live]
            ).astype(float)
            seeds = [entry.request.random_state for entry in live]
            config = dict(live[0].request.config)
            async with self._key_lock(key):
                results, run_stats = await asyncio.to_thread(
                    self.dispatcher.dispatch,
                    model,
                    explainer_name,
                    config,
                    instances,
                    seeds,
                )
            # a short result list would strand the tail's futures
            if len(results) != len(live):
                raise ServiceError(
                    f"{explainer_name} on {model} returned "
                    f"{len(results)} results for {len(live)} instances"
                )
        # xailint: disable=XDB005 (fan-out boundary: any backend failure must become a typed error on every waiter, never kill the serve loop)
        except Exception as exc:
            self.stats.dispatch_failures.append((key, repr(exc)))
            error = (
                exc
                if isinstance(exc, ServiceError)
                else ServiceError(
                    f"dispatch failed for {explainer_name} on "
                    f"{model}: {exc!r}"
                )
            )
            self._fail_group(live, error)
            return
        self.stats.merge_runtime(run_stats)
        for entry, result in zip(live, results):
            if not entry.future.done():
                entry.future.set_result(result)

    @contextlib.asynccontextmanager
    async def _key_lock(
        self, key: tuple[str, str, str]
    ) -> AsyncIterator[None]:
        """Hold ``key``'s dispatch lock.

        Backends carry per-call state (batch ledgers, samplers): one
        in-flight dispatch per batch key, while distinct keys overlap.
        The lock is dropped only once no dispatch waits on or holds it,
        so two batches under one key never run under different locks.
        """
        slot = self._key_locks.get(key)
        if slot is None:
            slot = self._key_locks[key] = [asyncio.Lock(), 0]
        slot[1] += 1
        try:
            async with slot[0]:
                yield
        finally:
            slot[1] -= 1
            if slot[1] == 0:
                del self._key_locks[key]

    @staticmethod
    def _fail_group(
        entries: list[PendingRequest], error: ServiceError
    ) -> None:
        for entry in entries:
            if not entry.future.done():
                entry.future.set_exception(error)
