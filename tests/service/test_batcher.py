"""Unit tests for :class:`~xaidb.service.batcher.MicroBatcher`: batches
form from what is already queued, with no batching timer."""

from __future__ import annotations

import asyncio

import numpy as np

from xaidb.service import ExplainRequest, MicroBatcher, PendingRequest


def _entry(loop: asyncio.AbstractEventLoop, request_id: int) -> PendingRequest:
    return PendingRequest(
        request=ExplainRequest(model="m", explainer="e", instance=np.zeros(2)),
        request_id=request_id,
        future=loop.create_future(),
        enqueued_at=loop.time(),
    )


async def _ticks(n: int) -> None:
    for _ in range(n):
        await asyncio.sleep(0)


def test_lone_request_is_returned_without_a_timer():
    """A single queued request comes back within a couple of event-loop
    ticks: nothing waits for stragglers."""

    async def run():
        loop = asyncio.get_running_loop()
        batcher = MicroBatcher()
        batcher.put_nowait(_entry(loop, 1))
        drain = asyncio.ensure_future(batcher.next_batch())
        await _ticks(2)
        assert drain.done()
        assert [e.request_id for e in drain.result()] == [1]

        # on an empty queue the drain waits for the first request only
        drain = asyncio.ensure_future(batcher.next_batch())
        await _ticks(2)
        assert not drain.done()
        batcher.put_nowait(_entry(loop, 2))
        await _ticks(2)
        assert drain.done()
        assert [e.request_id for e in drain.result()] == [2]

    asyncio.run(run())


def test_requests_beyond_max_batch_size_stay_queued_in_order():
    async def run():
        loop = asyncio.get_running_loop()
        batcher = MicroBatcher(max_batch_size=2)
        for request_id in range(1, 6):
            batcher.put_nowait(_entry(loop, request_id))
        first = await batcher.next_batch()
        assert [e.request_id for e in first] == [1, 2]
        assert batcher.depth == 3
        second = await batcher.next_batch()
        assert [e.request_id for e in second] == [3, 4]
        assert [e.request_id for e in batcher.drain_nowait()] == [5]
        assert batcher.depth == 0

    asyncio.run(run())


def test_cancelled_drain_holds_no_request():
    """A drain cancelled while it waits leaves every later request in
    the queue, where shutdown's ``drain_nowait`` finds it."""

    async def run():
        loop = asyncio.get_running_loop()
        batcher = MicroBatcher()
        drain = asyncio.ensure_future(batcher.next_batch())
        await _ticks(1)
        batcher.put_nowait(_entry(loop, 1))
        drain.cancel()
        await asyncio.gather(drain, return_exceptions=True)
        assert drain.cancelled()
        assert [e.request_id for e in batcher.drain_nowait()] == [1]

    asyncio.run(run())
