"""Property test: every submitted request resolves exactly once.

Random operation sequences interleave valid and wrong-width requests,
raising and short-returning backends, a raising factory and one that
builds a broken backend, slow backends under deadlines, caller
cancellation, more distinct configs than the dispatcher keeps backends
for, and ``stop()`` between any two operations.  Whatever the
interleaving, each caller ends with its own result or a typed :class:`ServiceError` (or
the cancellation it asked for), nothing escapes the dispatch tasks,
and once the server is idle its counters reconcile with what the
callers saw.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xaidb.service import (
    DeadlineExceededError,
    Dispatcher,
    ExplainRequest,
    ExplainResponse,
    ExplanationServer,
    LoadShedError,
    ServiceError,
)
from xaidb.service.dispatcher import MAX_BACKENDS

WIDTH = 2
SLOW_S = 0.01

#: Backend behaviours; a ``slow_`` one sleeps in its worker thread
#: first, so deadlines and cancellations land while it runs.
BEHAVIOURS = ("ok", "slow_ok", "raises", "slow_raises", "short", "slow_short")
EXPLAINERS = BEHAVIOURS + ("ok", "slow_ok", "bad_factory", "broken_backend")


def _backend(behaviour: str):
    def run(instances, seeds):
        if behaviour.startswith("slow_"):
            time.sleep(SLOW_S)
        if instances.shape[1] != WIDTH:
            raise ValueError(f"width {instances.shape[1]}")
        if behaviour.endswith("raises"):
            raise RuntimeError("backend bug")
        results = [float(seed) for seed in seeds]
        if behaviour.endswith("short"):
            results = results[:-1]
        return results, None

    return run


def _raising_factory(entry, config):
    raise RuntimeError("factory bug")


def _broken_backend_factory(entry, config):
    return None  # calling it fails in dispatch


def _dispatcher() -> Dispatcher:
    dispatcher = Dispatcher()
    predict = lambda X: np.zeros(len(X))  # noqa: E731
    # "m" knows its width (checked at admission), "u" does not (a wrong
    # width reaches the backend), "nope" is never registered
    dispatcher.register_model("m", predict, background=np.zeros((1, WIDTH)))
    dispatcher.register_model("u", predict)
    for behaviour in BEHAVIOURS:
        dispatcher.register_explainer(
            behaviour,
            lambda entry, config, b=behaviour: _backend(b),
        )
    dispatcher.register_explainer("bad_factory", _raising_factory)
    dispatcher.register_explainer("broken_backend", _broken_backend_factory)
    return dispatcher


submit_op = st.tuples(
    st.just("submit"),
    st.sampled_from(("m", "m", "m", "u", "nope")),
    st.sampled_from(EXPLAINERS),
    st.sampled_from((False, False, False, True)),  # wrong width
    st.integers(0, 2),  # config: few, so batches coalesce
    st.sampled_from((None, None, 0.002, 0.05)),  # deadline_s
    st.integers(1, 3),  # same-key copies, submitted together
)
ops_strategy = st.lists(
    st.one_of(
        submit_op,
        submit_op,
        submit_op,
        # cancel the n-th submission, right away or after one tick
        st.tuples(st.just("cancel"), st.integers(0, 63), st.booleans()),
        st.tuples(st.just("pause"), st.sampled_from((0.0, 0.002, 0.015))),
    ),
    min_size=1,
    max_size=30,
)


async def _scenario(ops, sweep_at, stop_at, queue_depth, batch_size, inflight):
    dispatcher = _dispatcher()
    server = ExplanationServer(
        dispatcher,
        max_queue_depth=queue_depth,
        max_batch_size=batch_size,
        max_inflight_batches=inflight,
    )
    escaped: list[BaseException] = []
    dispatch_group = server._dispatch_group

    async def checked_dispatch_group(key, entries):
        # a second resolution of one future raises InvalidStateError
        # here; stop() would swallow it, so record it on the way out
        try:
            await dispatch_group(key, entries)
        except BaseException as exc:
            escaped.append(exc)
            raise

    server._dispatch_group = checked_dispatch_group
    await server.start()
    tasks: list[tuple[asyncio.Task, int]] = []
    cancel_requested: set[int] = set()

    def submit(model, explainer, width, k, deadline_s=None):
        seed = len(tasks)
        request = ExplainRequest(
            model=model,
            explainer=explainer,
            instance=np.zeros(width),
            config={"k": k},
            random_state=seed,
            deadline_s=deadline_s,
        )
        task = asyncio.create_task(server.submit(request))
        tasks.append((task, seed))
        return task

    for i, op in enumerate(ops):
        if i == sweep_at:
            # one client after another, each with its own config: more
            # backends than the dispatcher keeps
            for k in range(MAX_BACKENDS + 8):
                await asyncio.wait([submit("m", "ok", WIDTH, 100 + k)])
        if i == stop_at:
            await server.stop()
        if op[0] == "submit":
            _, model, explainer, wrong_width, k, deadline_s, copies = op
            width = WIDTH + 1 if wrong_width else WIDTH
            for _ in range(copies):
                submit(model, explainer, width, k, deadline_s)
        elif op[0] == "cancel" and tasks:
            _, n, after_a_tick = op
            if after_a_tick:
                await asyncio.sleep(0)
            task, seed = tasks[n % len(tasks)]
            task.cancel()
            cancel_requested.add(seed)
        elif op[0] == "pause":
            await asyncio.sleep(op[1])
    await asyncio.wait_for(server.stop(), timeout=10.0)
    outcomes = await asyncio.wait_for(
        asyncio.gather(*(task for task, _ in tasks), return_exceptions=True),
        timeout=10.0,
    )
    return server, escaped, tasks, cancel_requested, outcomes


@settings(max_examples=150, deadline=None)
@given(
    ops=ops_strategy,
    sweep_at=st.one_of(st.none(), st.integers(0, 12)),
    stop_at=st.one_of(st.none(), st.integers(0, 12)),
    queue_depth=st.integers(1, 4),
    batch_size=st.integers(1, 4),
    inflight=st.integers(1, 3),
)
def test_every_request_resolves_exactly_once(
    ops, sweep_at, stop_at, queue_depth, batch_size, inflight
):
    server, escaped, tasks, cancel_requested, outcomes = asyncio.run(
        _scenario(ops, sweep_at, stop_at, queue_depth, batch_size, inflight)
    )
    stats = server.stats

    # nothing escaped a dispatch task, the loop never died, and the
    # server holds nothing once it has stopped
    assert escaped == []
    assert stats.serve_error is None
    assert server.batcher.depth == 0
    assert not server._dispatch_tasks
    assert server._key_locks == {}
    assert len(server.dispatcher._backends) <= MAX_BACKENDS

    counts = {
        "completed": 0, "shed": 0, "expired": 0, "refused": 0,
        "failed": 0, "cancelled": 0,
    }
    for (_, seed), outcome in zip(tasks, outcomes):
        if isinstance(outcome, ExplainResponse):
            assert outcome.result == float(seed)  # its own result
            counts["completed"] += 1
        elif isinstance(outcome, asyncio.CancelledError):
            assert seed in cancel_requested
            counts["cancelled"] += 1
        elif isinstance(outcome, LoadShedError):
            counts["shed"] += 1
        elif isinstance(outcome, DeadlineExceededError):
            counts["expired"] += 1
        elif isinstance(outcome, ServiceError):
            key = "refused" if "not running" in str(outcome) else "failed"
            counts[key] += 1
        else:
            raise AssertionError(f"untyped outcome {outcome!r}")

    assert stats.n_completed == counts["completed"]
    assert stats.n_shed == counts["shed"]
    assert stats.n_deadline_expired == counts["expired"]
    assert stats.n_failed == counts["failed"]
    # a task cancelled before it ran never reached the server
    assert stats.n_cancelled <= counts["cancelled"]
    assert stats.n_received == (
        stats.n_completed
        + stats.n_failed
        + stats.n_deadline_expired
        + stats.n_cancelled
    )
    assert stats.n_received + stats.n_shed + counts["refused"] + (
        counts["cancelled"] - stats.n_cancelled
    ) == len(tasks)
