"""Integration tests for the asyncio explanation server.

The invariants the serving layer stakes its correctness on:

1. **Coalescing changes cost, never results** — responses from a
   micro-batched burst are bitwise equal to the per-request serial
   explainer calls;
2. **deadlines are enforced** — a request whose budget elapses gets a
   typed :class:`DeadlineExceededError`, and expired work is dropped
   before dispatch when possible;
3. **overload sheds, it doesn't buffer** — beyond ``max_queue_depth``
   submissions fail fast with :class:`LoadShedError`;
4. dispatch failures (unknown model/explainer, backend bugs) surface as
   typed :class:`ServiceError`\\ s, not hangs.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from xaidb.data import make_income
from xaidb.explainers.base import predict_positive_proba
from xaidb.explainers.lime import LimeExplainer
from xaidb.explainers.shapley import KernelShapExplainer, TreeShapExplainer
from xaidb.models import RandomForestClassifier
from xaidb.rules.anchors import AnchorsExplainer
from xaidb.service import (
    DeadlineExceededError,
    Dispatcher,
    ExplainRequest,
    ExplanationServer,
    InstanceWidthError,
    LoadShedError,
    ServiceError,
    UnknownExplainerError,
    UnknownModelError,
)
from xaidb.service.stats import MAX_DISPATCH_FAILURES

SHAP_CONFIG = {"n_coalitions": 32}
LIME_CONFIG = {"n_samples": 64}
ANCHORS_CONFIG = {
    "batch_size": 32,
    "max_samples_per_candidate": 100,
    "beam_width": 1,
    "max_anchor_size": 2,
}


@pytest.fixture(scope="module")
def served():
    workload = make_income(250, random_state=3)
    dataset = workload.dataset
    model = RandomForestClassifier(
        n_estimators=5, max_depth=4, random_state=0
    ).fit(dataset.X, dataset.y)
    predict_fn = predict_positive_proba(model)
    dispatcher = Dispatcher()
    dispatcher.register_model(
        "forest", predict_fn, dataset=dataset, background=dataset.X[:16]
    )
    return dispatcher, dataset, predict_fn


# ------------------------------------------------------------ coalescing
def test_batched_responses_bitwise_equal_serial(served):
    dispatcher, dataset, predict_fn = served

    async def burst():
        async with ExplanationServer(
            dispatcher, max_batch_size=16
        ) as server:
            requests = [
                ExplainRequest(
                    model="forest",
                    explainer=explainer,
                    instance=dataset.X[i],
                    config=config,
                    random_state=900 + i,
                )
                for explainer, config in (
                    ("kernel_shap", SHAP_CONFIG),
                    ("lime", LIME_CONFIG),
                    ("anchors", ANCHORS_CONFIG),
                )
                for i in range(3)
            ]
            responses = await asyncio.gather(
                *(server.submit(request) for request in requests)
            )
            return requests, responses, server.stats

    requests, responses, stats = asyncio.run(burst())

    # every same-key triple shared one dispatched batch
    assert all(response.batch_size == 3 for response in responses)
    assert stats.n_completed == 9
    assert stats.mean_batch_size == pytest.approx(3.0)
    # the composed runtime ledger saw the batches' model evaluations
    assert stats.runtime.n_model_evals > 0

    shap = KernelShapExplainer(
        predict_fn, dataset.X[:16], **SHAP_CONFIG
    )
    lime = LimeExplainer(dataset, **LIME_CONFIG)
    anchors = AnchorsExplainer(predict_fn, dataset, **ANCHORS_CONFIG)
    for request, response in zip(requests, responses):
        seed = request.random_state
        if request.explainer == "kernel_shap":
            serial = shap.explain(request.instance, random_state=seed)
            assert np.array_equal(response.result.values, serial.values)
        elif request.explainer == "lime":
            serial = lime.explain(
                predict_fn, request.instance, random_state=seed
            )
            assert np.array_equal(response.result.values, serial.values)
        else:
            serial = anchors.explain(request.instance, random_state=seed)
            assert response.result.predicates == serial.predicates
            assert response.result.precision == serial.precision


def test_distinct_configs_do_not_coalesce(served):
    dispatcher, dataset, _ = served

    async def burst():
        async with ExplanationServer(
            dispatcher, max_batch_size=16
        ) as server:
            requests = [
                ExplainRequest(
                    model="forest",
                    explainer="kernel_shap",
                    instance=dataset.X[i],
                    config={"n_coalitions": 32 + 16 * i},
                    random_state=i,
                )
                for i in range(3)
            ]
            return await asyncio.gather(
                *(server.submit(request) for request in requests)
            )

    responses = asyncio.run(burst())
    assert all(response.batch_size == 1 for response in responses)


def test_tree_shap_backend_bitwise_equal_per_row():
    workload = make_income(250, random_state=3)
    dataset = workload.dataset
    model = RandomForestClassifier(
        n_estimators=5, max_depth=4, random_state=0
    ).fit(dataset.X, dataset.y)
    dispatcher = Dispatcher()
    dispatcher.register_model(
        "forest", predict_positive_proba(model), model=model
    )

    async def burst():
        async with ExplanationServer(
            dispatcher, max_batch_size=16
        ) as server:
            requests = [
                ExplainRequest(
                    model="forest",
                    explainer="tree_shap",
                    instance=dataset.X[i],
                    config={},
                    random_state=i,
                )
                for i in range(5)
            ]
            responses = await asyncio.gather(
                *(server.submit(request) for request in requests)
            )
            return responses

    responses = asyncio.run(burst())
    assert all(response.batch_size == 5 for response in responses)
    reference = TreeShapExplainer(model)
    for i, response in enumerate(responses):
        serial = reference.explain(dataset.X[i])
        assert np.array_equal(response.result.values, serial.values)
        assert response.result.base_value == serial.base_value
        assert response.result.metadata["batched"] is True


# ----------------------------------------------------- deadlines / shed
def _slow_backend_dispatcher(sleep_s: float) -> Dispatcher:
    dispatcher = Dispatcher()
    dispatcher.register_model("m", lambda X: np.zeros(len(X)))

    def factory(entry, config):
        def run(instances, seeds):
            time.sleep(sleep_s)
            return [float(i) for i in range(len(instances))], None

        return run

    dispatcher.register_explainer("slow", factory)
    return dispatcher


def test_deadline_expiry_raises_typed_error():
    dispatcher = _slow_backend_dispatcher(sleep_s=0.5)

    async def run():
        async with ExplanationServer(dispatcher) as server:
            with pytest.raises(DeadlineExceededError):
                await server.submit(
                    ExplainRequest(
                        model="m",
                        explainer="slow",
                        instance=np.zeros(2),
                        deadline_s=0.05,
                    )
                )
            return server.stats

    stats = asyncio.run(run())
    assert stats.n_deadline_expired == 1
    assert stats.n_completed == 0


def test_expired_requests_dropped_before_dispatch():
    """A request whose deadline passes while queued never reaches the
    back-end: the dispatcher drops it and the caller gets the typed
    error (here the queue stalls behind a slow in-flight batch)."""
    dispatcher = _slow_backend_dispatcher(sleep_s=0.3)

    async def run():
        async with ExplanationServer(
            dispatcher,
            max_batch_size=1,
            max_inflight_batches=1,
        ) as server:
            first = asyncio.create_task(
                server.submit(
                    ExplainRequest(
                        model="m", explainer="slow", instance=np.zeros(2)
                    )
                )
            )
            await asyncio.sleep(0.05)  # first batch now in flight
            with pytest.raises(DeadlineExceededError):
                await server.submit(
                    ExplainRequest(
                        model="m",
                        explainer="slow",
                        instance=np.zeros(2),
                        deadline_s=0.05,
                    )
                )
            response = await first
            return response, server.stats

    response, stats = asyncio.run(run())
    assert response.result == 0.0  # the in-flight request still lands
    assert stats.n_deadline_expired == 1
    assert stats.n_completed == 1


def test_load_shedding_rejects_with_typed_error():
    dispatcher = _slow_backend_dispatcher(sleep_s=0.3)

    async def run():
        async with ExplanationServer(
            dispatcher,
            max_queue_depth=2,
            max_batch_size=1,
            max_inflight_batches=1,
        ) as server:
            pending = []
            for _ in range(3):  # 1 in flight + 2 queued = saturated
                pending.append(
                    asyncio.create_task(
                        server.submit(
                            ExplainRequest(
                                model="m",
                                explainer="slow",
                                instance=np.zeros(2),
                            )
                        )
                    )
                )
                # let the serve loop drain before the next submission so
                # saturation builds up deterministically
                await asyncio.sleep(0.02)
            with pytest.raises(LoadShedError):
                await server.submit(
                    ExplainRequest(
                        model="m", explainer="slow", instance=np.zeros(2)
                    )
                )
            responses = await asyncio.gather(*pending)
            return responses, server.stats

    responses, stats = asyncio.run(run())
    assert len(responses) == 3  # everything admitted completed
    assert stats.n_shed == 1
    assert stats.n_completed == 3
    assert stats.queue_depth_peak == 2


# ------------------------------------------------------- failure paths
def test_unknown_model_and_explainer_are_typed(served):
    dispatcher, dataset, _ = served

    async def run():
        async with ExplanationServer(dispatcher) as server:
            with pytest.raises(UnknownModelError):
                await server.submit(
                    ExplainRequest(
                        model="nope",
                        explainer="lime",
                        instance=dataset.X[0],
                    )
                )
            with pytest.raises(UnknownExplainerError):
                await server.submit(
                    ExplainRequest(
                        model="forest",
                        explainer="nope",
                        instance=dataset.X[0],
                    )
                )
            return server.stats

    stats = asyncio.run(run())
    assert stats.n_failed == 2


def test_backend_exception_wrapped_as_service_error():
    dispatcher = Dispatcher()
    dispatcher.register_model("m", lambda X: np.zeros(len(X)))

    def factory(entry, config):
        def run(instances, seeds):
            raise RuntimeError("backend bug")

        return run

    dispatcher.register_explainer("broken", factory)
    request = ExplainRequest(
        model="m", explainer="broken", instance=np.zeros(2)
    )

    async def run():
        async with ExplanationServer(dispatcher) as server:
            with pytest.raises(ServiceError, match="backend bug"):
                await server.submit(request)
            return server.stats

    stats = asyncio.run(run())
    # the failure is recorded server-side with its batch key
    assert list(stats.dispatch_failures) == [
        (request.batch_key, "RuntimeError('backend bug')")
    ]
    assert stats.as_metadata()["dispatch_failures"] == [
        {"key": list(request.batch_key), "error": "RuntimeError('backend bug')"}
    ]


def test_dispatch_failure_record_is_bounded():
    """Client-chosen configs cannot grow the failure record: it keeps
    the most recent ``MAX_DISPATCH_FAILURES``, oldest first."""
    dispatcher = Dispatcher()
    dispatcher.register_model("m", lambda X: np.zeros(len(X)))

    def factory(entry, config):
        def run(instances, seeds):
            raise RuntimeError(f"bug {config['k']}")

        return run

    dispatcher.register_explainer("broken", factory)
    n = MAX_DISPATCH_FAILURES + 5

    async def run():
        async with ExplanationServer(dispatcher) as server:
            for k in range(n):
                with pytest.raises(ServiceError):
                    await server.submit(
                        ExplainRequest(
                            model="m",
                            explainer="broken",
                            instance=np.zeros(2),
                            config={"k": k},
                        )
                    )
            return server.stats

    stats = asyncio.run(run())
    assert stats.n_failed == n
    recorded = [error for _, error in stats.dispatch_failures]
    assert recorded == [
        f"RuntimeError('bug {k}')" for k in range(5, n)
    ]
    assert len(stats.as_metadata()["dispatch_failures"]) == (
        MAX_DISPATCH_FAILURES
    )


def test_short_backend_result_fails_the_whole_group():
    """A backend that returns one result fewer than it was given fails
    its whole batch with a typed ServiceError instead of stranding the
    last future; a batch-mate under another key still completes."""
    dispatcher = Dispatcher()
    dispatcher.register_model("m", lambda X: np.zeros(len(X)))

    def short_factory(entry, config):
        def run(instances, seeds):
            return [float(i) for i in range(len(instances) - 1)], None

        return run

    def ok_factory(entry, config):
        def run(instances, seeds):
            return [float(i) for i in range(len(instances))], None

        return run

    dispatcher.register_explainer("short", short_factory)
    dispatcher.register_explainer("ok", ok_factory)

    async def run():
        async with ExplanationServer(
            dispatcher, max_batch_size=16
        ) as server:
            requests = [
                ExplainRequest(
                    model="m", explainer="short", instance=np.zeros(2)
                )
                for _ in range(3)
            ]
            requests.append(
                ExplainRequest(model="m", explainer="ok", instance=np.zeros(2))
            )
            outcomes = await asyncio.wait_for(
                asyncio.gather(
                    *(server.submit(r) for r in requests),
                    return_exceptions=True,
                ),
                timeout=5.0,
            )
            return outcomes, server.stats

    outcomes, stats = asyncio.run(run())

    for outcome in outcomes[:3]:
        assert isinstance(outcome, ServiceError)
        assert "returned 2 results for 3 instances" in str(outcome)
    assert outcomes[3].result == 0.0
    assert stats.n_failed == 3
    assert stats.n_completed == 1


def test_malformed_instance_fails_alone(served):
    """Three valid KernelSHAP requests and one a feature short share a
    drained batch and a batch key: the short one gets a typed
    ServiceError, the three valid ones complete bitwise equal to serial
    ``explain``, and nothing is left pending."""
    dispatcher, dataset, predict_fn = served

    def request(instance, seed):
        return ExplainRequest(
            model="forest",
            explainer="kernel_shap",
            instance=instance,
            config=SHAP_CONFIG,
            random_state=seed,
        )

    async def run():
        async with ExplanationServer(
            dispatcher, max_batch_size=16
        ) as server:
            requests = [request(dataset.X[i], 700 + i) for i in range(3)]
            requests.append(request(dataset.X[3][:-1], 703))
            outcomes = await asyncio.wait_for(
                asyncio.gather(
                    *(server.submit(r) for r in requests),
                    return_exceptions=True,
                ),
                timeout=10.0,
            )
            return requests, outcomes, server.stats

    requests, outcomes, stats = asyncio.run(run())

    assert isinstance(outcomes[3], ServiceError)
    assert stats.n_failed == 1
    assert stats.n_completed == 3
    serial = KernelShapExplainer(predict_fn, dataset.X[:16], **SHAP_CONFIG)
    for request_, response in zip(requests[:3], outcomes[:3]):
        assert response.batch_size == 3
        want = serial.explain(
            request_.instance, random_state=request_.random_state
        )
        assert np.array_equal(response.result.values, want.values)


def test_submit_requires_running_server(served):
    dispatcher, dataset, _ = served
    server = ExplanationServer(dispatcher)

    async def run():
        with pytest.raises(ServiceError, match="not running"):
            await server.submit(
                ExplainRequest(
                    model="forest", explainer="lime", instance=dataset.X[0]
                )
            )

    asyncio.run(run())


def test_stop_fails_queued_requests():
    dispatcher = _slow_backend_dispatcher(sleep_s=0.2)

    async def run():
        server = ExplanationServer(
            dispatcher,
            max_batch_size=1,
            max_inflight_batches=1,
        )
        await server.start()
        tasks = [
            asyncio.create_task(
                server.submit(
                    ExplainRequest(
                        model="m", explainer="slow", instance=np.zeros(2)
                    )
                )
            )
            for _ in range(3)
        ]
        await asyncio.sleep(0.05)
        await server.stop()
        return await asyncio.gather(*tasks, return_exceptions=True)

    outcomes = asyncio.run(run())
    # the in-flight batch completes; everything still queued fails typed
    assert sum(1 for o in outcomes if isinstance(o, ServiceError)) == 2
    assert sum(1 for o in outcomes if not isinstance(o, Exception)) == 1


def _gated_dispatcher():
    """A backend that signals ``entered`` and then blocks until ``gate``
    is set, so later requests queue up behind it."""
    gate, entered = threading.Event(), threading.Event()
    dispatcher = Dispatcher()
    dispatcher.register_model("m", lambda X: np.zeros(len(X)))

    def factory(entry, config):
        def run(instances, seeds):
            entered.set()
            gate.wait(timeout=5.0)
            return [float(i) for i in range(len(instances))], None

        return run

    dispatcher.register_explainer("gated", factory)
    return dispatcher, gate, entered


async def _until(event: threading.Event, timeout: float = 5.0) -> None:
    deadline = time.perf_counter() + timeout
    while not event.is_set():
        assert time.perf_counter() < deadline, "backend never entered"
        await asyncio.sleep(0.001)


def test_stop_fails_requests_queued_behind_a_gated_backend():
    """``stop()`` while requests sit queued behind the one in-flight
    dispatch: the dispatch still completes, every queued request fails
    typed instead of hanging, and the counters reconcile."""
    dispatcher, gate, entered = _gated_dispatcher()

    async def run():
        server = ExplanationServer(dispatcher, max_inflight_batches=1)
        await server.start()

        def submit():
            return asyncio.create_task(
                server.submit(
                    ExplainRequest(
                        model="m", explainer="gated", instance=np.zeros(2)
                    )
                )
            )

        first = submit()
        await _until(entered)
        queued = [submit() for _ in range(4)]
        await asyncio.sleep(0.01)
        depth = server.batcher.depth
        stopping = asyncio.create_task(server.stop())
        await asyncio.sleep(0.01)  # stop() now waits on the dispatch
        gate.set()
        await asyncio.wait_for(stopping, timeout=5.0)
        outcomes = await asyncio.wait_for(
            asyncio.gather(first, *queued, return_exceptions=True),
            timeout=2.0,
        )
        return depth, outcomes, server.stats

    depth, outcomes, stats = asyncio.run(run())
    assert depth == 4
    assert outcomes[0].result == 0.0
    for outcome in outcomes[1:]:
        assert isinstance(outcome, ServiceError)
        assert "server stopped" in str(outcome)
    assert stats.n_received == 5
    assert stats.n_completed == 1 and stats.n_failed == 4
    assert stats.n_received == (
        stats.n_completed + stats.n_failed + stats.n_deadline_expired
    )


def test_stop_fails_queued_requests_while_the_backend_hangs():
    """``stop()`` fails the queue before it waits on the in-flight
    dispatch: with the backend's gate still closed, every queued caller
    already holds its typed error, and the counters reconcile once the
    dispatch returns."""
    dispatcher, gate, entered = _gated_dispatcher()

    async def run():
        server = ExplanationServer(dispatcher, max_inflight_batches=1)
        await server.start()

        def submit():
            return asyncio.create_task(
                server.submit(
                    ExplainRequest(
                        model="m", explainer="gated", instance=np.zeros(2)
                    )
                )
            )

        first = submit()
        await _until(entered)
        queued = [submit() for _ in range(4)]
        await asyncio.sleep(0.01)
        stopping = asyncio.create_task(server.stop())
        try:
            outcomes = await asyncio.wait_for(
                asyncio.gather(*queued, return_exceptions=True), timeout=2.0
            )
            hung = not first.done() and not stopping.done()
            failed_while_hung = server.stats.n_failed
        finally:
            gate.set()
        await asyncio.wait_for(stopping, timeout=5.0)
        return hung, failed_while_hung, outcomes, await first, server.stats

    hung, failed_while_hung, outcomes, first, stats = asyncio.run(run())
    assert hung
    assert failed_while_hung == 4
    for outcome in outcomes:
        assert isinstance(outcome, ServiceError)
        assert "server stopped" in str(outcome)
    assert first.result == 0.0
    assert stats.n_received == 5
    assert stats.n_completed == 1 and stats.n_failed == 4
    assert stats.n_received == (
        stats.n_completed
        + stats.n_failed
        + stats.n_deadline_expired
        + stats.n_cancelled
    )


def test_cancelled_callers_are_counted():
    """A caller that stops waiting counts as cancelled, so the counters
    still reconcile; its batch-mate is unaffected."""
    dispatcher, gate, entered = _gated_dispatcher()

    async def run():
        async with ExplanationServer(dispatcher) as server:
            tasks = [
                asyncio.create_task(
                    server.submit(
                        ExplainRequest(
                            model="m", explainer="gated", instance=np.zeros(2)
                        )
                    )
                )
                for _ in range(2)
            ]
            await _until(entered)
            tasks[0].cancel()
            gate.set()
            outcomes = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), timeout=5.0
            )
            return outcomes, server.stats

    outcomes, stats = asyncio.run(run())
    assert isinstance(outcomes[0], asyncio.CancelledError)
    assert outcomes[1].result == 1.0 and outcomes[1].batch_size == 2
    assert stats.n_received == 2
    assert stats.n_completed == 1 and stats.n_cancelled == 1
    assert stats.as_metadata()["n_cancelled"] == 1
    assert stats.n_received == (
        stats.n_completed
        + stats.n_failed
        + stats.n_deadline_expired
        + stats.n_cancelled
    )


# ------------------------------------------------ serve-loop supervision
def test_dead_batching_loop_fails_every_waiter(monkeypatch):
    """A fault in the batching loop (here ``group_by_key``) must fail
    the window it was holding and everything still queued with a typed
    error, turn ``running`` false and record the failure — not leave
    the callers awaiting futures nothing will resolve."""
    import xaidb.service.server as server_module

    def broken_group_by_key(window):
        raise RuntimeError("grouping bug")

    monkeypatch.setattr(server_module, "group_by_key", broken_group_by_key)
    dispatcher = _slow_backend_dispatcher(sleep_s=0.0)

    async def run():
        server = ExplanationServer(
            dispatcher, max_batch_size=2
        )
        await server.start()
        tasks = [
            asyncio.create_task(
                server.submit(
                    ExplainRequest(
                        model="m", explainer="slow", instance=np.zeros(2)
                    )
                )
            )
            for _ in range(5)
        ]
        outcomes = await asyncio.wait_for(
            asyncio.gather(*tasks, return_exceptions=True), timeout=5.0
        )
        running = server.running
        await server.stop()
        return outcomes, running, server.stats

    outcomes, running, stats = asyncio.run(run())
    assert all(isinstance(o, ServiceError) for o in outcomes)
    assert all("grouping bug" in str(o) for o in outcomes)
    assert not running
    assert "grouping bug" in stats.serve_error
    assert stats.as_metadata()["serve_error"] == stats.serve_error
    assert stats.n_received == 5
    assert stats.n_failed == 5
    assert stats.n_received == (
        stats.n_completed + stats.n_failed + stats.n_deadline_expired
    )


def test_wrong_width_is_rejected_at_admission(served):
    """A request whose instance width differs from the registered
    model's fails at ``submit``, before it is queued — it never reaches
    a batch or the dispatcher — and counts as received and failed."""
    dispatcher, dataset, _ = served

    async def run():
        async with ExplanationServer(dispatcher) as server:
            started = time.perf_counter()
            with pytest.raises(InstanceWidthError, match="takes"):
                await asyncio.wait_for(
                    server.submit(
                        ExplainRequest(
                            model="forest",
                            explainer="kernel_shap",
                            instance=dataset.X[0][:-1],
                            config=SHAP_CONFIG,
                        )
                    ),
                    timeout=1.0,
                )
            elapsed = time.perf_counter() - started
            depth = server.batcher.depth
            return elapsed, depth, server.stats

    elapsed, depth, stats = asyncio.run(run())
    assert elapsed < 1.0
    assert depth == 0
    assert stats.n_received == 1 and stats.n_failed == 1
    assert stats.n_batches == 0
    assert stats.n_received == (
        stats.n_completed + stats.n_failed + stats.n_deadline_expired
    )


def test_model_width_comes_from_model_then_background_then_dataset(served):
    _, dataset, predict_fn = served
    model = RandomForestClassifier(n_estimators=2, max_depth=2).fit(
        dataset.X, dataset.y
    )
    dispatcher = Dispatcher()
    d = dataset.n_features
    assert dispatcher.register_model(
        "a", predict_fn, background=np.zeros((2, 3)), model=model
    ).n_features == d
    assert dispatcher.register_model(
        "b", predict_fn, background=np.zeros((2, 3)), dataset=dataset
    ).n_features == 3
    assert dispatcher.register_model("c", predict_fn, dataset=dataset).n_features == d
    assert dispatcher.register_model("d", predict_fn).n_features is None
    assert dispatcher.n_features("c") == d
    assert dispatcher.n_features("unregistered") is None


# ----------------------------------------------------- per-key dispatch locks
def _config_recording_dispatcher(sleep_s: float):
    """A backend per config that records how many dispatches of each
    config (and in total) are inside the backend at once."""
    dispatcher = Dispatcher()
    dispatcher.register_model("m", lambda X: np.zeros(len(X)))
    guard = threading.Lock()
    inside: dict[int, int] = {}
    peak = {"per_key": 0, "total": 0}

    def factory(entry, config):
        key = config["k"]

        def run(instances, seeds):
            with guard:
                inside[key] = inside.get(key, 0) + 1
                peak["per_key"] = max(peak["per_key"], inside[key])
                peak["total"] = max(peak["total"], sum(inside.values()))
            time.sleep(sleep_s)
            with guard:
                inside[key] -= 1
            return [float(i) for i in range(len(instances))], None

        return run

    dispatcher.register_explainer("rec", factory)
    return dispatcher, peak


def test_key_locks_are_dropped_once_the_server_is_idle():
    """Client-chosen config digests must not grow the lock registry:
    50 distinct configs leave no lock behind once they are served."""
    dispatcher, __ = _config_recording_dispatcher(sleep_s=0.0)

    async def run():
        async with ExplanationServer(dispatcher) as server:
            outcomes = await asyncio.wait_for(
                asyncio.gather(
                    *(
                        server.submit(
                            ExplainRequest(
                                model="m",
                                explainer="rec",
                                instance=np.zeros(2),
                                config={"k": k},
                            )
                        )
                        for k in range(50)
                    )
                ),
                timeout=10.0,
            )
            return outcomes, dict(server._key_locks)

    outcomes, locks = asyncio.run(run())
    assert len(outcomes) == 50
    assert locks == {}


def test_one_in_flight_dispatch_per_batch_key():
    """Batches under one key never overlap in the backend, while
    batches under different keys do.  Requests arrive staggered, so new
    batches keep joining a key while earlier ones still wait on it."""
    dispatcher, peak = _config_recording_dispatcher(sleep_s=0.05)

    async def run():
        async with ExplanationServer(
            dispatcher, max_batch_size=1
        ) as server:
            tasks = []
            for i in range(16):
                request = ExplainRequest(
                    model="m",
                    explainer="rec",
                    instance=np.zeros(2),
                    config={"k": i % 2},
                )
                tasks.append(asyncio.create_task(server.submit(request)))
                await asyncio.sleep(0.01)
            await asyncio.wait_for(asyncio.gather(*tasks), timeout=10.0)

    asyncio.run(run())
    assert peak["per_key"] == 1
    assert peak["total"] == 2
