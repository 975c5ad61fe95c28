"""The dispatcher's backend cache is a bounded LRU.

Backend keys carry a digest of the client-supplied config, so a client
cycling through configs must not grow the cache without limit, and a
backend dropped from it must come back with bitwise-equal results.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from xaidb.data import make_income
from xaidb.explainers.base import predict_positive_proba
from xaidb.models import RandomForestClassifier
from xaidb.service import Dispatcher
from xaidb.service import dispatcher as dispatcher_module
from xaidb.service.types import config_digest

BOUND = 4


@pytest.fixture(scope="module")
def entry():
    dataset = make_income(200, random_state=5).dataset
    model = RandomForestClassifier(
        n_estimators=4, max_depth=3, random_state=0
    ).fit(dataset.X, dataset.y)
    return dataset, predict_positive_proba(model)


def _dispatcher(entry) -> Dispatcher:
    dataset, predict_fn = entry
    dispatcher = Dispatcher()
    dispatcher.register_model(
        "forest", predict_fn, dataset=dataset, background=dataset.X[:8]
    )
    return dispatcher


def _key(n_samples):
    return ("forest", "lime", config_digest({"n_samples": n_samples}))


def _run(dispatcher, dataset, n_samples):
    results, _ = dispatcher.dispatch(
        "forest", "lime", {"n_samples": n_samples}, dataset.X[:3], [7, 8, 9]
    )
    return [result.values.tobytes() for result in results]


def test_distinct_configs_leave_at_most_the_bound(entry):
    bound = dispatcher_module.MAX_BACKENDS
    dataset, _ = entry
    dispatcher = _dispatcher(entry)
    first = _run(dispatcher, dataset, 20)
    for n_samples in range(21, 21 + bound):  # bound + 1 distinct configs
        _run(dispatcher, dataset, n_samples)
        assert len(dispatcher._backends) <= bound
    assert len(dispatcher._backends) == bound
    # the first config was the least recently used: it was dropped, and
    # the backend rebuilt for it returns bitwise-equal results
    assert _key(20) not in dispatcher._backends
    assert _run(dispatcher, dataset, 20) == first
    assert _key(20) in dispatcher._backends
    assert len(dispatcher._backends) == bound


def test_recently_used_backend_survives(entry, monkeypatch):
    monkeypatch.setattr(dispatcher_module, "MAX_BACKENDS", 2)
    dataset, _ = entry
    dispatcher = _dispatcher(entry)
    _run(dispatcher, dataset, 20)
    _run(dispatcher, dataset, 21)
    hot = dispatcher._backend("forest", "lime", {"n_samples": 20})
    _run(dispatcher, dataset, 22)  # evicts 21, the least recently used
    assert dispatcher._backend("forest", "lime", {"n_samples": 20}) is hot
    assert _key(21) not in dispatcher._backends
    assert len(dispatcher._backends) == 2


def test_concurrent_dispatch_keeps_the_bound(entry, monkeypatch):
    """More threads than cores, switching often, cycling through twice
    the bound's configs: every result stays bitwise, and the cache never
    ends above the bound."""
    monkeypatch.setattr(dispatcher_module, "MAX_BACKENDS", BOUND)
    dataset, _ = entry
    dispatcher = _dispatcher(entry)
    configs = range(20, 20 + 2 * BOUND)
    want = {n: _run(_dispatcher(entry), dataset, n) for n in configs}
    errors = []

    def worker(offset):
        try:
            for i in range(16):
                n = configs[(offset + i) % len(configs)]
                assert _run(dispatcher, dataset, n) == want[n]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(dispatcher._backends) <= BOUND
