"""The four xaibench workloads, their shared setup and the correctness
check.

Every workload runs in a fresh process (``python -m benchmarks.xaibench
--role run``, started by :mod:`benchmarks.xaibench.cli`): set up, warm
up for a tenth of the window, measure one timed window, then re-run a
seed-chosen sample of the window's outputs through the serial reference
paths.  ``--seed`` generates all traffic (arrival times, keys, rows and
per-request seeds); the program under test only ever sees the generated
requests.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from benchmarks.xaibench.spans import Tracer, clock, layer_metrics
from xaidb.data import make_income
from xaidb.explainers.base import predict_positive_proba
from xaidb.explainers.lime import LimeExplainer
from xaidb.explainers.shapley import KernelShapExplainer, TreeShapExplainer
from xaidb.models import (
    GradientBoostedClassifier,
    LogisticRegression,
    RandomForestClassifier,
)
from xaidb.rules.anchors import Anchor, AnchorsExplainer
from xaidb.runtime import EvalStats
from xaidb.service import (
    Dispatcher,
    ExplainRequest,
    ExplanationServer,
    ServiceError,
)

__all__ = ["WORKLOADS", "run_child"]

#: A12's explainer budgets: small per-request work, so serving costs show.
CONFIGS: dict[str, dict[str, Any]] = {
    "lime": {"n_samples": 128},
    "kernel_shap": {"n_coalitions": 64},
    "anchors": {
        "batch_size": 32,
        "max_samples_per_candidate": 200,
        "beam_width": 1,
        "max_anchor_size": 2,
    },
    "tree_shap": {},
}

#: The six (explainer, model) keys of A12's served mix
#: (``benchmarks/bench_a12_serving.py``), which its closed loop visits
#: equally often.
A12_KEYS = (
    ("lime", "forest"),
    ("kernel_shap", "gbm"),
    ("anchors", "linear"),
    ("kernel_shap", "forest"),
    ("lime", "linear"),
    ("lime", "gbm"),
)
#: A12 serves no TreeSHAP; its share of serve_mixed is an assumption
#: (README.md says which findings depend on it).
TREE_SHAP_SHARE = 0.10
#: serve_mixed traffic: (explainer, model, weight).  A12's keys keep
#: equal shares of the rest.
MIXED_KEYS = tuple(
    (family, model, (1.0 - TREE_SHAP_SHARE) / len(A12_KEYS))
    for family, model in A12_KEYS
) + (
    ("tree_shap", "forest", TREE_SHAP_SHARE / 2),
    ("tree_shap", "gbm", TREE_SHAP_SHARE / 2),
)
MIXED_RATE = 50.0  # requests per second, open loop
#: serve_hot: every client walks these keys in the same order, so
#: requests for one key arrive together and coalesce.
HOT_KEYS = (
    ("kernel_shap", "forest"),
    ("lime", "forest"),
    ("tree_shap", "gbm"),
)
HOT_CLIENTS = 16
#: explain_bulk pass: (explainer, model, rows per pass).
BULK_PLAN = (
    ("tree_shap", "forest", 1600),
    ("tree_shap", "gbm", 1600),
    ("kernel_shap", "forest", 200),
    ("lime", "forest", 400),
)
PASS_ROWS = sum(rows for _, _, rows in BULK_PLAN)
#: explain_bulk's latency is the time of this call, the largest batch;
#: its throughput is measured over whole passes.
BULK_LATENCY_CALL = ("tree_shap", "forest")

WARMUP, TIMED = 0, 1
CHECK_PREFIX = 16  # prefix outputs re-run through the serial path


# ------------------------------------------------------------------ setup
class TimedPredict:
    """Times one registered prediction function.

    Deliberately sets no ``__wrapped__``: ``EvalStats.wrap_predict_fn``
    unwraps that attribute, which would route every call around the
    timer.  The input array is passed through untouched, so call shapes
    (which KernelSHAP's bitwise replay depends on) do not change.
    """

    def __init__(self, predict_fn, model: str, tracer: Tracer) -> None:
        self.predict_fn = predict_fn
        self.model = model
        self.tracer = tracer

    def __call__(self, X):
        start = clock()
        scores = self.predict_fn(X)
        self.tracer.add(
            "predict",
            start,
            clock(),
            model=self.model,
            rows=len(X) if np.ndim(X) > 1 else 1,
        )
        return scores


class Scene:
    """Data, models and prediction functions shared by every workload:
    ``make_income(2000, random_state=7)``, models fit on rows 0-399,
    explained instances drawn from rows 400-1999."""

    def __init__(self, tracer: Tracer | None) -> None:
        data = make_income(2000, random_state=7).dataset
        self.train = data.subset(np.arange(400))
        self.held_out = data.X[400:]
        self.background = self.train.X[:24]
        X, y = self.train.X, self.train.y
        self.models = {
            "forest": RandomForestClassifier(
                n_estimators=8, max_depth=5, random_state=0
            ).fit(X, y),
            "gbm": GradientBoostedClassifier(
                n_estimators=12, max_depth=3, random_state=1
            ).fit(X, y),
            "linear": LogisticRegression(l2=1e-2).fit(X, y),
        }
        #: Untimed prediction functions, for the serial reference path.
        self.raw = {
            name: predict_positive_proba(model)
            for name, model in self.models.items()
        }
        self.predict = (
            dict(self.raw)
            if tracer is None
            else {
                name: TimedPredict(fn, name, tracer)
                for name, fn in self.raw.items()
            }
        )

    def reference(self, family: str, model: str, instance, seed):
        """The serial path an output must equal bitwise."""
        predict_fn, config = self.raw[model], CONFIGS[family]
        if family == "lime":
            return LimeExplainer(self.train, **config).explain(
                predict_fn, instance, random_state=seed
            )
        if family == "kernel_shap":
            return KernelShapExplainer(
                predict_fn, self.background, **config
            ).explain(instance, random_state=seed)
        if family == "anchors":
            return AnchorsExplainer(predict_fn, self.train, **config).explain(
                instance, random_state=seed
            )
        # the per-row recursion, not the batch kernel
        return TreeShapExplainer(self.models[model]).explain(instance)


def same(result, reference) -> bool:
    if isinstance(reference, Anchor):
        return (
            result.predicates == reference.predicates
            and result.precision == reference.precision
        )
    return bool(np.array_equal(result.values, reference.values))


def output_bytes(result) -> bytes:
    if isinstance(result, Anchor):
        return json.dumps([result.predicates, repr(result.precision)]).encode()
    return np.asarray(result.values, dtype=float).tobytes()


# ---------------------------------------------------------------- windows
@dataclass
class Window:
    """What one timed window measured."""

    latencies: list[float] = field(default_factory=list)
    #: explain_bulk only: the time of each whole pass.
    passes: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    lag: list[float] = field(default_factory=list)
    service: dict[str, float] = field(default_factory=dict)
    runtime: dict[str, float] = field(default_factory=dict)


class Keeper:
    """Retains the outputs the digest and the correctness check need:
    every output with index below ``prefix`` (the digest covers exactly
    those) plus every ``stride``-th one from a seed-chosen ``phase``, so
    memory does not grow with throughput."""

    def __init__(self, prefix: int, stride: int, phase: int) -> None:
        self.prefix = prefix
        self.stride = stride
        self.phase = phase
        self.kept: dict[int, tuple] = {}

    def keep(self, index: int, family, model, instance, seed, result) -> None:
        if index < self.prefix or index % self.stride == self.phase:
            self.kept[index] = (family, model, instance, seed, result)

    def digest(self) -> str:
        digest = hashlib.sha256()
        for index in range(self.prefix):
            if index in self.kept:
                family, model, _, seed, result = self.kept[index]
                digest.update(f"{index}:{family}:{model}:{seed}:".encode())
                digest.update(output_bytes(result))
        return digest.hexdigest()


class Workload:
    """One workload: ``setup`` (counted in ``setup_s``), then windows."""

    #: Outputs retained for the digest.
    digest_outputs = 64

    def __init__(self, name: str, seed: int, tracer: Tracer | None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.index = WORKLOAD_NAMES.index(name)

    def rng(self, phase: int, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.index, phase, *stream])

    def seed_base(self, rng: np.random.Generator) -> int:
        """First per-request seed; request ``i`` uses ``base + i``, so
        seeds are unique within a window."""
        return int(rng.integers(0, 2**40))

    def keeper(self, seconds: float, warm: Window) -> Keeper:
        """Sized from the warm-up window's output rate, so the stride
        sample holds about 16 outputs on any host."""
        rate = warm.rows / warm.elapsed
        stride = max(1, int(rate * seconds / 16))
        phase = int(self.rng(TIMED, 1).integers(stride))
        return Keeper(self.digest_outputs, stride, phase)

    def rows_per_s(self, window: Window) -> float:
        return window.rows / window.elapsed

    def trace_explain(self, start, end, family, model, rows) -> None:
        if self.tracer is not None:
            self.tracer.add(
                "explain", start, end, family=family, model=model, rows=rows
            )


# ------------------------------------------------------------- serving
class TracedDispatcher(Dispatcher):
    """Records one ``dispatch`` span per coalesced batch, and an
    ``explain`` span over the same interval: with every backend built
    and cached during warm-up, all a dispatch adds to the backend's
    ``explain_batch`` call is a dict lookup.  ``assign_parents`` nests
    the explain span, recorded second, inside the dispatch span."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def dispatch(self, model, explainer, config, instances, seeds):
        start = clock()
        results = super().dispatch(model, explainer, config, instances, seeds)
        end = clock()
        self.tracer.add(
            "dispatch",
            start,
            end,
            model=model,
            explainer=explainer,
            rows=len(seeds),
            seeds=list(seeds),
        )
        self.tracer.add(
            "explain", start, end, family=explainer, model=model,
            rows=len(seeds),
        )
        return results


class ServeWorkload(Workload):
    """A served workload: requests go through ``ExplanationServer`` with
    default settings, no deadline, on one event loop per window."""

    keys: tuple = ()

    def setup(self) -> None:
        self.scene = Scene(self.tracer)
        self.dispatcher = (
            Dispatcher()
            if self.tracer is None
            else TracedDispatcher(self.tracer)
        )
        for model in self.scene.models:
            self.dispatcher.register_model(
                model,
                self.scene.predict[model],
                dataset=self.scene.train,
                background=self.scene.background,
                model=self.scene.models[model],
            )
        asyncio.run(self._warm_calls())

    async def _warm_calls(self) -> None:
        """One request per served key: builds and caches every backend."""
        async with ExplanationServer(self.dispatcher) as server:
            for family, model, *_ in self.keys:
                await server.submit(
                    ExplainRequest(
                        model=model,
                        explainer=family,
                        instance=self.scene.held_out[0],
                        config=CONFIGS[family],
                        random_state=0,
                    )
                )

    def window(self, seconds: float, phase: int, keeper) -> Window:
        return asyncio.run(self._window(seconds, phase, keeper))

    async def _window(self, seconds, phase, keeper) -> Window:
        window = Window()
        server = ExplanationServer(self.dispatcher)
        async with server:
            await self.traffic(server, window, seconds, phase, keeper)
        stats = server.stats
        window.service = {
            "queue_depth_peak": stats.queue_depth_peak,
            "shed": stats.n_shed,
            "deadline_expired": stats.n_deadline_expired,
            "failed": stats.n_failed,
        }
        window.runtime = runtime_counters(stats.runtime)
        window.rows = len(window.latencies)
        return window

    async def request(
        self, server, window, keeper, index, due, family, model, row, seed
    ) -> None:
        instance = self.scene.held_out[row]
        try:
            response = await server.submit(
                ExplainRequest(
                    model=model,
                    explainer=family,
                    instance=instance,
                    config=CONFIGS[family],
                    random_state=seed,
                )
            )
        except ServiceError:
            window.failed += 1
            return
        end = clock()
        window.latencies.append(end - due)
        if self.tracer is not None:
            self.tracer.add("request", due, end, seed=seed, family=family)
        if keeper is not None:
            keeper.keep(index, family, model, instance, seed, response.result)


def exact_mix(n: int, keys) -> np.ndarray:
    """Requests per key: ``n`` split by the keys' weights, remainders to
    the largest fractional parts."""
    weights = np.asarray([weight for *_, weight in keys])
    quotas = weights / weights.sum() * n
    counts = np.floor(quotas).astype(int)
    short = n - int(counts.sum())
    counts[np.argsort(counts - quotas, kind="stable")[:short]] += 1
    return counts


class ServeMixed(ServeWorkload):
    """Open loop: independent interactive users, Poisson arrivals."""

    keys = MIXED_KEYS

    def keeper(self, seconds: float, warm: Window) -> Keeper:
        keeper = super().keeper(seconds, warm)
        keeper.prefix = self.n_requests(seconds)  # the digest covers all
        return keeper

    @staticmethod
    def n_requests(seconds: float) -> int:
        return max(1, round(MIXED_RATE * seconds))

    async def traffic(self, server, window, seconds, phase, keeper) -> None:
        # A Poisson process conditioned on its count: the count is fixed
        # by the window, the arrival times are sorted uniform draws.  The
        # key mix is exact, only its order is random: an i.i.d. draw
        # would vary the number of slow (TreeSHAP, Anchors) requests
        # from seed to seed, and with it the tail latency.
        rng = self.rng(phase)
        n = self.n_requests(seconds)
        offsets = np.sort(rng.uniform(0.0, seconds, size=n))
        keys = rng.permutation(
            np.repeat(np.arange(len(MIXED_KEYS)), exact_mix(n, MIXED_KEYS))
        )
        rows = rng.integers(0, len(self.scene.held_out), size=n)
        base = self.seed_base(rng)
        window.attempted = n
        tasks = []
        start = clock()
        for i in range(n):
            due = start + float(offsets[i])
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            window.lag.append(clock() - due)
            family, model, _ = MIXED_KEYS[keys[i]]
            tasks.append(
                asyncio.create_task(
                    self.request(
                        server, window, keeper, i, due, family, model,
                        int(rows[i]), base + i,
                    )
                )
            )
        await asyncio.gather(*tasks)
        window.elapsed = clock() - start


class ServeHot(ServeWorkload):
    """Closed loop: 16 clients walking the same three keys in lockstep."""

    keys = HOT_KEYS
    digest_outputs = 16 * HOT_CLIENTS

    async def traffic(self, server, window, seconds, phase, keeper) -> None:
        base = self.seed_base(self.rng(phase))
        start = clock()
        end = start + seconds
        # the digest needs its prefix rounds even on a slow host
        min_rounds = 0 if keeper is None else keeper.prefix // HOT_CLIENTS

        async def client(c: int) -> None:
            rng = self.rng(phase, 2, c)
            r = 0
            while clock() < end or r < min_rounds:
                family, model = HOT_KEYS[r % len(HOT_KEYS)]
                index = r * HOT_CLIENTS + c
                window.attempted += 1
                await self.request(
                    server, window, keeper, index, clock(), family, model,
                    int(rng.integers(len(self.scene.held_out))), base + index,
                )
                r += 1

        await asyncio.gather(*(client(c) for c in range(HOT_CLIENTS)))
        window.elapsed = clock() - start


# ------------------------------------------------------------- library
class ExplainSingle(Workload):
    """One notebook caller explaining one row at a time, closed loop."""

    def setup(self) -> None:
        scene = self.scene = Scene(self.tracer)
        tree = {
            m: TreeShapExplainer(scene.models[m]) for m in ("forest", "gbm")
        }
        kernel = KernelShapExplainer(
            scene.predict["forest"], scene.background, **CONFIGS["kernel_shap"]
        )
        lime = LimeExplainer(scene.train, **CONFIGS["lime"])
        predict = scene.predict["forest"]
        self.calls = (
            ("tree_shap", "forest", lambda x, s: tree["forest"].explain(x)),
            ("tree_shap", "gbm", lambda x, s: tree["gbm"].explain(x)),
            (
                "kernel_shap",
                "forest",
                lambda x, s: kernel.explain(x, random_state=s),
            ),
            (
                "lime",
                "forest",
                lambda x, s: lime.explain(predict, x, random_state=s),
            ),
        )
        for _, _, call in self.calls:
            call(scene.held_out[0], 0)

    def window(self, seconds: float, phase: int, keeper) -> Window:
        window = Window()
        rng = self.rng(phase)
        base = self.seed_base(rng)
        held_out = self.scene.held_out
        ledger = EvalStats()
        hit_rates = []
        min_calls = 0 if keeper is None else keeper.prefix
        start = clock()
        end = start + seconds
        i = 0
        while clock() < end or i < min_calls:
            family, model, call = self.calls[i % len(self.calls)]
            instance = held_out[int(rng.integers(len(held_out)))]
            seed = base + i
            t0 = clock()
            result = call(instance, seed)
            t1 = clock()
            window.latencies.append(t1 - t0)
            if self.tracer is not None:
                self.trace_explain(t0, t1, family, model, 1)
                meta = result.metadata
                ledger.count_rows(meta.get("n_model_evals", 0))
                ledger.cache_evictions += meta.get("cache_evictions", 0)
                ledger.n_serial_fallbacks += meta.get("n_serial_fallbacks", 0)
                if family == "kernel_shap":
                    hit_rates.append(meta["cache_hit_rate"])
            if keeper is not None:
                keeper.keep(i, family, model, instance, seed, result)
            i += 1
        window.elapsed = clock() - start
        window.attempted = window.rows = i
        window.runtime = runtime_counters(ledger)
        # explanation metadata carries per-call rates, not hit counts:
        # report the mean rate of the memoising (KernelSHAP) calls
        window.runtime["cache_hit_rate"] = (
            float(np.mean(hit_rates)) if hit_rates else 0.0
        )
        return window


class ExplainBulk(Workload):
    """Explaining a whole table: repeated passes of batch calls."""

    digest_outputs = PASS_ROWS  # the first pass

    def setup(self) -> None:
        scene = self.scene = Scene(self.tracer)
        self.explainers = {
            ("tree_shap", "forest"): TreeShapExplainer(scene.models["forest"]),
            ("tree_shap", "gbm"): TreeShapExplainer(scene.models["gbm"]),
            ("kernel_shap", "forest"): KernelShapExplainer(
                scene.predict["forest"],
                scene.background,
                **CONFIGS["kernel_shap"],
            ),
            ("lime", "forest"): LimeExplainer(scene.train, **CONFIGS["lime"]),
        }
        for family, model, _ in BULK_PLAN:
            self.batch(family, model, scene.held_out[:1], [0])

    def rows_per_s(self, window: Window) -> float:
        return PASS_ROWS / float(np.median(window.passes))

    def batch(self, family, model, X, seeds):
        explainer = self.explainers[family, model]
        if family == "lime":
            return explainer.explain_batch(
                self.scene.predict[model], X, seeds=seeds
            )
        return explainer.explain_batch(X, seeds=seeds)

    def window(self, seconds: float, phase: int, keeper) -> Window:
        window = Window()
        rng = self.rng(phase)
        base = self.seed_base(rng)
        held_out = self.scene.held_out
        ledger = EvalStats()
        start = clock()
        end = start + seconds
        passes = 0
        while passes == 0 or clock() < end:
            index = passes * PASS_ROWS
            done = []
            t0 = clock()
            for family, model, n_rows in BULK_PLAN:
                rows = (
                    np.arange(len(held_out))
                    if n_rows == len(held_out)
                    else rng.choice(len(held_out), size=n_rows, replace=False)
                )
                seeds = list(range(base + index, base + index + n_rows))
                c0 = clock()
                results = self.batch(family, model, held_out[rows], seeds)
                c1 = clock()
                if (family, model) == BULK_LATENCY_CALL:
                    window.latencies.append(c1 - c0)
                if self.tracer is not None:
                    self.trace_explain(c0, c1, family, model, n_rows)
                    explainer = self.explainers[family, model]
                    stats = getattr(explainer, "batch_stats_", None)
                    if stats is not None:  # TreeSHAP keeps no ledger
                        ledger.merge(stats)
                done.append((index, family, model, rows, seeds, results))
                index += n_rows
            window.passes.append(clock() - t0)
            passes += 1
            if keeper is not None:
                for first, family, model, rows, seeds, results in done:
                    for j, result in enumerate(results):
                        keeper.keep(
                            first + j, family, model, held_out[rows[j]],
                            seeds[j], result,
                        )
        window.elapsed = clock() - start
        window.attempted = window.rows = passes * PASS_ROWS
        window.runtime = runtime_counters(ledger)
        return window


WORKLOADS: dict[str, type[Workload]] = {
    "serve_mixed": ServeMixed,
    "serve_hot": ServeHot,
    "explain_single": ExplainSingle,
    "explain_bulk": ExplainBulk,
}
WORKLOAD_NAMES = tuple(WORKLOADS)


# ------------------------------------------------------------ measuring
def runtime_counters(stats: EvalStats) -> dict[str, float]:
    return {
        "n_model_evals": stats.n_model_evals,
        "cache_hit_rate": stats.cache_hit_rate,
        "cache_evictions": stats.cache_evictions,
        "n_serial_fallbacks": stats.n_serial_fallbacks,
    }


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


def check_outputs(workload: Workload, keeper: Keeper) -> tuple[int, list[str]]:
    """Re-run a seed-chosen sample of retained outputs through the serial
    reference: ``CHECK_PREFIX`` from the digest prefix plus the whole
    stride sample."""
    prefix = sorted(i for i in keeper.kept if i < keeper.prefix)
    rng = workload.rng(TIMED, 3)
    chosen = rng.choice(
        len(prefix), size=min(CHECK_PREFIX, len(prefix)), replace=False
    )
    sample = sorted(
        {prefix[int(c)] for c in chosen}
        | {i for i in keeper.kept if i >= keeper.prefix}
    )
    mismatches = []
    for index in sample:
        family, model, instance, seed, result = keeper.kept[index]
        reference = workload.scene.reference(family, model, instance, seed)
        if not same(result, reference):
            mismatches.append(
                f"output {index} ({family}/{model}, seed {seed})"
            )
    return len(sample), mismatches


def check_trace(spans, window: Window, served: bool) -> list[str]:
    """Invariants a traced served window must satisfy: each request
    contains the dispatch that served it (so wait + dispatch + return is
    its latency), and the predict spans saw every row the runtime ledger
    counted."""
    if not served:
        return []
    problems = []
    for span in spans:
        if span.kind != "request":
            continue
        if span.dispatch is None:
            problems.append(
                f"request seed {span.attrs['seed']} has no dispatch"
            )
            continue
        served_by = spans[span.dispatch]
        if served_by.start < span.start or served_by.end > span.end:
            problems.append(
                f"dispatch of request seed {span.attrs['seed']} lies "
                f"outside the request"
            )
    model_rows = sum(s.attrs["rows"] for s in spans if s.kind == "predict")
    if model_rows != window.runtime["n_model_evals"]:
        problems.append(
            f"predict spans scored {model_rows} rows, runtime ledger "
            f"counted {window.runtime['n_model_evals']}"
        )
    return problems


def host_facts() -> dict[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
    }


def _percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(latencies, q)) * 1e3


def run_child(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    started: float,
    setup_only: bool,
    spans_dir: str | None,
) -> dict[str, Any]:
    """One workload, in this process; returns its record."""
    tracer = Tracer() if traced else None
    workload = WORKLOADS[name](name, seed, tracer)
    workload.setup()
    record: dict[str, Any] = {"workload": name, "setup_s": clock() - started}
    if setup_only:
        return record
    warm = workload.window(0.1 * seconds, WARMUP, None)
    if tracer is not None:
        tracer.clear()
    keeper = workload.keeper(seconds, warm)
    window = workload.window(seconds, TIMED, keeper)
    record["peak_rss_mb"] = peak_rss_mb()
    spans = tracer.spans() if tracer is not None else []
    checked, mismatches = check_outputs(workload, keeper)
    problems = check_trace(
        spans, window, traced and isinstance(workload, ServeWorkload)
    )
    lat = window.latencies
    record.update(
        {
            "latency_p50_ms": _percentile_ms(lat, 50),
            "latency_p99_ms": _percentile_ms(lat, 99),
            "rows_per_s": workload.rows_per_s(window),
            "samples": len(lat),
            "attempted": window.attempted,
            "failed": window.failed,
            "checked": checked,
            "mismatches": mismatches,
            "trace_problems": problems,
            "output_digest": keeper.digest(),
            "digest_outputs": keeper.prefix,
            "correct": not mismatches and not problems and not window.failed,
            "host": host_facts(),
        }
    )
    if tracer is not None:
        record["layers"] = layer_metrics(
            spans,
            service=window.service,
            runtime=window.runtime,
            lag_s=window.lag,
        )
        if spans_dir is not None:
            out = Path(spans_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{name}.json").write_text(
                json.dumps(
                    {"workload": name, "spans": [s.as_dict() for s in spans]}
                )
            )
    return record
