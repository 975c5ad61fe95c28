"""In-memory spans and the per-layer metrics derived from them.

A traced run records four span kinds, each from the benchmark's side of
a public entry point:

- ``request``: one served request, from its due (or submit) time to the
  return of ``ExplanationServer.submit``; keyed by the request's unique
  seed;
- ``dispatch``: one ``Dispatcher.dispatch`` call, carrying the model,
  explainer, row count and the seeds of the requests it served;
- ``explain``: one explainer entry point (a library
  ``explain``/``explain_batch`` call, or a served backend call, timed
  over the same interval as its dispatch);
- ``predict``: one call into a registered prediction function.

Parents are assigned afterwards, never while recording: within one
thread a span's parent is the innermost span whose interval contains
it (a thread runs one call at a time, so containment is nesting).  A
request runs on the event-loop thread while its dispatch runs in a
worker thread, so requests are linked to their dispatch through seed
membership instead.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "FAMILIES",
    "MODELS",
    "Span",
    "Tracer",
    "assign_parents",
    "covered",
    "layer_metrics",
    "link_requests",
]

#: Explainer families and served models the layer metrics are keyed by.
FAMILIES = ("lime", "kernel_shap", "tree_shap", "anchors")
MODELS = ("forest", "gbm", "linear")

clock = time.perf_counter


@dataclass
class Span:
    kind: str
    start: float
    end: float
    thread: int
    attrs: dict[str, Any] = field(default_factory=dict)
    #: Index of the enclosing span in the same thread, or ``None``.
    parent: int | None = None
    #: For ``request`` spans: index of the dispatch that served it.
    dispatch: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
            "parent": self.parent,
            "dispatch": self.dispatch,
            **self.attrs,
        }


class Tracer:
    """Append-only span log shared by the event loop and worker threads
    (``list.append`` is atomic under the interpreter lock)."""

    def __init__(self) -> None:
        self._records: list[tuple] = []

    def add(self, kind: str, start: float, end: float, **attrs: Any) -> None:
        self._records.append(
            (kind, start, end, threading.get_ident(), attrs)
        )

    def clear(self) -> None:
        self._records = []

    def spans(self) -> list[Span]:
        spans = [Span(*record) for record in self._records]
        assign_parents(spans)
        link_requests(spans)
        return spans


def assign_parents(spans: list[Span]) -> None:
    """Set each span's parent to the innermost span of the same thread
    whose interval contains it (ties: the longer span encloses)."""
    by_thread: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        by_thread.setdefault(span.thread, []).append(index)
    for members in by_thread.values():
        members.sort(key=lambda i: (spans[i].start, -spans[i].end))
        stack: list[int] = []
        for index in members:
            span = spans[index]
            while stack and spans[stack[-1]].end < span.end:
                stack.pop()
            span.parent = stack[-1] if stack else None
            stack.append(index)


def link_requests(spans: list[Span]) -> None:
    """Point every request span at the dispatch whose seed list holds
    the request's seed."""
    by_seed = {
        seed: index
        for index, span in enumerate(spans)
        if span.kind == "dispatch"
        for seed in span.attrs["seeds"]
    }
    for span in spans:
        if span.kind == "request":
            span.dispatch = by_seed.get(span.attrs["seed"])


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(
    spans: list[Span],
    *,
    service: dict[str, float] | None = None,
    runtime: dict[str, float] | None = None,
    lag_s: list[float] | None = None,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``.

    ``service`` holds the ``ServiceStats`` counters of a served window,
    ``runtime`` the merged ``EvalStats`` counters, ``lag_s`` the open-loop
    generator's lateness samples.  A layer a workload does not pass
    through reads 0.
    """
    service = service or {}
    runtime = runtime or {}
    out: dict[str, tuple[float, str]] = {}
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    # service: wait before dispatch and return after it, per request
    waits, returns = [], []
    for span in spans:
        if span.kind == "request" and span.dispatch is not None:
            served_by = spans[span.dispatch]
            waits.append(served_by.start - span.start)
            returns.append(span.end - served_by.end)
    dispatches = [span for span in spans if span.kind == "dispatch"]
    out["service.wait_p50_ms"] = (_pct(waits, 50) * 1e3, "ms")
    out["service.wait_p99_ms"] = (_pct(waits, 99) * 1e3, "ms")
    out["service.return_p99_ms"] = (_pct(returns, 99) * 1e3, "ms")
    out["service.batch_mean"] = (
        float(np.mean([s.attrs["rows"] for s in dispatches]))
        if dispatches
        else 0.0,
        "requests/batch",
    )
    out["service.batches"] = (float(len(dispatches)), "count")
    for name in ("queue_depth_peak", "shed", "deadline_expired", "failed"):
        out[f"service.{name}"] = (float(service.get(name, 0)), "requests")
    out["loop.lag_p99_ms"] = (_pct(lag_s or [], 99) * 1e3, "ms")

    # dispatcher: calls, busy time, mean concurrency while busy
    busy = sum(span.duration for span in dispatches)
    union = covered([(span.start, span.end) for span in dispatches])
    out["dispatch.calls"] = (float(len(dispatches)), "count")
    out["dispatch.busy_s"] = (busy, "s")
    out["dispatch.overlap"] = (
        busy / union if union > 0 else 0.0,
        "dispatches",
    )

    # explainers: self time excludes the predict spans nested inside
    explain_busy = 0.0
    for family in FAMILIES:
        calls = [
            (index, span)
            for index, span in enumerate(spans)
            if span.kind == "explain" and span.attrs["family"] == family
        ]
        rows = sum(span.attrs["rows"] for _, span in calls)
        self_s = sum(
            span.duration
            - covered(
                [
                    (child.start, child.end)
                    for child in children.get(index, [])
                    if child.kind == "predict"
                ]
            )
            for index, span in calls
        )
        explain_busy += sum(span.duration for _, span in calls)
        prefix = f"explainer.{family}"
        out[f"{prefix}.calls"] = (float(len(calls)), "count")
        out[f"{prefix}.rows"] = (float(rows), "rows")
        out[f"{prefix}.p50_ms"] = (
            _pct([span.duration for _, span in calls], 50) * 1e3,
            "ms",
        )
        out[f"{prefix}.self_ms_per_row"] = (
            self_s / rows * 1e3 if rows else 0.0,
            "ms/row",
        )

    # models: every call into a registered prediction function
    model_busy = 0.0
    for model in MODELS:
        calls = [
            span
            for span in spans
            if span.kind == "predict" and span.attrs["model"] == model
        ]
        rows = sum(span.attrs["rows"] for span in calls)
        seconds = sum(span.duration for span in calls)
        model_busy += seconds
        prefix = f"model.{model}"
        out[f"{prefix}.calls"] = (float(len(calls)), "count")
        out[f"{prefix}.rows"] = (float(rows), "rows")
        out[f"{prefix}.busy_s"] = (seconds, "s")
        out[f"{prefix}.rows_per_call"] = (
            rows / len(calls) if calls else 0.0,
            "rows/call",
        )
    out["model.share"] = (
        model_busy / explain_busy if explain_busy > 0 else 0.0,
        "ratio",
    )

    out["runtime.n_model_evals"] = (
        float(runtime.get("n_model_evals", 0)),
        "rows",
    )
    out["runtime.cache_hit_rate"] = (
        float(runtime.get("cache_hit_rate", 0.0)),
        "ratio",
    )
    out["runtime.cache_evictions"] = (
        float(runtime.get("cache_evictions", 0)),
        "count",
    )
    out["runtime.n_serial_fallbacks"] = (
        float(runtime.get("n_serial_fallbacks", 0)),
        "count",
    )
    return out
