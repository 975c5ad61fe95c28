"""Self-test of the xaibench benchmark (``benchmarks/xaibench``).

Runs every workload once, traced, with a one-second window, and checks
the printed metrics against ``BENCHMARK.json``; unit-tests the span
bookkeeping the per-layer metrics are derived from on a synthetic span
set.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.xaibench.spans import (
    Span,
    assign_parents,
    covered,
    layer_metrics,
    link_requests,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DECLARED = {
    m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
}
NAME = re.compile(r"[A-Za-z0-9_.-]+")
METRIC_LINE = re.compile(r"^(\S+) (\S+) (-?[0-9.e+-]+|nan|inf) (\S+)$")


def _run(*args: str, cwd: Path = REPO_ROOT, env=None) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "benchmarks.xaibench", *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _finish(proc: subprocess.Popen) -> tuple[int, str, str]:
    try:
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out, err


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    return tmp_path_factory.mktemp("xaibench")


@pytest.fixture(scope="module")
def runs(records):
    """Every workload traced, plus one untraced workload, at 1 s; the
    traced explain_single run reports its overhead against the untraced
    one."""
    common = ("--seconds", "1", "--seed", "3")
    untraced = _run(
        "--workload", "explain_single", *common,
        "--json", str(records / "untraced.json"),
    )
    procs = {
        name: _run("--workload", name, "--trace", "1", *common)
        for name in WORKLOADS
        if name != "explain_single"
    }
    finished = {"untraced": _finish(untraced)}
    procs["explain_single"] = _run(
        "--workload", "explain_single", "--trace", "1", *common,
        "--baseline", str(records / "untraced.json"),
        "--json", str(records / "traced.json"),
    )
    finished.update({name: _finish(proc) for name, proc in procs.items()})
    return finished


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_declared_metric(runs, workload):
    code, out, err = runs[workload]
    assert code == 0, err
    lines = out.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        match = METRIC_LINE.match(line)
        if match and match.group(1) == workload:
            printed[match.group(2)] = match.group(4)
    assert printed == DECLARED  # every declared metric, no other
    assert all(NAME.fullmatch(name) for name in printed)

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1  # error_rate 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    info = next(line for line in lines if line.startswith(f"{workload}: "))
    assert "mismatches=0" in info
    assert int(re.search(r"checked=(\d+)", info).group(1)) >= 16


def test_untraced_result_carries_the_end_to_end_metrics(runs):
    code, out, err = runs["untraced"]
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_digest_does_not_depend_on_tracing(runs):
    def digest(out):
        return re.search(r"output_digest=(\w+)", out).group(1)

    assert digest(runs["untraced"][1]) == digest(runs["explain_single"][1])


def test_tracing_overhead_compares_like_with_like(runs, records):
    """Against a baseline, setup_s is a median over as many processes as
    the baseline's, and the overhead covers every end-to-end metric."""
    assert runs["explain_single"][0] == 0
    untraced, traced = (
        json.loads((records / f"{name}.json").read_text())["workloads"][
            "explain_single"
        ]
        for name in ("untraced", "traced")
    )
    assert len(traced["setup_runs"]) == len(untraced["setup_runs"]) > 1
    assert set(traced["trace_overhead"]) == {
        m["name"] for m in SPEC["end_to_end"]
    }
    assert "explain_single: trace_overhead setup_s=" in runs["explain_single"][1]


def test_fails_without_the_program(tmp_path):
    """Holding only BENCHMARK.json and the benchmark's own files, the
    command exits non-zero and prints no result."""
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            REPO_ROOT / path,
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    code, out, _ = _finish(
        _run("--workload", "explain_single", "--seconds", "1",
             cwd=tmp_path, env=env)
    )
    assert code != 0
    assert '"correct"' not in out


# ------------------------------------------------------- span bookkeeping
def _synthetic() -> list[Span]:
    worker, loop = 1, 2
    return [
        Span("dispatch", 0.0, 10.0, worker,
             {"model": "forest", "explainer": "kernel_shap", "rows": 2,
              "seeds": [7, 8]}),
        Span("explain", 1.0, 9.0, worker,
             {"family": "kernel_shap", "model": "forest", "rows": 2}),
        Span("predict", 2.0, 3.0, worker, {"model": "forest", "rows": 100}),
        Span("predict", 3.0, 5.0, worker, {"model": "forest", "rows": 50}),
        Span("request", -1.0, 11.0, loop, {"seed": 7, "family": "kernel_shap"}),
        Span("request", -0.5, 12.0, loop, {"seed": 8, "family": "kernel_shap"}),
        # a second dispatch on another worker overlapping the first
        Span("dispatch", 5.0, 15.0, 3,
             {"model": "gbm", "explainer": "lime", "rows": 1, "seeds": [9]}),
    ]


def test_parents_follow_thread_and_time_containment():
    spans = _synthetic()
    assign_parents(spans)
    link_requests(spans)
    # the second request outlives the first: siblings, not nested
    assert [s.parent for s in spans] == [None, 0, 1, 1, None, None, None]
    # requests are linked through seed membership, not containment
    assert spans[4].dispatch == 0 and spans[5].dispatch == 0
    assert spans[6].dispatch is None


def test_covered_merges_overlaps():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert not covered([])


def test_layer_metrics_self_time_and_split():
    spans = _synthetic()
    assign_parents(spans)
    link_requests(spans)
    metrics = {k: v for k, (v, _) in layer_metrics(spans).items()}
    # 8 s explain span minus 3 s of predict children, over 2 rows
    assert metrics["explainer.kernel_shap.self_ms_per_row"] == pytest.approx(
        2500.0
    )
    assert metrics["model.forest.rows"] == 150
    assert metrics["model.forest.rows_per_call"] == 75
    assert metrics["model.share"] == pytest.approx(3.0 / 8.0)
    # waits 1.0 and 0.5 s before the dispatch; returns 1 and 2 s after
    assert metrics["service.wait_p50_ms"] == pytest.approx(750.0)
    assert metrics["service.return_p99_ms"] == pytest.approx(1990.0)
    # 20 s of dispatch over a 15 s union
    assert metrics["dispatch.overlap"] == pytest.approx(20.0 / 15.0)
    assert metrics["service.batch_mean"] == pytest.approx(1.5)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
