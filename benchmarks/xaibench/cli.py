"""Command line of xaibench.

Runs each requested workload in fresh processes, one after another (so
process-wide caches such as the KernelSHAP design LRU never leak from
one workload into the next), prints every metric as ``workload metric
value unit``, and ends with one JSON result line.  This module imports
only the standard library; the workload processes import ``xaidb``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

__all__ = ["END_TO_END", "WORKLOADS", "main"]

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("serve_mixed", "serve_hot", "explain_single", "explain_bulk")
#: End-to-end metrics as (name, unit); every workload reports each one.
#: The p99 latency is printed as well but is not among them: its
#: run-to-run spread exceeds any bound the benchmark may set (README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("rows_per_s", "rows/s"),
)
#: The p99 is printed only when at least ten samples lie beyond it.
P99_MIN_SAMPLES = 1000
#: setup_s is the median over this many fresh processes per workload.
SETUP_RUNS = 3
#: Budget for one workload process beyond its measured windows.
CHILD_SLACK_S = 120.0


class ChildFailed(RuntimeError):
    """A workload process exited without a record."""


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.xaibench",
        description="Measure served and library explanations end to end "
        "and per layer.",
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=WORKLOADS,
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0, help="traffic seed")
    parser.add_argument(
        "--seconds",
        "--duration",
        dest="seconds",
        type=float,
        default=30.0,
        help="length of each timed window (default 30)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: record spans and report per-layer metrics",
    )
    parser.add_argument(
        "--spans",
        metavar="DIR",
        help="with --trace 1, write each workload's spans to "
        "DIR/<workload>.json",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the full run record to PATH"
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="with --trace 1, an untraced --json record of the same seed "
        "and duration: report the tracing overhead against it",
    )
    parser.add_argument(
        "--role",
        choices=("main", "setup", "run"),
        default="main",
        help=argparse.SUPPRESS,
    )
    return parser


def _child(role: str, name: str, args: argparse.Namespace) -> dict:
    command = [
        sys.executable, "-m", "benchmarks.xaibench", "--role", role,
        "--workload", name, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    if args.spans:
        command += ["--spans", str(Path(args.spans).resolve())]
    proc = subprocess.run(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_SLACK_S + 2 * args.seconds,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{name}: {role} process exited with code {proc.returncode}"
        )
    return json.loads(lines[-1])


def _measure(name: str, args: argparse.Namespace) -> dict:
    setups = []
    # A traced run reports no end-to-end metric, unless it is compared
    # with an untraced baseline, whose setup_s is a median as well.
    if not args.trace or args.baseline:
        setups = [
            _child("setup", name, args)["setup_s"]
            for _ in range(SETUP_RUNS - 1)
        ]
    record = _child("run", name, args)
    record["setup_runs"] = setups + [record["setup_s"]]
    record["setup_s"] = statistics.median(record["setup_runs"])
    return record


def _git_sha() -> str | None:
    """HEAD's commit, read from ``.git`` directly (no ``git`` process,
    which would search parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _host(records: dict, args: argparse.Namespace) -> dict:
    first = next(iter(records.values()))
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        **first["host"],
        "git_sha": _git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _report(records: dict, args: argparse.Namespace) -> dict:
    baseline = {}
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())["workloads"]
    for name, record in records.items():
        for metric, unit in END_TO_END:
            print(f"{name} {metric} {record[metric]:.6g} {unit}")
        for metric, (value, unit) in record.get("layers", {}).items():
            print(f"{name} {metric} {value:.6g} {unit}")
        if record["samples"] >= P99_MIN_SAMPLES:
            print(
                f"{name}: latency_p99_ms={record['latency_p99_ms']:.6g} "
                f"(unbounded)"
            )
        print(
            f"{name}: samples={record['samples']} "
            f"attempted={record['attempted']} failed={record['failed']} "
            f"checked={record['checked']} "
            f"mismatches={len(record['mismatches'])} "
            f"output_digest={record['output_digest']} "
            f"(first {record['digest_outputs']} outputs)"
        )
        for problem in record["mismatches"] + record["trace_problems"]:
            print(f"{name}: FAILED {problem}")
        if name in baseline:
            record["trace_overhead"] = {
                metric: record[metric] - baseline[name][metric]
                for metric, _ in END_TO_END
            }
            print(
                f"{name}: trace_overhead "
                + " ".join(
                    f"{metric}={delta:+.4g}{unit}"
                    for (metric, unit), delta in zip(
                        END_TO_END, record["trace_overhead"].values()
                    )
                )
            )
    host = _host(records, args)
    print("host: " + " ".join(f"{key}={value}" for key, value in host.items()))
    return host


def _result(records: dict, traced: bool) -> dict:
    """The last output line: end-to-end metrics, or per-layer ones when
    traced; names are prefixed by the workload when several ran."""
    metrics = {}
    for name, record in records.items():
        if traced:
            values = record["layers"].items()
        else:
            values = ((m, (record[m], unit)) for m, unit in END_TO_END)
        for metric, (value, unit) in values:
            key = metric if len(records) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    return {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None, started: float = 0.0) -> int:
    args = _parser().parse_args(argv)
    if args.role != "main":
        from benchmarks.xaibench.workloads import run_child

        record = run_child(
            args.workload[0],
            args.seed,
            args.seconds,
            bool(args.trace),
            started,
            args.role == "setup",
            args.spans,
        )
        print(json.dumps(record))
        return 0
    try:
        records = {
            name: _measure(name, args)
            for name in (args.workload or WORKLOADS)
        }
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"xaibench: {exc}", file=sys.stderr)
        return 1
    host = _report(records, args)
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(
            json.dumps({"host": host, "workloads": records}, indent=2) + "\n"
        )
    result = _result(records, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
