#!/usr/bin/env python
"""How close the xaibench self-test's runs come to the p99 threshold.

The xaibench self-test (``tests/xaibench/test_xaibench.py``, fixture
``runs``) runs every workload traced for one second at ``--seed 3``:
the untraced explain_single run first, alongside the other three traced
workloads, then the traced explain_single run against the untraced one
as ``--baseline``.  When a run's sample count reaches
``P99_MIN_SAMPLES`` (``benchmarks/xaibench/cli.py``), the report prints
its p99 line before the summary line, and the self-test reads the wrong
line (ROADMAP.md item 1).  Until that is fixed, a change that makes a
per-row path faster can turn tier-1 red on a fast enough host.

This tool replays the fixture's exact commands ``--runs`` times, prints
every traced workload's ``samples=`` against the threshold, and exits 1
when any run reaches it (2 when a run fails).  It reads the benchmark
and writes its records to a temporary directory only.

Usage::

    python tools/xaibench_headroom.py            # 5 replays
    python tools/xaibench_headroom.py --runs 3
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from benchmarks.xaibench.cli import P99_MIN_SAMPLES  # noqa: E402

#: The fixture's window and seed.
COMMON = ("--seconds", "1", "--seed", "3")
WORKLOADS = [
    w["name"]
    for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]


def _start(args: tuple[str, ...]) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.Popen(
        [sys.executable, "-m", "benchmarks.xaibench", *args],
        cwd=ROOT,
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


def replay(records: Path) -> dict[str, tuple[int, str, str]]:
    """One replay of the fixture: the same commands, in the same order
    and overlap."""
    untraced = _start(
        ("--workload", "explain_single", *COMMON,
         "--json", str(records / "untraced.json"))
    )
    procs = {
        name: _start(("--workload", name, "--trace", "1", *COMMON))
        for name in WORKLOADS
        if name != "explain_single"
    }
    finished = {"untraced": _finish(untraced)}
    procs["explain_single"] = _start(
        ("--workload", "explain_single", "--trace", "1", *COMMON,
         "--baseline", str(records / "untraced.json"),
         "--json", str(records / "traced.json"))
    )
    finished.update({name: _finish(proc) for name, proc in procs.items()})
    return finished


def samples(out: str, workload: str) -> int | None:
    match = re.search(rf"^{workload}: samples=(\d+)", out, re.MULTILINE)
    return int(match.group(1)) if match else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    peak = {name: 0 for name in WORKLOADS}
    failed = False
    for run in range(1, args.runs + 1):
        with tempfile.TemporaryDirectory() as records:
            finished = replay(Path(records))
        parts = []
        for name in WORKLOADS:
            code, out, err = finished[name]
            count = samples(out, name)
            if code != 0 or count is None:
                failed = True
                parts.append(f"{name}=FAILED")
                print(err.strip().splitlines()[-1:] or "", file=sys.stderr)
                continue
            peak[name] = max(peak[name], count)
            parts.append(f"{name} samples={count}")
        print(f"run {run}: " + "  ".join(parts), flush=True)
    print(
        "highest: "
        + "  ".join(f"{name}={count}" for name, count in peak.items())
        + f"  (P99_MIN_SAMPLES={P99_MIN_SAMPLES})"
    )
    if failed:
        return 2
    return 1 if max(peak.values()) >= P99_MIN_SAMPLES else 0


if __name__ == "__main__":
    sys.exit(main())
