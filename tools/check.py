#!/usr/bin/env python
"""The repo gate: lint + tier-1 tests + benchmark smokes + claim benches, one exit code.

Runs, in order, stopping at the first failure:

1. ``xailint`` over the repo-standard scan set (src benchmarks examples
   tools) — the scientific-correctness invariants of docs/LINTING.md;
2. the tier-1 pytest suite (``tests/``, the ROADMAP.md conformance bar);
3. a smoke run of the A7 runtime-scaling benchmark
   (``benchmarks/bench_a07_runtime_scaling.py``) — proves the shared
   evaluation runtime's memoisation/chunking/parallel invariants on a
   small workload, so a regression in the substrate every perturbation
   explainer rides on cannot land silently;
4. a smoke run of the A10 inference-kernel benchmark
   (``benchmarks/bench_a10_inference_kernels.py``, 2000 rows via
   ``XAIDB_A10_ROWS``) — proves the vectorized tree kernels stay
   bit-identical to the row-wise reference (the test-side oracle
   ``tests/models/rowwise_oracle.py``) *and* meaningfully faster,
   so a perf or exactness regression in model inference cannot land
   silently either;
5. a smoke run of the A13 numeric-lint benchmark
   (``benchmarks/bench_a13_numeric_lint.py``, reduced scan set via
   ``XAIDB_A13_SMOKE``) — proves a warm (summary-cached) scan is
   finding-for-finding identical to a cold one and that the interval
   pass really is skipped, so a cache-keying bug in the numeric tier
   cannot change verdicts silently;
6. a smoke run of the A15 explainer-kernel benchmark
   (``benchmarks/bench_a15_explainer_kernels.py``, reduced workloads
   via ``XAIDB_A15_SMOKE``) — proves the leaf-lane TreeSHAP batch
   path stays bitwise identical to the recursion oracle (the test-side
   ``tests/explainers/shapley/tree_oracle.py``) and the
   stacked KernelSHAP batch to per-instance ``explain`` calls through
   cached ``make_runtime`` runtimes, both meaningfully faster,
   and gates the single-row path: the step fails if explaining one row
   at a time through the TreeSHAP kernel (``explain``, batch of one)
   takes longer than the per-row recursion, so a fixed per-call cost
   cannot creep back into ``explain`` silently;
7. the tutorial's claim benches, E1–E20 and A1–A6
   (``benchmarks/bench_e*.py``, ``benchmarks/bench_a01``–``a06``, see
   EXPERIMENTS.md), with ``--benchmark-disable``: each runs its workload
   once and asserts the claim it reproduces (LIME fidelity, TreeSHAP's
   polynomial runtime, the Shapley axioms, ...), so a rewrite under an
   explainer cannot break a claim silently;
8. the worked examples (``examples/*.py``), each run as a script: a
   non-zero exit fails the step, so an API change that breaks a
   documented workflow cannot land silently.

Usage::

    python tools/check.py            # the full gate
    python tools/check.py --fast     # lint + tier-1 only (skip the benches)
    python tools/check.py --changed-only   # lint only files changed vs
                                           # the merge base with main
    python tools/check.py --baseline # lint failures only on findings not
                                     # in xailint_baseline.sarif

``--changed-only`` narrows the *lint* step to ``.py`` files that differ
from the merge base with ``main`` (plus untracked ones); when git cannot
answer — not a repository, no ``main`` ref — it falls back to the full
scan rather than passing vacuously.  Tests always run in full.

``--baseline`` makes the lint step diff its findings against the
committed SARIF snapshot (``xailint_baseline.sarif``) and fail only on
*new* ones — the adoption path for rules with pre-existing debt (see
docs/LINTING.md "Baseline gating").  Refresh the snapshot with
``python -m xaidb.analysis --write-baseline`` after a cleanup.

When ``GITHUB_ACTIONS`` is set (workflow runs), the lint step reports
via ``--format github`` so findings surface as inline PR annotations.

Exit status is the first failing step's, 0 when everything passes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

# the tier-1 convention is `PYTHONPATH=src python -m pytest`; make the
# gate self-contained by prepending src/ for every subprocess.
_ENV = dict(os.environ)
_ENV["PYTHONPATH"] = os.pathsep.join(
    [str(REPO_ROOT / "src")]
    + ([_ENV["PYTHONPATH"]] if _ENV.get("PYTHONPATH") else [])
)

#: Top-level directories the lint gate covers (the xailint default set).
SCAN_SET = ("src", "benchmarks", "examples", "tools")


def changed_python_files() -> list[str] | None:
    """``.py`` files under the scan set that differ from the merge base
    with ``main`` (committed, staged, working-tree or untracked), or
    ``None`` when git cannot answer — the caller then runs a full scan.
    """

    def _git(*args: str) -> str:
        completed = subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        if completed.returncode != 0:
            raise RuntimeError(completed.stderr.strip())
        return completed.stdout

    try:
        base = None
        for ref in ("origin/main", "main"):
            try:
                base = _git("merge-base", "HEAD", ref).strip()
                break
            except RuntimeError:
                continue
        if not base:
            return None
        changed = set(_git("diff", "--name-only", base).splitlines())
        changed |= set(
            _git("ls-files", "--others", "--exclude-standard").splitlines()
        )
    except (OSError, RuntimeError):
        return None
    return sorted(
        path
        for path in changed
        if path.endswith(".py")
        and path.split("/", 1)[0] in SCAN_SET
        and (REPO_ROOT / path).exists()  # deletions need no linting
    )


#: The claim benches: one per EXPERIMENTS.md experiment (E1-E20) and
#: the A1-A6 extensions — every ``bench_*.py`` that asserts a result of
#: the tutorial rather than a runtime or lint property.
CLAIM_BENCHES = sorted(
    str(path)
    for pattern in ("bench_e[0-9][0-9]_*.py", "bench_a0[1-6]_*.py")
    for path in (REPO_ROOT / "benchmarks").glob(pattern)
)

#: The worked examples, each run as its own script.
EXAMPLES = sorted(str(path) for path in (REPO_ROOT / "examples").glob("*.py"))

STEPS: list[tuple[str, list[str]]] = [
    ("xailint", [sys.executable, str(REPO_ROOT / "tools" / "xailint.py")]),
    ("tier-1 tests", [sys.executable, "-m", "pytest", "-q", "tests"]),
    (
        "A7 runtime smoke",
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "--benchmark-only",
            "--benchmark-disable-gc",
            str(REPO_ROOT / "benchmarks" / "bench_a07_runtime_scaling.py"),
        ],
    ),
    (
        "A10 kernel smoke",
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "--benchmark-only",
            "--benchmark-disable-gc",
            str(
                REPO_ROOT / "benchmarks" / "bench_a10_inference_kernels.py"
            ),
        ],
    ),
    (
        "A13 numeric-lint smoke",
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "--benchmark-only",
            "--benchmark-disable-gc",
            str(REPO_ROOT / "benchmarks" / "bench_a13_numeric_lint.py"),
        ],
    ),
    (
        "A15 explainer-kernel smoke",
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "--benchmark-only",
            "--benchmark-disable-gc",
            str(
                REPO_ROOT / "benchmarks" / "bench_a15_explainer_kernels.py"
            ),
        ],
    ),
    (
        "E1-E20 + A1-A6 claims",
        [sys.executable, "-m", "pytest", "-q", "--benchmark-disable"]
        + CLAIM_BENCHES,
    ),
] + [(f"example {Path(path).name}", [sys.executable, path]) for path in EXAMPLES]

#: The A10 smoke shrinks the workload (the >= 10x bar applies at the
#: full 10^4 rows; the bench relaxes it below that — see its module
#: docstring).  Respect an explicit caller override.
_ENV.setdefault("XAIDB_A10_ROWS", "2000")

#: The A13 smoke scans only the linter's own sources and skips the
#: BENCH_lint.json write (the committed record reflects full runs).
_ENV.setdefault("XAIDB_A13_SMOKE", "1")

#: The A15 smoke shrinks every explainer workload, loosens the speedup
#: bars (except the batch-of-one TreeSHAP gate: kernel no slower than
#: the recursion) and skips the BENCH_inference.json write (the
#: committed record reflects full runs — see the bench module docstring).
_ENV.setdefault("XAIDB_A15_SMOKE", "1")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    fast = "--fast" in argv
    steps = list(STEPS[:2] if fast else STEPS)
    if "--baseline" in argv:
        name, command = steps[0]
        steps[0] = (
            f"{name} (baseline diff)",
            command + ["--baseline", "xailint_baseline.sarif"],
        )
    if os.environ.get("GITHUB_ACTIONS"):
        # inside a workflow run, findings surface as inline PR
        # annotations (::warning/::error commands) instead of plain text
        name, command = steps[0]
        steps[0] = (name, command + ["--format", "github"])
    if "--changed-only" in argv:
        changed = changed_python_files()
        if changed is None:
            print(
                "check.py: --changed-only: git has no merge base here; "
                "falling back to the full lint scan",
                flush=True,
            )
        elif not changed:
            print("check.py: --changed-only: no python changes to lint",
                  flush=True)
            steps = steps[1:]
        else:
            name, command = steps[0]
            steps[0] = (f"{name} ({len(changed)} changed)",
                        command + changed)
    for name, command in steps:
        print(f"== {name}: {' '.join(command)}", flush=True)
        completed = subprocess.run(command, cwd=REPO_ROOT, env=_ENV)
        if completed.returncode != 0:
            print(f"check.py: step '{name}' failed "
                  f"(exit {completed.returncode})", file=sys.stderr)
            return completed.returncode
        print(f"== {name}: ok", flush=True)
    print("check.py: all steps passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
