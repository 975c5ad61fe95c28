"""Import budget of the xaibench workload path.

Every xaibench workload process imports the same ``xaidb`` modules before
it builds its scene, so whatever they drag in is paid on every cold start.
networkx (the causal DAG is stdlib) and the data-management packages
(``xaidb.db``, which imports all of ``xaidb.datavaluation``) must stay off
that path.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import xaidb

REPO_ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = REPO_ROOT / "benchmarks" / "xaibench" / "workloads.py"
OFF_PATH = ("networkx", "xaidb.db", "xaidb.datavaluation")


def _workload_xaidb_imports() -> list[str]:
    modules = []
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            modules.append(node.module)
        elif isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
    return [m for m in modules if m == "xaidb" or m.startswith("xaidb.")]


def test_workload_imports_stay_off_networkx_and_db():
    modules = _workload_xaidb_imports()
    assert "xaidb.data" in modules and "xaidb.service" in modules
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print('\\n'.join(sys.modules))\n"
    )
    src = str(Path(xaidb.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "xaidb.causal.graph" in loaded  # make_income builds a DAG
    offenders = [
        m for m in loaded
        if any(m == root or m.startswith(root + ".") for root in OFF_PATH)
    ]
    assert offenders == []
