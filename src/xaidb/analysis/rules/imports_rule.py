"""XDB001 — banned third-party imports.

xaidb's DESIGN contract is "from scratch — numpy/scipy only":
the point of the reproduction is that every explainer's maths is visible
and auditable, not delegated to a library whose version-to-version
behaviour drifts (the hidden-library-behaviour instability the tutorial
warns about).  This rule bans imports of the ML/XAI stacks the repo
reimplements, and of networkx: the causal DAG is a stdlib dict-of-dicts,
and networkx is only the test suite's oracle for it (``tests/`` is not
scanned).
"""

from __future__ import annotations

import ast
from typing import Iterator

from xaidb.analysis.findings import Finding
from xaidb.analysis.registry import FileContext, FileRule, register

__all__ = ["BannedImportsRule", "BANNED_ROOTS"]

#: Top-level module names whose import violates the from-scratch rule.
BANNED_ROOTS = frozenset(
    {
        "sklearn",
        "shap",
        "lime",
        "dice_ml",
        "captum",
        "torch",
        "pandas",
        "tensorflow",
        "keras",
        "xgboost",
        "lightgbm",
        "catboost",
        "networkx",
    }
)


@register
class BannedImportsRule(FileRule):
    rule_id = "XDB001"
    symbol = "banned-import"
    description = (
        "Import of a banned third-party package (sklearn, shap, lime, "
        "dice_ml, captum, torch, pandas, networkx, ...): xaidb is "
        "from-scratch on numpy/scipy only."
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in BANNED_ROOTS:
                        yield ctx.finding(
                            self,
                            node,
                            f"import of banned package {root!r}; xaidb "
                            f"implements its methods from scratch on "
                            f"numpy/scipy",
                        )
            elif isinstance(node, ast.ImportFrom):
                # Relative imports (level > 0) are intra-package and
                # always allowed; `from xaidb.explainers import lime`
                # resolves under the xaidb root, not the banned package.
                if node.level or node.module is None:
                    continue
                root = node.module.split(".")[0]
                if root in BANNED_ROOTS:
                    yield ctx.finding(
                        self,
                        node,
                        f"import from banned package {root!r}; xaidb "
                        f"implements its methods from scratch on "
                        f"numpy/scipy",
                    )
