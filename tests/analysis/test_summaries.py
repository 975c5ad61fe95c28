"""Bottom-up function summaries: view/mutation transitivity, rng
escape depths, and the ⊤ fallbacks."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from xaidb.analysis.registry import FileContext
from xaidb.analysis.summaries import (
    RNG_MAX_DEPTH,
    InterprocAnalysis,
)


def _ctx(module: str, source: str) -> FileContext:
    relpath = "src/" + module.replace(".", "/") + ".py"
    return FileContext(
        path=Path(relpath),
        relpath=relpath,
        source=source,
        tree=ast.parse(source),
        in_xaidb_package=True,
        module_name=module,
    )


def _analysis(modules: dict[str, str]) -> InterprocAnalysis:
    return InterprocAnalysis(
        [_ctx(name, source) for name, source in modules.items()]
    )


def test_slice_return_is_a_view_of_the_parameter():
    analysis = _analysis(
        {"xaidb.v": "def head(x):\n    return x[:2]\n"}
    )
    assert analysis.summaries["xaidb.v.head"].returns_view_of == ("x",)


def test_mutation_is_transitive_through_a_callee():
    analysis = _analysis(
        {
            "xaidb.m": (
                "def inner(a):\n"
                "    a[:] = 0\n"
                "\n"
                "def outer(b):\n"
                "    inner(b)\n"
            )
        }
    )
    assert analysis.summaries["xaidb.m.inner"].mutates == ("a",)
    # bottom-up: outer inherits the in-place write through the call
    assert analysis.summaries["xaidb.m.outer"].mutates == ("b",)


def test_rng_escape_depth_increments_per_boundary_then_drops_off():
    analysis = _analysis(
        {
            "xaidb.r": (
                "import numpy as np\n"
                "\n"
                "def make():\n"
                "    return np.random.default_rng(0)\n"
                "\n"
                "def wrap1():\n"
                "    return make()\n"
                "\n"
                "def wrap2():\n"
                "    return wrap1()\n"
                "\n"
                "def wrap3():\n"
                "    return wrap2()\n"
            )
        }
    )
    depths = {
        name: analysis.summaries[f"xaidb.r.{name}"].rng_return_depth
        for name in ("make", "wrap1", "wrap2", "wrap3")
    }
    assert depths["make"] == 0
    assert depths["wrap1"] == 1
    assert depths["wrap2"] == 2
    # past the tracking horizon the summary stops claiming anything
    assert depths["wrap3"] is None
    assert RNG_MAX_DEPTH == 3


def test_caller_derived_seed_is_not_an_escape():
    analysis = _analysis(
        {
            "xaidb.s": (
                "import numpy as np\n"
                "\n"
                "def make(seed):\n"
                "    return np.random.default_rng(seed)\n"
            )
        }
    )
    assert analysis.summaries["xaidb.s.make"].rng_return_depth is None


def test_dynamic_scope_yields_the_bottom_summary():
    analysis = _analysis(
        {
            "xaidb.d": (
                "def peek(x):\n"
                "    locals()\n"
                "    return x[:2]\n"
            )
        }
    )
    summary = analysis.summaries["xaidb.d.peek"]
    # locals() can read anything: claim nothing rather than guess
    assert summary.returns_view_of == ()
    assert summary.mutates == ()
    assert summary.return_ranges == ()


def test_solutions_are_memoised_and_kinds_are_validated():
    analysis = _analysis(
        {"xaidb.v": "def head(x):\n    return x[:2]\n"}
    )
    first = analysis.solution("alias", "xaidb.v.head")
    assert analysis.solution("alias", "xaidb.v.head") is first
    with pytest.raises(ValueError, match="unknown solution kind"):
        analysis.solution("taste", "xaidb.v.head")
