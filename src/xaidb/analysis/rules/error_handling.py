"""XDB005/XDB032 — bare or overbroad ``except`` clauses.

``except:`` and ``except Exception:`` swallow programming errors (and
``except BaseException`` even eats ``KeyboardInterrupt``), turning a
wrong explanation into a silently-degraded one — the failure mode the
tutorial's sanity-check line of work (E20) exists to expose.  Catch the
specific exceptions a block can actually raise; a deliberate broad
catch at a process boundary takes an inline suppression with a reason.

A broad handler whose body is a bare ``raise`` (log-and-reraise) is
allowed: it cannot swallow anything.

XDB032 ``swallowed-exception`` flags the subset of broad handlers that
discard the exception on every path (no re-raise, no log, no read of
the bound name).  Every XDB032 site is also an XDB005 site: XDB005
points at the overly-wide *catch*, XDB032 at the silent *discard* —
fixing the discard (log/re-raise) clears XDB032 while XDB005 may
legitimately stay suppressed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from xaidb.analysis.callgraph import dotted_name
from xaidb.analysis.findings import Finding
from xaidb.analysis.registry import FileContext, FileRule, register

__all__ = ["BroadExceptRule", "SwallowedExceptionRule"]

_BROAD_NAMES = {"Exception", "BaseException"}


def _broad_name(type_node: ast.AST | None) -> str | None:
    """The broad exception name caught by ``type_node``, if any."""
    if type_node is None:
        return "<bare>"
    if isinstance(type_node, ast.Name) and type_node.id in _BROAD_NAMES:
        return type_node.id
    if isinstance(type_node, ast.Tuple):
        for element in type_node.elts:
            name = _broad_name(element)
            if name is not None:
                return name
    return None


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True when the handler body ends in a bare ``raise``."""
    return any(
        isinstance(stmt, ast.Raise) and stmt.exc is None
        for stmt in handler.body
    )


@register
class BroadExceptRule(FileRule):
    rule_id = "XDB005"
    symbol = "broad-except"
    description = (
        "Bare `except:` or overbroad `except Exception:` without a "
        "re-raise; catch the specific exceptions the block can raise."
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            name = _broad_name(node.type)
            if name is None or _reraises(node):
                continue
            if name == "<bare>":
                message = (
                    "bare except: swallows every error including "
                    "KeyboardInterrupt; name the exceptions this block "
                    "can raise"
                )
            else:
                message = (
                    f"overbroad except {name}: hides programming errors "
                    f"behind silently-degraded results; name the "
                    f"exceptions this block can raise"
                )
            yield ctx.finding(self, node, message)


#: Dotted-name fragments that count as "the handler did something with
#: the error" — logging, reporting, failing the request, exiting.
_HANDLING_TOKENS = (
    "log",
    "warn",
    "print",
    "traceback",
    "exit",
    "set_exception",
    "fail",
)


def _handler_acts(handler: ast.ExceptHandler) -> bool:
    """Does the handler body re-raise, read the bound exception, or
    call anything that looks like logging/reporting?"""
    bound = handler.name
    for stmt in handler.body:
        stack: list[ast.AST] = [stmt]
        while stack:
            node = stack.pop()
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            if isinstance(node, ast.Raise):
                return True
            if (
                bound
                and isinstance(node, ast.Name)
                and node.id == bound
            ):
                return True
            if isinstance(node, ast.Call):
                dotted = (dotted_name(node.func) or "").lower()
                if any(tok in dotted for tok in _HANDLING_TOKENS):
                    return True
            stack.extend(ast.iter_child_nodes(node))
    return False


@register
class SwallowedExceptionRule(FileRule):
    """XDB032: a broad except discards the exception on every path."""

    rule_id = "XDB032"
    symbol = "swallowed-exception"
    description = (
        "A broad except (bare / Exception / BaseException) neither "
        "re-raises, reads the caught exception, nor calls anything "
        "that logs or reports it — the failure vanishes without a "
        "trace on every path through the handler"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _broad_name(node.type) is None or _handler_acts(node):
                continue
            yield ctx.finding(
                self,
                node,
                "broad except swallows the exception: no path "
                "through the handler re-raises, reads the caught "
                "error, or logs it — narrow the except, log the "
                "failure, or re-raise (XDB005 flags the width of "
                "the catch; this flags the silent discard)",
            )
