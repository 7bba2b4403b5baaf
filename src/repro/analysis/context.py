"""Per-module analysis context and the small AST vocabulary rules share.

Every checker gets a :class:`ModuleContext` — the parsed tree plus the raw
source lines — and builds findings through :meth:`ModuleContext.finding`,
which fills in the location and the flagged source line.  The helpers here
are the vocabulary the five rules are written in:

* :func:`dotted` — the ``a.b.c`` text of a Name/Attribute chain (or ``None``
  for anything dynamic), used to match receivers like ``session.snapshots``.
* :func:`call_method` — the final attribute/function name of a call.
* :func:`contains_suspension` — does a statement contain an ``await`` or a
  ``yield`` *in the enclosing function's own frame*?  Suspension points are
  where cancellation lands, so they are the boundary every
  acquired-but-unguarded resource check cares about.  Nested ``def``/
  ``async def``/``lambda`` bodies are skipped: their suspensions belong to a
  different frame.
* :func:`function_bodies` — every statement list of a function, including
  the bodies of its ``if``/``try``/``with``/loop statements, so sequential
  checkers (acquire followed by try/finally) can scan sibling statements.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

from repro.analysis.findings import Finding

__all__ = [
    "FunctionDef",
    "ModuleContext",
    "call_method",
    "contains_suspension",
    "dotted",
    "function_bodies",
    "iter_functions",
    "walk_skipping_functions",
]

FunctionDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


@dataclass
class ModuleContext:
    """One parsed source file, as the checkers see it."""

    path: str
    source: str
    tree: ast.Module
    lines: List[str]

    @classmethod
    def parse(cls, source: str, path: str) -> "ModuleContext":
        return cls(
            path=path,
            source=source,
            tree=ast.parse(source, filename=path),
            lines=source.splitlines(),
        )

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def finding(
        self,
        rule: "object",
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
    ) -> Finding:
        """A :class:`Finding` anchored at *node*, carrying its source line."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.path,
            line=line,
            col=col,
            rule=getattr(rule, "id", str(rule)),
            message=message,
            hint=hint if hint is not None else getattr(rule, "hint", ""),
            snippet=self.line_at(line).strip(),
        )


def dotted(node: ast.AST) -> Optional[str]:
    """``"a.b.c"`` for a Name/Attribute chain; ``None`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_method(call: ast.Call) -> Optional[str]:
    """The method/function name a call resolves through (``foo`` or ``x.foo``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def contains_suspension(node: ast.AST) -> bool:
    """Whether *node* holds a suspension point of the enclosing frame.

    ``await`` and ``yield`` are where a ``CancelledError`` (or a generator's
    early close) can enter; nested function definitions are skipped because
    their suspensions run in another frame at another time.
    """
    for child in walk_skipping_functions(node):
        if isinstance(child, (ast.Await, ast.Yield, ast.YieldFrom)):
            return True
    return False


def walk_skipping_functions(node: ast.AST) -> Iterator[ast.AST]:
    """Pre-order walk of *node* that does not descend into nested functions.

    The root itself is yielded (even if it is a function definition — the
    caller decided to look at it); only *nested* definitions are opaque.
    """
    yield node
    stack: List[ast.AST] = [
        child
        for child in ast.iter_child_nodes(node)
        if not isinstance(child, _FUNCTION_NODES)
    ]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if not isinstance(child, _FUNCTION_NODES):
                stack.append(child)


def iter_functions(tree: ast.Module) -> Iterator[Tuple[FunctionDef, bool]]:
    """Every function in the module with its *effective* async-ness.

    Yields ``(node, is_async)`` where ``is_async`` reflects the function's
    own kind — a sync helper nested in an ``async def`` is sync (it cannot
    await, and it may legitimately run in an executor).
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, isinstance(node, ast.AsyncFunctionDef)
        stack.extend(ast.iter_child_nodes(node))


def function_bodies(function: FunctionDef) -> Iterator[List[ast.stmt]]:
    """Every statement sequence of *function*'s own frame.

    The function body plus each nested ``if``/``else``/``try``/``except``/
    ``finally``/``with``/loop suite — but not the bodies of nested function
    definitions.  Sequential rules (acquire→guard, snapshot→restore,
    record→raise) scan these lists for sibling-statement patterns.
    """
    stack: List[List[ast.stmt]] = [function.body]
    while stack:
        body = stack.pop()
        yield body
        for stmt in body:
            if isinstance(stmt, _FUNCTION_NODES):
                continue
            for field_name in ("body", "orelse", "finalbody"):
                suite = getattr(stmt, field_name, None)
                if suite:
                    stack.append(suite)
            for handler in getattr(stmt, "handlers", ()) or ():
                stack.append(handler.body)
