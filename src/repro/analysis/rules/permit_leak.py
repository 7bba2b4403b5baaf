"""permit-leak: an acquired slot must be released on every path.

The PR 7/8 cancellation-safety class: code acquires a permit-like resource
(the admission scheduler, a semaphore slot, an MVCC snapshot pin)
and then suspends — an ``await`` or ``yield`` — before a ``try/finally``
guarantees the handback.  A ``CancelledError`` landing at that suspension
point leaks the permit: capacity shrinks by one forever, and under a
bounded admission scheduler the host eventually serves nobody.

In-repo example (the accepted shape, ``service/server.py``
``_admit_and_evaluate``)::

    snapshot = session.snapshots.pin(session.version)
    ...                                   # synchronous statements only
    try:
        stats = await evaluate_query_async(...)
        return stats, snapshot.version
    finally:
        session.snapshots.release(snapshot)

and the shape this rule flags::

    snapshot = session.snapshots.pin(session.version)
    stats = await evaluate_query_async(...)   # cancelled here -> pin leaked
    session.snapshots.release(snapshot)

Accepted shapes:

* the acquire statement immediately followed by a ``try`` whose ``finally``
  calls a release (method name containing ``release`` or ``handback``);
  statements *without suspension points* may sit between the acquire and
  the ``try`` (synchronous bookkeeping cannot be cancelled);
* the acquire wrapped in its own ``try`` whose handlers all end in
  ``raise`` (the shed-on-timeout idiom — a failed acquire holds nothing),
  with the guarded ``try/finally`` as the next statement;
* the acquire as the *last* risky statement of the function: the function's
  contract is "returns holding the permit" and the caller owns the release;
* ``async with``/``with`` context managers (the acquire never appears as a
  statement).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.analysis.context import (
    ModuleContext,
    call_method,
    contains_suspension,
    function_bodies,
    iter_functions,
    walk_skipping_functions,
)
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

#: method names that take a permit-like resource
ACQUIRE_METHODS = frozenset({"acquire", "pin"})


def _is_release_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    method = call_method(node)
    return method is not None and ("release" in method or "handback" in method)


def _suite_releases(suite: List[ast.stmt]) -> bool:
    for stmt in suite:
        for node in walk_skipping_functions(stmt):
            if _is_release_call(node):
                return True
    return False


def _acquire_call(stmt: ast.stmt) -> Optional[ast.Call]:
    """The acquire call a plain statement performs, if any.

    Matches ``[x =] [await] recv.acquire*(...)`` — expression statements and
    single-target assignments; anything fancier is not the codebase idiom.
    """
    if isinstance(stmt, (ast.Expr, ast.Assign, ast.AnnAssign)):
        value = stmt.value
        if isinstance(value, ast.Await):
            value = value.value
        if isinstance(value, ast.Call):
            method = call_method(value)
            if method in ACQUIRE_METHODS and isinstance(value.func, ast.Attribute):
                return value
    return None


def _handlers_all_terminate(try_stmt: ast.Try) -> bool:
    """Every handler ends by raising — the failed-acquire shed idiom."""
    for handler in try_stmt.handlers:
        if not handler.body or not isinstance(handler.body[-1], ast.Raise):
            return False
    return True


@register
class PermitLeakRule(Rule):
    __doc__ = __doc__

    id = "permit-leak"
    summary = (
        "an admission/semaphore/snapshot acquire followed by a suspension"
        " point without a try/finally release"
    )
    hint = (
        "move the acquire directly before a try whose finally releases the"
        " permit (or use the primitive's context manager); only synchronous"
        " statements may sit between acquire and try"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for function, _ in iter_functions(module.tree):
            for body in function_bodies(function):
                yield from self._scan_body(module, body)

    def _scan_body(
        self, module: ModuleContext, body: List[ast.stmt]
    ) -> Iterator[Finding]:
        for index, stmt in enumerate(body):
            call = _acquire_call(stmt)
            if call is None:
                # The shed-on-timeout idiom: a try whose body *ends* with the
                # acquire and whose handlers all re-raise holds the permit
                # exactly when the try exits normally.
                if (
                    isinstance(stmt, ast.Try)
                    and not stmt.finalbody
                    and stmt.body
                    and _acquire_call(stmt.body[-1]) is not None
                    and _handlers_all_terminate(stmt)
                ):
                    call = _acquire_call(stmt.body[-1])
                else:
                    continue
            finding = self._check_guard(module, body, index, call)
            if finding is not None:
                yield finding

    def _check_guard(
        self,
        module: ModuleContext,
        body: List[ast.stmt],
        index: int,
        call: ast.Call,
    ) -> Optional[Finding]:
        method = call_method(call)
        for follower in body[index + 1 :]:
            if isinstance(follower, ast.Try) and follower.finalbody:
                if _suite_releases(follower.finalbody):
                    return None
                return module.finding(
                    self,
                    call,
                    f"permit taken via .{method}() but the guarding try's"
                    f" finally never releases it",
                )
            if isinstance(follower, ast.Return):
                # Ownership transfer: the caller receives the held permit.
                return None
            if isinstance(follower, ast.Raise) or contains_suspension(follower):
                return module.finding(
                    self,
                    call,
                    f"permit taken via .{method}() reaches a suspension point"
                    f" (or raise) before any try/finally release — a"
                    f" cancellation landing there leaks the permit",
                )
        # Ran off the end over synchronous statements only: the function
        # returns holding the permit; the caller owns the release.
        return None
