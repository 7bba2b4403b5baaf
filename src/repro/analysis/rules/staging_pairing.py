"""staging-pairing: every counter snapshot restores (or commits) on every path.

The exactly-once traffic-accounting protocol from PR 7: a retried site
round stages its accounting — ``site.snapshot_counters()`` before the
attempt, ``site.restore_counters(snapshot)`` on *every* failure path,
commit by simply not restoring on success.  A failure path that skips the
restore double-counts the failed attempt's visits and traffic units, and
the differential suites (``tests/service/test_resilience.py``) flag the
run as an accounting loss.

In-repo example (``service/evaluator.py`` ``_resilient_round``)::

    snapshot = site.snapshot_counters()
    try:
        result = await attempt_body(buffer)
    except TransportError as error:
        site.restore_counters(snapshot)
        ...retry or raise...
    except BaseException:
        # Cancellation or an unexpected error: this attempt's accounting
        # must not outlive it.
        site.restore_counters(snapshot)
        raise
    ...commit...

This rule flags a ``snapshot_counters()`` call when:

* its result is discarded (nothing to restore from), or
* no ``try`` follows it before a suspension point, or
* some ``except`` handler of that ``try`` lacks a ``restore_counters``
  call (that failure path keeps the partial counters), or
* the ``try`` has no ``except BaseException``/bare handler and no
  ``finally`` restore — a cancellation mid-attempt would commit the
  half-run accounting.
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


def _snapshot_call(stmt: ast.stmt) -> Optional[ast.Call]:
    value = getattr(stmt, "value", None)
    if isinstance(value, ast.Await):
        value = value.value
    if isinstance(value, ast.Call) and call_method(value) == "snapshot_counters":
        return value
    return None


def _suite_restores(suite: List[ast.stmt]) -> bool:
    for stmt in suite:
        for node in walk_skipping_functions(stmt):
            if isinstance(node, ast.Call) and call_method(node) == "restore_counters":
                return True
    return False


def _catches_base_exception(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:  # bare except
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(
        isinstance(node, ast.Name) and node.id == "BaseException" for node in types
    )


@register
class StagingPairingRule(Rule):
    __doc__ = __doc__

    id = "staging-pairing"
    summary = (
        "snapshot_counters() without a restore_counters on every failure path"
        " of the following try"
    )
    hint = (
        "wrap the attempt in try/except where every handler (including an"
        " except BaseException for cancellation) calls"
        " site.restore_counters(snapshot); commit by not restoring on success"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for function, _ in iter_functions(module.tree):
            for body in function_bodies(function):
                yield from self._scan_body(module, body)

    def _scan_body(
        self, module: ModuleContext, body: List[ast.stmt]
    ) -> Iterator[Finding]:
        for index, stmt in enumerate(body):
            call = _snapshot_call(stmt)
            if call is None:
                continue
            if isinstance(stmt, ast.Expr):
                yield module.finding(
                    self,
                    call,
                    "snapshot_counters() result discarded — nothing can ever"
                    " restore this staging point",
                )
                continue
            yield from self._check_pairing(module, body, index, call)

    def _check_pairing(
        self,
        module: ModuleContext,
        body: List[ast.stmt],
        index: int,
        call: ast.Call,
    ) -> Iterator[Finding]:
        guard: Optional[ast.Try] = None
        for follower in body[index + 1 :]:
            if isinstance(follower, ast.Try):
                guard = follower
                break
            if (
                isinstance(follower, (ast.Raise, ast.Return))
                or contains_suspension(follower)
            ):
                break
        if guard is None:
            yield module.finding(
                self,
                call,
                "snapshot_counters() is not followed by a try guarding the"
                " attempt — a failure (or cancellation) commits the partial"
                " accounting",
            )
            return
        for handler in guard.handlers:
            if not _suite_restores(handler.body):
                yield module.finding(
                    self,
                    handler,
                    "this except handler exits the staged attempt without"
                    " restore_counters — that failure path double-counts the"
                    " attempt's traffic",
                )
        if not any(_catches_base_exception(h) for h in guard.handlers) and not (
            guard.finalbody and _suite_restores(guard.finalbody)
        ):
            yield module.finding(
                self,
                guard,
                "staged attempt has no except BaseException (or finally)"
                " restore — a cancellation mid-attempt commits half-run"
                " accounting",
            )
