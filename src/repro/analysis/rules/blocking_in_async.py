"""blocking-in-async: no synchronous blocking calls inside ``async def``.

One blocking call inside a coroutine stalls the *whole* event loop: every
in-flight request of every tenant stops making progress until it returns —
admission queues grow, deadline budgets burn, and the fairness scheduler's
latency quantiles blame the wrong tenant.  The service layer multiplexes
every site round of every in-flight query over one loop, so the invariant
is absolute: a coroutine may only wait through ``await``.

In-repo example (``service/evaluator.py`` backs off before retrying a
failed site round — asynchronously, yielding the loop to other requests)::

    if backoff > 0.0:
        await asyncio.sleep(backoff)

and the shape this rule flags::

    async def _backoff(seconds):
        time.sleep(seconds)        # the whole host sleeps, not this request

Flagged inside ``async def`` (a sync helper nested in one is exempt — it
cannot await, and it may legitimately run in an executor; the vector
engine's whole-column scans in ``repro.core.vector`` are exactly this
shape: CPU-bound sync helpers the service layer may executor-offload, so
they are never held to the coroutine invariant): ``time.sleep``,
builtin ``open``, ``os.system``/``os.popen``, ``subprocess.run``/``call``/
``check_call``/``check_output``/``Popen``, ``urllib.request.urlopen``,
``socket.socket``/``socket.create_connection``, and zero-argument
``.result()`` (a ``concurrent.futures``-style blocking wait — an asyncio
future's result after ``done()`` is sound but spells the same, so suppress
with a justification where intended).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.context import (
    ModuleContext,
    dotted,
    iter_functions,
    walk_skipping_functions,
)
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

#: fully dotted call targets that block the loop
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "urllib.request.urlopen",
        "socket.socket",
        "socket.create_connection",
    }
)

#: bare names that block (builtins)
BLOCKING_NAMES = frozenset({"open", "input"})


def _blocking_reason(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name) and func.id in BLOCKING_NAMES:
        return f"builtin {func.id}() performs blocking I/O"
    target = dotted(func)
    if target is not None and target in BLOCKING_CALLS:
        return f"{target}() blocks the event loop"
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "result"
        and not call.args
        and not call.keywords
    ):
        return (
            ".result() is a blocking wait (await the future, or guard with"
            " .done() and suppress)"
        )
    return None


@register
class BlockingInAsyncRule(Rule):
    __doc__ = __doc__

    id = "blocking-in-async"
    summary = "synchronous blocking call (time.sleep, open, .result(), ...) inside async def"
    hint = (
        "await the asyncio equivalent (asyncio.sleep, transports/streams) or"
        " push the blocking work into a sync helper run via an executor"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for function, is_async in iter_functions(module.tree):
            if not is_async:
                continue
            for node in walk_skipping_functions(function):
                if not isinstance(node, ast.Call):
                    continue
                reason = _blocking_reason(node)
                if reason is not None:
                    yield module.finding(
                        self,
                        node,
                        f"blocking call inside async def"
                        f" {function.name!r}: {reason}",
                    )
