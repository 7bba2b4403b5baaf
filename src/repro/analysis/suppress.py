"""In-source suppressions: ``# repro: allow[rule-id] optional justification``.

A finding is suppressed when an allow-comment naming its rule sits on the
flagged line itself, or on the immediately preceding line as a standalone
comment (nothing but whitespace before the ``#``) — the same two shapes
``noqa``-style tools accept, so multi-line statements can carry the
justification above them::

    probe = tracer.request("warmup")  # repro: allow[span-discipline] closed in shutdown()

    # repro: allow[permit-leak] ownership transfers to the wave batcher
    permit = await gate.acquire(timeout)

Several rules may share one comment: ``# repro: allow[permit-leak, span-discipline]``.
Suppressions are per-line and deliberate — the gate counts them (they show
in the report marked ``suppressed``) but they do not fail it.
"""

from __future__ import annotations

import re
from typing import List, Set

__all__ = ["allowed_rules_for_line", "is_suppressed"]

_ALLOW = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\-\s]+)\]")
_STANDALONE_COMMENT = re.compile(r"^\s*#")


def _rules_in(line: str) -> Set[str]:
    rules: Set[str] = set()
    for match in _ALLOW.finditer(line):
        rules.update(token.strip() for token in match.group(1).split(","))
    rules.discard("")
    return rules


def allowed_rules_for_line(lines: List[str], lineno: int) -> Set[str]:
    """Rule ids an allow-comment suppresses at 1-based *lineno*.

    Looks at the line itself, then at the previous line if that line is a
    standalone comment.
    """
    rules: Set[str] = set()
    if 1 <= lineno <= len(lines):
        rules |= _rules_in(lines[lineno - 1])
    if lineno >= 2:
        previous = lines[lineno - 2]
        if _STANDALONE_COMMENT.match(previous):
            rules |= _rules_in(previous)
    return rules


def is_suppressed(lines: List[str], lineno: int, rule_id: str) -> bool:
    return rule_id in allowed_rules_for_line(lines, lineno)
