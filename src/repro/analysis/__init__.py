"""repro lint: AST-based concurrency & invariant analysis for the service stack.

Five checkers grounded in this repo's own past bugs — permit leaks across
await points, blocking calls in coroutines, unbalanced counter staging,
unlabeled sheds, and off-taxonomy tracer spans.  See ``repro lint --list-rules`` and the
"Static analysis" section of the README.

Public API::

    from repro.analysis import run, analyze_source, all_rules
    report = run(["src"])           # -> Report; report.exit_code gates CI
"""

from repro.analysis.baseline import Baseline, load_baseline, save_baseline
from repro.analysis.findings import Finding, fingerprint
from repro.analysis.registry import Rule, all_rules, get_rule, register
from repro.analysis.report import Report, render_json, render_text
from repro.analysis.runner import (
    PARSE_ERROR_RULE,
    analyze_file,
    analyze_source,
    iter_python_files,
    run,
)

__all__ = [
    "Baseline",
    "Finding",
    "PARSE_ERROR_RULE",
    "Report",
    "Rule",
    "all_rules",
    "analyze_file",
    "analyze_source",
    "fingerprint",
    "get_rule",
    "iter_python_files",
    "load_baseline",
    "register",
    "render_json",
    "render_text",
    "run",
    "save_baseline",
]
