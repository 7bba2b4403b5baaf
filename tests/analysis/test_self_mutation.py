"""Mutation self-test: re-introduce each fixed bug, prove its rule catches it.

Each case takes a real source file of the async serving path
(``src/repro/service/`` and the async transport), applies a
textual mutation that recreates a bug class this repo actually fixed
(permit leaks across awaits, skipped counter restores, silent sheds, stage
typos, blocking sleeps), and asserts the matching rule
fires on the mutant while staying quiet on the pristine file.  If a rule
rots to the point of missing its own motivating bug, this fails before the
CI gate goes blind.
"""

import pathlib

import pytest

from repro.analysis import analyze_source, run

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

MUTATIONS = [
    pytest.param(
        "repro/service/server.py",
        "session.snapshots.release(snapshot)",
        "pass",
        "permit-leak",
        id="permit-leak:snapshot-pin-loses-its-release",
    ),
    pytest.param(
        "repro/service/server.py",
        "admission.release(session.name)",
        "pass",
        "permit-leak",
        id="permit-leak:fairness-admission-handback-deleted",
    ),
    pytest.param(
        "repro/service/evaluator.py",
        "site.restore_counters(snapshot)",
        "pass",
        "staging-pairing",
        id="staging-pairing:handler-skips-the-restore",
    ),
    pytest.param(
        "repro/service/server.py",
        'self._record_shed(session.name, "overload", resilience)',
        "pass",
        "shed-discipline",
        id="shed-discipline:overload-shed-goes-unrecorded",
    ),
    pytest.param(
        "repro/service/server.py",
        'stage="cache"',
        'stage="cash"',
        "span-discipline",
        id="span-discipline:stage-typo",
    ),
    pytest.param(
        "repro/service/evaluator.py",
        "await asyncio.sleep(backoff)",
        "time.sleep(backoff)",
        "blocking-in-async",
        id="blocking-in-async:retry-backoff-blocks-the-loop",
    ),
    pytest.param(
        "repro/distributed/async_transport.py",
        "await asyncio.sleep(total)",
        "time.sleep(total)",
        "blocking-in-async",
        id="blocking-in-async:wire-replay-blocks-the-loop",
    ),
]


@pytest.mark.parametrize("relpath, original, replacement, rule_id", MUTATIONS)
def test_mutation_is_caught(relpath, original, replacement, rule_id):
    source = (SRC / relpath).read_text(encoding="utf-8")
    assert original in source, f"mutation target vanished from {relpath}"

    pristine = [f for f in analyze_source(source, relpath) if f.counts_against_gate]
    assert not pristine, f"pristine {relpath} is not clean: {pristine}"

    mutant = source.replace(original, replacement, 1)
    assert mutant != source
    fired = [
        f
        for f in analyze_source(mutant, relpath)
        if f.rule == rule_id and f.counts_against_gate
    ]
    assert fired, f"{rule_id} missed its own motivating bug in {relpath}"


def test_real_tree_is_clean():
    """The CI gate's contract: `repro lint src` exits 0 on this tree."""
    report = run([str(SRC)])
    offending = [f for f in report.findings if f.counts_against_gate]
    assert report.exit_code == 0, "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in offending
    )
    assert report.files_analyzed > 100
