"""Each rule fires on its true-positive fixture, stays quiet on its false-positive one.

The fixture corpus under ``fixtures/`` is the rule contract: ``tp_<rule>.py``
holds the bug shapes the rule exists to catch, ``fp_<rule>.py`` holds the
accepted idioms from the real tree (guarded acquires, the staging protocol,
recorded sheds, context-managed spans) that must not be flagged.  A rule
change that breaks either side fails here before it can reach the CI gate.
"""

import pathlib

import pytest

from repro.analysis import all_rules, analyze_source

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

RULES = [
    "blocking-in-async",
    "permit-leak",
    "shed-discipline",
    "span-discipline",
    "staging-pairing",
]


def _fixture(kind: str, rule_id: str) -> str:
    name = f"{kind}_{rule_id.replace('-', '_')}.py"
    return (FIXTURES / name).read_text(encoding="utf-8")


def test_fixture_corpus_is_complete():
    registered = {rule.id for rule in all_rules()}
    assert registered == set(RULES)
    for rule_id in RULES:
        for kind in ("tp", "fp"):
            name = f"{kind}_{rule_id.replace('-', '_')}.py"
            assert (FIXTURES / name).is_file(), f"missing fixture {name}"


@pytest.mark.parametrize("rule_id", RULES)
def test_rule_fires_on_true_positive(rule_id):
    findings = analyze_source(_fixture("tp", rule_id), f"tp_{rule_id}.py")
    fired = [f for f in findings if f.rule == rule_id and f.counts_against_gate]
    assert fired, f"{rule_id} did not fire on its true-positive fixture"


@pytest.mark.parametrize("rule_id", RULES)
def test_rule_quiet_on_false_positive(rule_id):
    findings = analyze_source(_fixture("fp", rule_id), f"fp_{rule_id}.py")
    noisy = [f for f in findings if f.counts_against_gate]
    assert not noisy, (
        f"false-positive fixture for {rule_id} raised findings:\n"
        + "\n".join(f"  {f.rule}@{f.line}: {f.message}" for f in noisy)
    )


@pytest.mark.parametrize("rule_id", RULES)
def test_rule_metadata(rule_id):
    from repro.analysis import get_rule

    rule = get_rule(rule_id)
    assert rule.summary, f"{rule_id} has no summary"
    assert rule.hint, f"{rule_id} has no hint"
    doc = type(rule).doc()
    assert "::" in doc, f"{rule_id} docstring carries no in-repo example"


def test_vector_modules_are_clean_sync_helpers():
    """The vector tier's scans are sync helpers: zero gate findings.

    The executor-offload idiom the service layer uses for whole-column
    scans must not read as blocking-in-async (or anything else) — a rule
    change that starts flagging ``repro.core.vector`` fails here first.
    """
    vector_dir = pathlib.Path(__file__).parents[2] / "src" / "repro" / "core" / "vector"
    modules = sorted(vector_dir.glob("*.py"))
    assert modules, f"no vector modules found under {vector_dir}"
    for module in modules:
        findings = analyze_source(
            module.read_text(encoding="utf-8"), str(module)
        )
        noisy = [f for f in findings if f.counts_against_gate]
        assert not noisy, (
            f"{module.name} raised findings:\n"
            + "\n".join(f"  {f.rule}@{f.line}: {f.message}" for f in noisy)
        )


def test_findings_carry_location_and_snippet():
    findings = analyze_source(_fixture("tp", "permit-leak"), "tp_permit_leak.py")
    finding = next(f for f in findings if f.rule == "permit-leak")
    assert finding.line > 0
    assert "acquire" in finding.snippet
    assert finding.hint
