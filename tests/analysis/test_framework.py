"""The analyzer machinery: suppression, ordering, reports, exit codes, baseline."""

import json

import pytest

from repro.analysis import (
    PARSE_ERROR_RULE,
    analyze_source,
    load_baseline,
    render_json,
    run,
    save_baseline,
)
from repro.analysis.report import JSON_VERSION, Report
from repro.cli import main as cli_main

LEAKY = """\
async def leaky(gate, peer):
    await gate.acquire("doc")
    await peer.ping()
    gate.release("doc")
"""


# -- suppression ------------------------------------------------------------


def test_suppression_on_the_flagged_line():
    source = LEAKY.replace(
        'await gate.acquire("doc")',
        'await gate.acquire("doc")  # repro: allow[permit-leak] test holds the permit',
    )
    findings = analyze_source(source, "x.py")
    assert [f.rule for f in findings] == ["permit-leak"]
    assert findings[0].suppressed and not findings[0].counts_against_gate


def test_suppression_on_preceding_comment_line():
    source = LEAKY.replace(
        '    await gate.acquire("doc")',
        '    # repro: allow[permit-leak] exercised under cancellation below\n'
        '    await gate.acquire("doc")',
    )
    findings = analyze_source(source, "x.py")
    assert findings and all(f.suppressed for f in findings)


def test_preceding_code_line_comment_does_not_leak_downward():
    # The allow-comment must be standalone to cover the next line.
    source = LEAKY.replace(
        "async def leaky(gate, peer):",
        "async def leaky(gate, peer):  # repro: allow[permit-leak]",
    )
    findings = analyze_source(source, "x.py")
    assert findings and not findings[0].suppressed


def test_one_comment_suppresses_several_rules():
    source = (
        "import time\n"
        "async def f(gate, peer):\n"
        "    await gate.acquire('d')\n"
        "    # repro: allow[permit-leak, blocking-in-async] simulated stall\n"
        "    time.sleep(0.1)\n"
        "    await peer.ping()\n"
        "    gate.release('d')\n"
    )
    findings = analyze_source(source, "x.py")
    blocking = [f for f in findings if f.rule == "blocking-in-async"]
    assert blocking and blocking[0].suppressed
    # permit-leak anchors at the acquire line, which the comment does not cover
    leak = [f for f in findings if f.rule == "permit-leak"]
    assert leak and not leak[0].suppressed


def test_suppressing_the_wrong_rule_does_nothing():
    source = LEAKY.replace(
        'await gate.acquire("doc")',
        'await gate.acquire("doc")  # repro: allow[span-discipline]',
    )
    findings = analyze_source(source, "x.py")
    assert findings and not findings[0].suppressed


# -- ordering and the JSON schema -------------------------------------------


def test_findings_sort_by_location_then_rule():
    source = (
        "import time\n"
        "async def f(gate, peer):\n"
        "    await gate.acquire('d')\n"
        "    time.sleep(0.1)\n"
        "    await peer.ping()\n"
        "    gate.release('d')\n"
    )
    findings = analyze_source(source, "x.py")
    keys = [(f.path, f.line, f.col, f.rule) for f in findings]
    assert keys == sorted(keys)
    assert len({f.rule for f in findings}) >= 2


def test_json_schema_keys(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(LEAKY, encoding="utf-8")
    report = run([str(tmp_path)])
    payload = json.loads(render_json(report))
    assert payload["version"] == JSON_VERSION
    assert payload["analyzer"] == "repro-lint"
    assert payload["files_analyzed"] == 1
    assert {r["id"] for r in payload["rules"]} >= {"permit-leak", "span-discipline"}
    assert payload["counts"]["total"] == len(payload["findings"])
    assert payload["counts"]["unsuppressed"] == 1
    entry = payload["findings"][0]
    assert set(entry) == {
        "rule", "path", "line", "col", "message", "hint", "snippet",
        "suppressed", "baselined", "fingerprint",
    }


# -- exit codes: 0 clean, 1 findings, 2 analyzer crash ----------------------


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
    assert cli_main(["lint", str(tmp_path)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_exit_one_on_findings(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(LEAKY, encoding="utf-8")
    assert cli_main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "permit-leak" in out and "fix:" in out


def test_exit_two_on_analyzer_crash(tmp_path, monkeypatch, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
    from repro.analysis import runner

    def boom(path):
        raise RuntimeError("checker exploded")

    monkeypatch.setattr(runner, "analyze_file", boom)
    assert cli_main(["lint", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "analyzer crashed" in err and "checker exploded" in err


def test_parse_error_is_a_finding_not_a_crash(tmp_path, capsys):
    (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
    assert cli_main(["lint", str(tmp_path)]) == 1
    assert PARSE_ERROR_RULE in capsys.readouterr().out


def test_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("permit-leak", "blocking-in-async", "staging-pairing",
                    "shed-discipline", "span-discipline"):
        assert f"{rule_id}:" in out


# -- baseline ---------------------------------------------------------------


def test_baseline_roundtrip(tmp_path, capsys):
    vendored = tmp_path / "vendored"
    vendored.mkdir()
    (vendored / "legacy.py").write_text(LEAKY, encoding="utf-8")
    baseline_path = tmp_path / "lint_baseline.json"

    assert cli_main(["lint", str(vendored)]) == 1
    assert cli_main([
        "lint", str(vendored), "--update-baseline", str(baseline_path),
    ]) == 0
    capsys.readouterr()

    # Adopted findings pass the gate...
    assert cli_main(["lint", str(vendored), "--baseline", str(baseline_path)]) == 0
    # ...but a new finding still fails it.
    (vendored / "fresh.py").write_text(LEAKY.replace("leaky", "fresh"), encoding="utf-8")
    assert cli_main(["lint", str(vendored), "--baseline", str(baseline_path)]) == 1


def test_baseline_survives_line_moves(tmp_path):
    target = tmp_path / "legacy.py"
    target.write_text(LEAKY, encoding="utf-8")
    baseline_path = str(tmp_path / "base.json")
    save_baseline(baseline_path, run([str(tmp_path)]).findings)

    # Unrelated edits above the finding shift every line number.
    target.write_text("import os\n\n\n" + LEAKY, encoding="utf-8")
    report = run([str(tmp_path)], baseline=load_baseline(baseline_path))
    assert report.exit_code == 0
    assert all(f.baselined for f in report.findings)


def test_report_counts_are_consistent():
    source = LEAKY.replace(
        'await gate.acquire("doc")',
        'await gate.acquire("doc")  # repro: allow[permit-leak]',
    )
    findings = analyze_source(LEAKY, "a.py") + analyze_source(source, "b.py")
    report = Report(findings=findings, files_analyzed=2)
    counts = report.counts()
    assert counts["total"] == counts["unsuppressed"] + counts["suppressed"]
    assert report.exit_code == 1
