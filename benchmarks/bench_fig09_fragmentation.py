"""Figure 9: evaluation time vs. number of machines/fragments (Experiment 1).

Regenerates both sub-figures over the FT1 fragment tree with a constant
cumulative size and 1..10 fragments, and checks the paper's qualitative
claims:

* fragmentation helps: the most fragmented iteration is faster than the
  single-fragment iteration for every variant;
* XPath-annotations let PaX3 skip the answer-retrieval stage on Q1: one
  visit per site instead of two (a Q1 run is under a millisecond, so the
  claim is asserted on the visit count, not on the clock);
* PaX2 is faster than PaX3 on Q4 (one pass instead of two).
"""

from __future__ import annotations

import pytest
from conftest import scaled, write_report

from repro.bench.experiment1 import run_experiment1
from repro.bench.harness import measure_run
from repro.workloads.queries import PAPER_QUERIES
from repro.workloads.scenarios import build_ft1

TOTAL_BYTES = scaled(300_000)
MAX_FRAGMENTS = 10


def _series(report, label):
    return report.series[label].values


@pytest.fixture(scope="module")
def figures(results_dir):
    reports = run_experiment1(total_bytes=TOTAL_BYTES, max_fragments=MAX_FRAGMENTS)
    for key, report in reports.items():
        write_report(results_dir, key, report.render())
    return reports


def test_fig9a_q1_fragmentation(figures):
    """Figure 9(a): PaX3 on Q1, with and without annotations."""
    fig = figures["fig9a"]
    na = _series(fig, "PaX3-NA-Q1")
    xa = _series(fig, "PaX3-XA-Q1")
    # Parallelism: the 10-fragment iteration beats the unfragmented one.
    assert na[-1] < na[0]
    assert xa[-1] < xa[0]
    # Annotations remove the candidate-resolution stage.
    scenario = build_ft1(fragment_count=MAX_FRAGMENTS, total_bytes=TOTAL_BYTES, seed=7)
    visits = {
        label: measure_run(label, scenario, PAPER_QUERIES["Q1"]).max_site_visits
        for label in ("PaX3-NA", "PaX3-XA")
    }
    assert visits == {"PaX3-NA": 2, "PaX3-XA": 1}


def test_fig9b_q4_fragmentation(figures):
    """Figure 9(b): PaX3 vs PaX2 on Q4 (no annotations)."""
    fig = figures["fig9b"]
    pax3 = _series(fig, "PaX3-NA-Q4")
    pax2 = _series(fig, "PaX2-NA-Q4")
    # Fragmentation helps both algorithms.
    assert pax3[-1] < pax3[0]
    assert pax2[-1] < pax2[0]
    # Combining the two passes makes PaX2 the faster algorithm overall.
    assert sum(pax2) < sum(pax3)
