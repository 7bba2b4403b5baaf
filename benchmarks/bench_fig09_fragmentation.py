"""Figure 9: evaluation time vs. number of machines/fragments (Experiment 1).

Regenerates both sub-figures over the FT1 fragment tree with a constant
cumulative size and 1..10 fragments.  The timed series are the figure; the
paper's qualitative claims are asserted on the counts the same variants
carry, and on the clock only where the margin is wide:

* fragmentation helps: at 10 fragments the busiest site runs fewer
  operations than the single site of the unfragmented iteration, for every
  variant;
* XPath-annotations let PaX3 skip the answer-retrieval stage on Q1: one
  visit per site instead of two;
* PaX2 is faster than PaX3 on Q4 (one pass instead of two).
"""

from __future__ import annotations

import pytest
from conftest import largest_site_operations, scaled, write_report

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


@pytest.fixture(scope="module")
def ends():
    """The first and the last iteration's FT1: 1 and MAX_FRAGMENTS fragments."""
    return [
        build_ft1(fragment_count=count, total_bytes=TOTAL_BYTES, seed=7)
        for count in (1, MAX_FRAGMENTS)
    ]


def _fragmentation_helps(ends, label, query):
    """Whether the busiest site runs fewer operations at MAX_FRAGMENTS
    fragments than the one site of the unfragmented iteration."""
    single, spread = (
        largest_site_operations(measure_run(label, scenario, query)) for scenario in ends
    )
    return spread < single


def test_fig9a_q1_fragmentation(figures, ends):
    """Figure 9(a): PaX3 on Q1, with and without annotations."""
    # Parallelism: the 10-fragment iteration splits the work.
    for label in ("PaX3-NA", "PaX3-XA"):
        assert _fragmentation_helps(ends, label, PAPER_QUERIES["Q1"]), label
    # Annotations remove the candidate-resolution stage.
    visits = {
        label: measure_run(label, ends[-1], PAPER_QUERIES["Q1"]).max_site_visits
        for label in ("PaX3-NA", "PaX3-XA")
    }
    assert visits == {"PaX3-NA": 2, "PaX3-XA": 1}


def test_fig9b_q4_fragmentation(figures, ends):
    """Figure 9(b): PaX3 vs PaX2 on Q4 (no annotations)."""
    # Fragmentation helps both algorithms.
    for label in ("PaX3-NA", "PaX2-NA"):
        assert _fragmentation_helps(ends, label, PAPER_QUERIES["Q4"]), label
    # Combining the two passes makes PaX2 the faster algorithm overall.
    fig = figures["fig9b"]
    assert sum(_series(fig, "PaX2-NA-Q4")) < sum(_series(fig, "PaX3-NA-Q4"))
