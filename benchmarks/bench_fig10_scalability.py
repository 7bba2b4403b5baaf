"""Figure 10: parallel evaluation time vs. cumulative data size (Experiment 2).

Regenerates the four sub-figures over the FT2 fragment tree.  The timed
series are the figure; the paper's claims about them are asserted on the
deterministic counts the same runs carry, and on the wall clock only where
the margin is wide (PaX2 vs PaX3, smallest vs largest document):

* every variant scales linearly: doubling the bytes doubles the operations,
* annotations prune Q1 to 4 and Q2 to 6 of the 10 fragments,
* PaX2 visits a site twice where PaX3 visits it three times when qualifiers
  are present (Q3, Q4), and annotations prune PaX2 further on Q3,
* on Q4 (a ``//`` that reaches every fragment) all ten fragments run.
"""

from __future__ import annotations

import pytest
from conftest import write_report


def _series(report, label):
    return report.series[label].values


@pytest.fixture(scope="module")
def figures(ft2_sweep, results_dir):
    reports = ft2_sweep.figures("parallel_seconds")
    for key, report in reports.items():
        write_report(results_dir, key, report.render())
    return reports


def _evaluated(runs):
    return {len(stats.fragments_evaluated) for stats in runs}


def _visits(runs):
    return {stats.max_site_visits for stats in runs}


def _growth(runs):
    """Operations at the largest size over operations at the smallest (2x the bytes)."""
    return runs[-1].total_operations / runs[0].total_operations


def test_fig10a_q1_scalability(ft2_sweep, figures):
    na, xa = ft2_sweep.runs["Q1", "PaX3-NA"], ft2_sweep.runs["Q1", "PaX3-XA"]
    assert _evaluated(na) == {10} and _evaluated(xa) == {4}
    assert _growth(na) == pytest.approx(2.02, abs=0.02)


def test_fig10b_q2_scalability(ft2_sweep, figures):
    na, xa = ft2_sweep.runs["Q2", "PaX3-NA"], ft2_sweep.runs["Q2", "PaX3-XA"]
    assert _evaluated(na) == {10} and _evaluated(xa) == {6}
    assert _growth(na) == pytest.approx(2.02, abs=0.02)


def test_fig10c_q3_scalability(ft2_sweep, figures):
    runs = ft2_sweep.runs
    # one pass instead of two: a visit less per site, and the faster curve
    assert _visits(runs["Q3", "PaX3-NA"]) == {3}
    assert _visits(runs["Q3", "PaX2-NA"]) == {2}
    fig = figures["fig10c"]
    assert sum(_series(fig, "PaX2-NA-Q3")) < sum(_series(fig, "PaX3-NA-Q3"))
    # annotations prune the combined pass
    assert _evaluated(runs["Q3", "PaX2-NA"]) == {10}
    assert _evaluated(runs["Q3", "PaX2-XA"]) == {4}


def test_fig10d_q4_scalability(ft2_sweep, figures):
    runs = ft2_sweep.runs
    assert _visits(runs["Q4", "PaX3-NA"]) == {3}
    assert _visits(runs["Q4", "PaX2-NA"]) == {2}
    assert _evaluated(runs["Q4", "PaX3-NA"]) == _evaluated(runs["Q4", "PaX2-NA"]) == {10}
    assert _growth(runs["Q4", "PaX3-NA"]) == pytest.approx(2.02, abs=0.02)
    fig = figures["fig10d"]
    pax3, pax2 = _series(fig, "PaX3-NA-Q4"), _series(fig, "PaX2-NA-Q4")
    assert sum(pax2) < sum(pax3)
    assert pax3[-1] > pax3[0]          # more data, more time
