"""Figure 11: total computation time vs. cumulative data size (Experiment 3).

The same runs as Figure 10, but the y axis sums the evaluation time over
every machine holding a fragment.  The timed series are the figure; the
paper's claims are asserted on the operation counts of the same runs (a Q1
run is a millisecond of per-site fixed cost, so its clock cannot carry a
ratio), and on the wall clock only where the margin is wide:

* with annotations the *total* computation of Q1/Q2 drops to under a fifth /
  under a half (pruned machines do no work at all), at every size,
* PaX2's savings over PaX3 appear in the total as well (Q3, Q4), and on Q3
  annotations cut PaX2's total as they cut Q1's.
"""

from __future__ import annotations

import pytest
from conftest import write_report


def _series(report, label):
    return report.series[label].values


@pytest.fixture(scope="module")
def figures(ft2_sweep, results_dir):
    reports = ft2_sweep.figures("total_seconds")
    for key, report in reports.items():
        write_report(results_dir, key, report.render())
    return reports


def _operation_ratios(ft2_sweep, query_name, label, baseline):
    """total_operations of *label* over *baseline*, per size of the sweep."""
    return [
        run.total_operations / base.total_operations
        for run, base in zip(ft2_sweep.runs[query_name, label], ft2_sweep.runs[query_name, baseline])
    ]


def test_fig11a_q1_total(ft2_sweep, figures):
    # Pruned fragments do no work: 4 of 10 evaluated, under a fifth of the
    # operations (the paper reports the time dropping by roughly two thirds).
    for ratio in _operation_ratios(ft2_sweep, "Q1", "PaX3-XA", "PaX3-NA"):
        assert ratio == pytest.approx(0.19, abs=0.01)


def test_fig11b_q2_total(ft2_sweep, figures):
    for ratio in _operation_ratios(ft2_sweep, "Q2", "PaX3-XA", "PaX3-NA"):
        assert ratio == pytest.approx(0.465, abs=0.01)


def test_fig11c_q3_total(ft2_sweep, figures):
    for ratio in _operation_ratios(ft2_sweep, "Q3", "PaX2-XA", "PaX2-NA"):
        assert ratio == pytest.approx(0.19, abs=0.01)
    fig = figures["fig11c"]
    pax3 = _series(fig, "PaX3-NA-Q3")
    pax2 = _series(fig, "PaX2-NA-Q3")
    pax2_xa = _series(fig, "PaX2-XA-Q3")
    assert sum(pax2) < sum(pax3)
    assert sum(pax2_xa) < sum(pax2)


def test_fig11d_q4_total(ft2_sweep, figures):
    fig = figures["fig11d"]
    pax3 = _series(fig, "PaX3-NA-Q4")
    pax2 = _series(fig, "PaX2-NA-Q4")
    assert sum(pax2) < sum(pax3)
    assert pax3[-1] > pax3[0]
