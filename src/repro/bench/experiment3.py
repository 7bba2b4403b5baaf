"""Experiment 3 (Figure 11): total computation time vs. cumulative data size.

Identical setting to Experiment 2 (fragment tree FT2, same queries and size
sweep) but the y axis is the *total* computation time — the sum of the
evaluation times of all machines holding a fragment — instead of the
parallel (max-over-sites) time.

Expected shapes: with XPath-annotations the total computation drops even more
than the parallel time for Q1/Q2 (pruned machines do no work at all); without
annotations the savings of PaX2 over PaX3 are proportional in both metrics;
for Q4 annotations do not help either metric.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.bench.experiment2 import DEFAULT_SIZE_SWEEP, collect_ft2_runs
from repro.bench.reporting import ExperimentReport

__all__ = ["run_experiment3"]


def run_experiment3(
    sizes: Optional[Iterable[int]] = None,
    repeats: int = 1,
    seed: int = 11,
) -> Dict[str, ExperimentReport]:
    """Run Experiment 3 and return figures keyed ``fig11a`` .. ``fig11d``."""
    sweep = collect_ft2_runs(sizes or DEFAULT_SIZE_SWEEP, repeats=repeats, seed=seed)
    return sweep.figures("total_seconds")
