"""Experiment 2 (Figure 10): evaluation time vs. cumulative data size.

The fragment tree is FT2 (four XMark sites, ten fragments with the paper's
5/12/28/8 size ratios); at every iteration the cumulative data size grows
while the relative fragment sizes stay fixed.  One sub-figure per query:

* 10(a) Q1: no qualifiers, no ``//``   — PaX3-NA vs PaX3-XA
* 10(b) Q2: no qualifiers, with ``//`` — PaX3-NA vs PaX3-XA
* 10(c) Q3: qualifiers, no ``//``      — PaX3-NA vs PaX2-NA vs PaX2-XA
* 10(d) Q4: qualifiers and ``//``      — PaX3-NA vs PaX2-NA

Expected shapes: linear scaling in data size for every variant; annotations
more than halve Q1/Q2 (only 4 / 6 of the 10 fragments are evaluated);
annotations barely help PaX3 on Q3 (stage 1 runs everywhere) but do help
PaX2; for Q4 the ``//`` forces all fragments, so the only win is PaX2's
combined pass.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.bench.harness import measure_run
from repro.bench.reporting import ExperimentReport
from repro.distributed.stats import RunStats
from repro.workloads.queries import PAPER_QUERIES
from repro.workloads.scenarios import build_ft2
from repro.xpath.centralized import evaluate_centralized

__all__ = [
    "run_experiment2", "DEFAULT_SIZE_SWEEP", "FIGURE_VARIANTS", "FT2Sweep", "collect_ft2_runs",
]

#: default cumulative sizes (paper: 100 MB .. 280 MB in 20 MB steps, scaled down)
DEFAULT_SIZE_SWEEP = [400_000 + 80_000 * step for step in range(10)]

#: which variants each sub-figure plots
FIGURE_VARIANTS = {
    "fig10a": ("Q1", ["PaX3-NA", "PaX3-XA"]),
    "fig10b": ("Q2", ["PaX3-NA", "PaX3-XA"]),
    "fig10c": ("Q3", ["PaX3-NA", "PaX2-NA", "PaX2-XA"]),
    "fig10d": ("Q4", ["PaX3-NA", "PaX2-NA"]),
}

#: figure number, curve title and y axis of each plotted RunStats attribute
_METRICS = {
    "parallel_seconds": ("10", "evaluation time", "parallel evaluation time (s)"),
    "total_seconds": ("11", "total computation time", "total computation time (s)"),
}


class FT2Sweep(NamedTuple):
    """One sweep over FT2: ``runs[query name, variant label][i]`` is the run
    at ``sizes[i]``.  Figures 10 and 11 are two readings of the same runs, so
    a point of Figure 11 is never below its point of Figure 10, and the
    deterministic counts (fragments evaluated, operations, visits) that
    explain the curves sit next to the timings."""

    sizes: List[int]
    runs: Dict[Tuple[str, str], List[RunStats]]

    def figures(self, metric: str) -> Dict[str, ExperimentReport]:
        """The four sub-figures plotting *metric* (``parallel_seconds`` is
        Figure 10, ``total_seconds`` Figure 11), keyed ``fig10a`` / ``fig11a`` .."""
        number, title, y_label = _METRICS[metric]
        reports = {}
        for key, (query_name, variant_labels) in FIGURE_VARIANTS.items():
            report = ExperimentReport(
                title=f"Figure {number}({key[-1]}): {query_name} {title} vs cumulative data size",
                x_label="approx. bytes",
                y_label=y_label,
            )
            report.x_values.extend(self.sizes)
            for label in variant_labels:
                for stats in self.runs[query_name, label]:
                    report.add_point(f"{label}-{query_name}", getattr(stats, metric))
            report.add_note(
                "FT2: four XMark sites, ten fragments, paper size ratios 5/12/28/8 held constant"
            )
            reports[key.replace("10", number)] = report
        return reports


def collect_ft2_runs(sizes: Iterable[int], repeats: int = 1, seed: int = 11) -> FT2Sweep:
    """The sweep Experiments 2 and 3 share: every figure variant at every size."""
    sweep = FT2Sweep(list(sizes), {})
    for size in sweep.sizes:
        scenario = build_ft2(total_bytes=size, seed=seed)
        for query_name, variant_labels in FIGURE_VARIANTS.values():
            query = PAPER_QUERIES[query_name]
            expected = evaluate_centralized(scenario.tree, query).answer_ids
            for label in variant_labels:
                stats = measure_run(label, scenario, query, repeats, expected)
                sweep.runs.setdefault((query_name, label), []).append(stats)
    return sweep


def run_experiment2(
    sizes: Optional[Iterable[int]] = None,
    repeats: int = 1,
    seed: int = 11,
) -> Dict[str, ExperimentReport]:
    """Run Experiment 2 and return figures keyed ``fig10a`` .. ``fig10d``."""
    sweep = collect_ft2_runs(sizes or DEFAULT_SIZE_SWEEP, repeats=repeats, seed=seed)
    return sweep.figures("parallel_seconds")
