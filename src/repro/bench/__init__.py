"""Benchmark harness: regenerates every figure of the paper's evaluation.

Each ``experimentN`` module reproduces one of the paper's experiment series
(Section 6) and returns :class:`~repro.bench.reporting.Series` objects that
print in the same shape as the paper's plots: an x axis (number of fragments
or cumulative data size) and one line per algorithm/optimization combination.

The paper's absolute numbers come from ten LAN machines and 100–280 MB of
data; the harness defaults scale the data down (keeping every ratio) so a
figure regenerates in minutes on one machine.  Pass a larger ``scale`` for a
closer-to-paper run.
"""

from repro.bench.harness import AlgorithmVariant, measure_run, VARIANTS
from repro.bench.reporting import ExperimentReport, Series, format_table
from repro.bench.experiment1 import run_experiment1
from repro.bench.experiment2 import run_experiment2
from repro.bench.experiment3 import run_experiment3
from repro.bench.guarantees import run_guarantees

__all__ = [
    "AlgorithmVariant",
    "VARIANTS",
    "measure_run",
    "Series",
    "ExperimentReport",
    "format_table",
    "run_experiment1",
    "run_experiment2",
    "run_experiment3",
    "run_guarantees",
]
