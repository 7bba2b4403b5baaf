"""Shared fixtures and helpers for the figure-regeneration benchmarks.

Every benchmark regenerates one figure (or table) of the paper's evaluation
section.  Because the data is scaled down to laptop size, the *absolute*
numbers differ from the paper; each benchmark asserts the qualitative shape
the paper claims (who wins, roughly by how much, where optimizations stop
helping) and writes the full series to ``benchmarks/results/`` so the numbers
can be inspected and copied into EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# Allow running the benchmarks from a source checkout without installation.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bench.experiment2 import collect_ft2_runs  # noqa: E402 - needs the path above

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Scale factor for benchmark workloads; raise REPRO_BENCH_SCALE to get
#: closer to the paper's data sizes (1.0 keeps the quick laptop defaults).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def ft2_sweep():
    """The FT2 size sweep, run once: Figure 10 plots its parallel times,
    Figure 11 its total times, and both assert on the counts it carries."""
    return collect_ft2_runs(scaled(300_000 + 60_000 * step) for step in range(6))


def write_report(results_dir: Path, name: str, rendered: str) -> Path:
    """Write a rendered figure/table to the results directory and echo it."""
    path = results_dir / f"{name}.txt"
    path.write_text(rendered + "\n", encoding="utf-8")
    print(f"\n{rendered}\n[written to {path}]")
    return path


def scaled(value: int) -> int:
    """Apply the REPRO_BENCH_SCALE factor to a byte size."""
    return int(value * BENCH_SCALE)


def largest_site_operations(stats) -> int:
    """The most operations one site ran: what the parallel time tracks,
    counted, so a claim about it holds on a shared machine too."""
    return max(site.operations for site in stats.sites.values())
