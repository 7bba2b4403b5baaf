"""Ablation: design choices the paper leaves to the system.

The paper's algorithms work for *any* fragmentation and placement; these
ablations quantify how much those free choices matter, using the same
machinery as the figure benchmarks:

* **granularity** — the same document cut into 2, 5, 10, 20 size-balanced
  fragments: the parallel time tracks the largest fragment, the traffic grows
  only with the number of fragment-tree edges (`O(|Q| |FT|)`);
* **placement** — ten fragments placed on 1, 2, 5, 10 sites: fewer sites mean
  less parallelism but never more visits per site than the guarantee.

The tables report the parallel time; the claims about it are asserted on
what it tracks, the operations of the busiest site.
"""

from __future__ import annotations

from conftest import largest_site_operations, scaled, write_report

from repro.bench.reporting import format_table
from repro.core.pax2 import run_pax2
from repro.distributed.placement import round_robin_placement
from repro.fragments.fragmenters import cut_by_size
from repro.workloads.queries import PAPER_QUERIES
from repro.workloads.scenarios import build_ft1
from repro.workloads.xmark import SiteSpec, generate_sites_document
from repro.xpath.centralized import evaluate_centralized

QUERY = PAPER_QUERIES["Q3"]


def _granularity_rows(total_bytes: int):
    tree = generate_sites_document([SiteSpec.from_bytes(total_bytes // 2)] * 2, seed=17)
    expected = evaluate_centralized(tree, QUERY).answer_ids
    rows = [[
        "fragments", "largest fragment (elems)", "parallel ms", "busiest site ops",
        "traffic units", "max visits",
    ]]
    measurements = []
    for budget in (tree.element_count(), 2_000, 800, 400, 200):
        fragmentation = cut_by_size(tree, max_elements=budget)
        stats = run_pax2(fragmentation, QUERY)
        assert stats.answer_ids == expected
        measurements.append((len(fragmentation), fragmentation.max_fragment_elements(), stats))
        rows.append([
            str(len(fragmentation)),
            str(fragmentation.max_fragment_elements()),
            f"{stats.parallel_seconds * 1000:.1f}",
            str(largest_site_operations(stats)),
            str(stats.communication_units),
            str(stats.max_site_visits),
        ])
    return rows, measurements


def test_ablation_fragment_granularity(benchmark, results_dir):
    rows, measurements = benchmark.pedantic(
        _granularity_rows, kwargs={"total_bytes": scaled(200_000)}, rounds=1, iterations=1
    )
    write_report(
        results_dir, "ablation_granularity",
        "Ablation: fragment granularity (query Q3, PaX2)\n"
        "===============================================\n" + format_table(rows),
    )
    coarsest, finest = measurements[0], measurements[-1]
    # Finer fragmentation shrinks the largest fragment and the busiest site's work...
    assert finest[1] < coarsest[1]
    assert largest_site_operations(finest[2]) < largest_site_operations(coarsest[2])
    # ...while the visit guarantee holds at every granularity.
    assert all(stats.max_site_visits <= 2 for _, _, stats in measurements)


def _placement_rows(total_bytes: int):
    scenario = build_ft1(fragment_count=10, total_bytes=total_bytes, seed=19)
    expected = evaluate_centralized(scenario.tree, QUERY).answer_ids
    rows = [["sites", "parallel ms", "total ms", "busiest site ops", "max visits", "traffic units"]]
    measurements = []
    for site_count in (1, 2, 5, 10):
        placement = round_robin_placement(scenario.fragmentation, site_count=site_count)
        stats = run_pax2(scenario.fragmentation, QUERY, placement=placement)
        assert stats.answer_ids == expected
        measurements.append((site_count, stats))
        rows.append([
            str(site_count),
            f"{stats.parallel_seconds * 1000:.1f}",
            f"{stats.total_seconds * 1000:.1f}",
            str(largest_site_operations(stats)),
            str(stats.max_site_visits),
            str(stats.communication_units),
        ])
    return rows, measurements


def test_ablation_placement(benchmark, results_dir):
    rows, measurements = benchmark.pedantic(
        _placement_rows, kwargs={"total_bytes": scaled(200_000)}, rounds=1, iterations=1
    )
    write_report(
        results_dir, "ablation_placement",
        "Ablation: fragments per site (query Q3, PaX2, 10 fragments)\n"
        "============================================================\n" + format_table(rows),
    )
    single_site = measurements[0][1]
    ten_sites = measurements[-1][1]
    # Spreading fragments over more sites reduces the busiest site's work...
    assert largest_site_operations(ten_sites) < largest_site_operations(single_site)
    # ...and the per-site visit bound is independent of how many fragments a
    # site holds (the paper's property (a)/(d)).
    assert all(stats.max_site_visits <= 2 for _, stats in measurements)
