"""Section 3.4 guarantees: visits, communication, and the naive baseline.

Not a figure in the paper, but the claims its analysis section makes are the
point of the whole exercise; this benchmark measures them directly:

* each site is visited at most 3 times by PaX3 and at most 2 times by PaX2,
  regardless of query and data size;
* PaX* communication does not grow with the document (beyond the answers),
  while the naive baseline's communication is the document size;
* XPath-annotations prune Q1 to 4 and Q2 to 6 of FT2's ten fragments, and
  cannot prune Q4, whose ``//`` reaches every fragment;
* all algorithms (including the naive baseline) return identical answers.
"""

from __future__ import annotations

from conftest import scaled, write_report

from repro.bench.guarantees import run_guarantees

SIZES = [scaled(200_000), scaled(600_000)]


def test_guarantees_table(benchmark, results_dir):
    result = benchmark.pedantic(
        run_guarantees, kwargs={"sizes": SIZES}, rounds=1, iterations=1
    )
    write_report(results_dir, "guarantees", result["rendered"])
    rows = result["rows"]

    by_algorithm: dict[str, list[dict]] = {}
    for row in rows:
        by_algorithm.setdefault(row["algorithm"], []).append(row)

    # Visit bounds.
    assert all(row["max_site_visits"] <= 3 for row in by_algorithm["PaX3-NA"])
    assert all(row["max_site_visits"] <= 2 for row in by_algorithm["PaX2-NA"])
    assert all(row["max_site_visits"] <= 2 for row in by_algorithm["PaX2-XA"])

    # Pruning, identical at both document sizes.
    def evaluated(label):
        return {(row["query"], row["fragments_evaluated"]) for row in by_algorithm[label]}

    assert evaluated("PaX2-NA") == {("Q1", 10), ("Q2", 10), ("Q3", 10), ("Q4", 10)}
    assert evaluated("PaX2-XA") == {("Q1", 4), ("Q2", 6), ("Q3", 4), ("Q4", 10)}

    # Naive ships the tree: its communication tracks the document size and
    # dwarfs PaX2's on every query.
    for query in {row["query"] for row in rows}:
        naive = [r for r in by_algorithm["Naive"] if r["query"] == query]
        pax2 = [r for r in by_algorithm["PaX2-NA"] if r["query"] == query]
        for naive_row, pax2_row in zip(naive, pax2):
            assert naive_row["communication_units"] > 5 * pax2_row["communication_units"]
            # Naive traffic is essentially the document: every node outside
            # the coordinator's own (root) fragment crosses the network.
            assert naive_row["communication_units"] >= 0.8 * naive_row["tree_nodes"]

    # PaX2 communication grows far slower than the document: compare the two
    # document sizes for the qualifier-free query Q1.
    q1 = [r for r in by_algorithm["PaX2-NA"] if r["query"] == "Q1"]
    small, large = q1[0], q1[-1]
    tree_growth = large["tree_nodes"] / small["tree_nodes"]
    comm_growth = (large["communication_units"] - large["answers"]) / max(
        1, small["communication_units"] - small["answers"]
    )
    assert comm_growth < tree_growth / 2
