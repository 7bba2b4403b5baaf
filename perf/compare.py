#!/usr/bin/env python3
"""Compare two result files of ``perf/run.py``: ``python3 perf/compare.py A.json B.json``.

A is the base (the parent commit), B the change.  Every (end-to-end metric,
workload) pair gets its own row, with B/A as the ratio and A as its base, and
one verdict from the bound ``BENCHMARK.json`` fixes for the metric:

* ``regressed``  — B is worse than A by more than the bound
* ``improved``   — B is better than A by more than the bound
* ``unresolved`` — within the bound, but a file's own rounds do not pin the
  value down that tightly (its two quietest rounds differ by more than the
  bound; for ``setup_s``, a median, its set-ups' interquartile range over
  their median does), so "no change" cannot be told from noise
* ``unchanged``  — within the bound, and both files' rounds agree that tightly

Exit code 1 on any regression or when B failed a larger share of its operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def own_spread(metric: dict, values: List[float]) -> float:
    """How loosely a result's own rounds pin down the value it reports."""
    if len(values) < 2:
        return 0.0  # counts and memory are not measured per round
    if metric["name"] == "setup_s":  # reported as the median of the set-ups
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / statistics.median(values)
    # reported as the best round: do the two best rounds agree?
    best, second = sorted(values, reverse=metric["better"] == "higher")[:2]
    return abs(best - second) / best


def verdict(metric: dict, base: float, new: float, round_spread: float) -> str:
    worse = (new - base) / base if metric["better"] == "lower" else (base - new) / base
    if worse > metric["bound"]:
        return "regressed"
    if -worse > metric["bound"]:
        return "improved"
    return "unresolved" if round_spread > metric["bound"] else "unchanged"


def compare(base: dict, new: dict, metrics: List[dict]) -> Tuple[List[tuple], bool]:
    """Rows ``(workload, metric, base, new, ratio, verdict)`` and whether B is acceptable."""
    rows: List[tuple] = []
    acceptable = True
    for workload, base_result in base["workloads"].items():
        new_result = new["workloads"].get(workload)
        if new_result is None:
            continue
        for metric in metrics:
            name = metric["name"]
            a = base_result["end_to_end"][name]["value"]
            b = new_result["end_to_end"][name]["value"]
            rounds = max(
                own_spread(metric, result["rounds"].get(name, []))
                for result in (base_result, new_result)
            )
            status = verdict(metric, a, b, rounds)
            acceptable &= status != "regressed"
            rows.append((workload, name, a, b, b / a, status))
        a = base_result["failed"] / base_result["attempted"]
        b = new_result["failed"] / new_result["attempted"]
        status = "regressed" if b > a else "unchanged"
        acceptable &= b <= a
        rows.append((workload, "failed_share", a, b, float("nan") if a == 0 else b / a, status))
    return rows, acceptable


def main(argv=None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in arguments)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows, acceptable = compare(base, new, metrics)
    print(f"{'workload':18s} {'metric':26s} {'A (base)':>14s} {'B':>14s} {'B/A':>8s}  verdict")
    for workload, name, a, b, ratio, status in rows:
        print(f"{workload:18s} {name:26s} {a:14.4f} {b:14.4f} {ratio:8.4f}  {status}")
    return 0 if acceptable else 1


if __name__ == "__main__":
    sys.exit(main())
