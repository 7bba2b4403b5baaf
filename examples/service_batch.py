"""The fused batch tier: one scan per fragment per query wave.

Many concurrent users ask overlapping questions about the same document.
Without batching every in-flight query walks every relevant fragment on its
own; the batch tier coalesces the queries that reach the same fragment
round into **one** fused scan, with exact-duplicate queries (same
normalized form) collapsed to a single kernel slot first.

This example shows both entry points:

1. the synchronous wave runner — ``DistributedQueryEngine.run_batch``
   evaluates a whole list of queries in shared site rounds, and each query
   still gets the exact per-query RunStats its solo run would produce;
2. the service layer — concurrent submissions share fused site visits
   through the batching window (`ServiceConfig.batching`, on by default),
   and the batch-efficiency counters (queries per fused scan, dedup hits,
   window latency) appear next to the cache statistics.

Run it with::

    python examples/service_batch.py [wave_size]
"""

from __future__ import annotations

import sys
import time

from repro import DistributedQueryEngine
from repro.workloads.queries import PAPER_QUERIES
from repro.workloads.scenarios import build_ft2


def main() -> None:
    wave_size = int(sys.argv[1]) if len(sys.argv) > 1 else 16

    scenario = build_ft2(total_bytes=120_000, seed=11)
    engine = DistributedQueryEngine(scenario.fragmentation, placement=scenario.placement)
    print(f"scenario: {scenario.description}")
    print(f"document: {scenario.tree.size()} nodes over {scenario.fragment_count} fragments\n")

    # A wave: `wave_size` in-flight queries drawn round-robin from the
    # paper's four benchmark queries — so a wave of 16 holds only 4 distinct
    # forms, and the duplicates share kernel slots.
    pool = list(PAPER_QUERIES.values())
    wave = [pool[index % len(pool)] for index in range(wave_size)]

    # --- 1. synchronous: query-at-a-time vs one fused wave ----------------
    for query in wave:
        engine.run(query)  # warm the flat encodings and dispatch tables
    started = time.perf_counter()
    solo_stats = [engine.run(query) for query in wave]
    solo_wall = time.perf_counter() - started

    started = time.perf_counter()
    batch_stats = engine.run_batch(wave)
    batch_wall = time.perf_counter() - started

    assert [s.answer_ids for s in batch_stats] == [s.answer_ids for s in solo_stats]
    print(f"query-at-a-time  : {solo_wall * 1000:8.1f} ms for {wave_size} queries")
    print(f"fused wave       : {batch_wall * 1000:8.1f} ms"
          f" ({solo_wall / batch_wall:.1f}x, identical answers and accounting)\n")

    # --- 2. the service layer: fused site visits under concurrency --------
    # Cache and single-flight coalescing disabled so every request actually
    # reaches the batcher (in production you want all three layers on).
    service = engine.as_service(
        cache_capacity=0, coalesce=False, max_in_flight=wave_size,
        batch_window=0.001,
    )
    service.serve_batch(wave, concurrency=wave_size)
    print(service.session.batcher.stats.summary())
    print()
    print(service.host.summary())


if __name__ == "__main__":
    main()
