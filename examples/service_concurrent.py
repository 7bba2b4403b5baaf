"""Serving many concurrent clients through the service layer.

The batch engine (``DistributedQueryEngine``) answers one query at a time;
this example starts a :class:`repro.service.ServiceEngine` over the XMark
FT2 scenario and fires a multi-user request stream at it — N simulated
clients drawing from the paper's four benchmark queries — then prints what a
serving system cares about: throughput, latency percentiles, cache hit rate,
single-flight coalescing and per-site actor load, cold versus warm cache.

Run it with::

    python examples/service_concurrent.py [clients] [requests]

The equivalent CLI verb is ``python -m repro serve`` (your own document and
query file); the standing benchmark is ``python3 perf/run.py --workload
svc_big_uncached`` (result cache off, 8 callers) and ``--workload
svc_mixed_rw`` (cache on, 5% writes).
"""

from __future__ import annotations

import sys
import time

from repro import DistributedQueryEngine
from repro.workloads.queries import PAPER_QUERIES
from repro.workloads.scenarios import build_ft2


def main() -> None:
    clients = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    requests = int(sys.argv[2]) if len(sys.argv) > 2 else 128

    scenario = build_ft2(total_bytes=120_000, seed=11)
    engine = DistributedQueryEngine(scenario.fragmentation, placement=scenario.placement)
    print(f"scenario: {scenario.description}")
    print(f"document: {scenario.tree.size()} nodes over {scenario.fragment_count} fragments\n")

    # The request stream: `requests` queries round-robin over the paper's
    # four benchmark queries — a stand-in for many users asking overlapping
    # questions about the same document.
    pool = list(PAPER_QUERIES.values())
    stream = [pool[index % len(pool)] for index in range(requests)]

    # Baseline: the seed's only serving mode, a sequential execute() loop.
    started = time.perf_counter()
    for query in stream:
        engine.execute(query)
    sequential_wall = time.perf_counter() - started
    print(f"sequential loop  : {requests / sequential_wall:8.1f} queries/s"
          f" ({sequential_wall * 1000:.1f} ms wall)")

    # The service: admission control, per-site actors, normalized-query cache.
    service = engine.as_service(max_in_flight=clients, site_parallelism=4)

    started = time.perf_counter()
    service.serve_batch(stream, concurrency=clients)
    cold_wall = time.perf_counter() - started
    print(f"service (cold)   : {requests / cold_wall:8.1f} queries/s"
          f" ({cold_wall * 1000:.1f} ms wall, {clients} clients)")

    started = time.perf_counter()
    service.serve_batch(stream, concurrency=clients)
    warm_wall = time.perf_counter() - started
    print(f"service (warm)   : {requests / warm_wall:8.1f} queries/s"
          f" ({warm_wall * 1000:.1f} ms wall, {clients} clients)\n")

    print(service.host.summary())
    print()
    print(f"speedup vs sequential: {sequential_wall / cold_wall:.1f}x cold,"
          f" {sequential_wall / warm_wall:.1f}x warm")


if __name__ == "__main__":
    main()
