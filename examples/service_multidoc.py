"""Hosting many documents behind one shared scheduler.

The service layer no longer assumes one document: this example builds a
:class:`repro.service.ServiceHost`, registers several XMark tenants in its
:class:`repro.service.DocumentStore` catalog, and drives an interleaved
multi-tenant read/write stream through the shared scheduler — one actor
pool, one admission scheduler, one LRU result cache whose keys are
namespaced by document (a tenant can only ever hit its own entries), and
per-document sessions carrying the version tags and writer locks (writes to
different documents never serialize against each other).

It then drops one tenant mid-flight: only that tenant's cached answers are
purged, and the survivors keep serving hits as if nothing happened.

Run it with::

    python examples/service_multidoc.py [documents] [ops_per_document]

That a shared host answers exactly as N isolated single-document engines
under a mixed multi-tenant stream is
``tests/service/test_host.py::test_mixed_tenant_workload_matches_solo_engines``.
"""

from __future__ import annotations

import sys
import time

from repro.service import ServiceHost
from repro.workloads.multidoc import MultiDocumentWorkload, build_tenants


def main() -> None:
    documents = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    ops_per_document = int(sys.argv[2]) if len(sys.argv) > 2 else 60

    tenants = build_tenants(documents, total_bytes=40_000, seed=11)
    host = ServiceHost(max_in_flight=4 * documents)
    for tenant in tenants:
        host.register(tenant.name, tenant.fragmentation, tenant.placement)
    print(host.store.summary())
    print()

    # One interleaved multi-tenant stream: each tenant contributes reads
    # (the paper's four benchmark queries) and writes (typed mutations),
    # round-robin across documents.
    workload = MultiDocumentWorkload(tenants, write_ratio=0.1, seed=42)
    started = time.perf_counter()
    for name, op in workload.ops(ops_per_document):
        if op.is_write:
            host.update(name, op.mutation)
        else:
            host.execute(name, op.query)
    wall = time.perf_counter() - started
    total_ops = documents * ops_per_document
    print(f"served {total_ops} ops over {documents} documents"
          f" in {wall * 1000:.1f} ms ({total_ops / wall:.0f} ops/s)\n")
    print(host.summary())

    # Drop one tenant: its cache entries go, everyone else's survive.
    victim = tenants[0].name
    survivor = tenants[-1].name if documents > 1 else victim
    purged = host.drop_document(victim)
    print(f"\ndropped {victim!r}: purged {purged} cached answers")
    if survivor != victim:
        hits_before = host.cache.stats.document(survivor).hits
        host.execute(survivor, tenants[-1].queries[0])
        hits_after = host.cache.stats.document(survivor).hits
        print(f"{survivor!r} still serves from cache:"
              f" hits {hits_before} -> {hits_after}")


if __name__ == "__main__":
    main()
