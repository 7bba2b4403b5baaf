"""Serving a read/write workload with incremental maintenance.

The document is no longer frozen: this example starts a
:class:`repro.service.ServiceEngine` over the XMark FT2 scenario and drives
a mixed stream of queries and typed mutations (insert subtree, delete
subtree, edit text) through it.  Every write lands through the mutation API
— admission-controlled alongside the reads — bumps exactly one fragment's
epoch, rebuilds exactly one columnar encoding, rolls the version tag
forward without walking the document, and retires only the cached answers
that depended on the touched fragment.

Run it with::

    python examples/service_updates.py [ops] [write_percent]

The standing benchmark is ``python3 perf/run.py --workload svc_mixed_rw``
(skewed reads with 5% writes through the default host); that maintained
state equals a rebuild after every write is
``tests/updates/test_incremental_differential.py``.
"""

from __future__ import annotations

import sys

from repro.service.server import ServiceEngine
from repro.updates import MixedWorkload
from repro.workloads.queries import PAPER_QUERIES
from repro.workloads.scenarios import build_ft2


def main() -> None:
    ops = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    write_percent = float(sys.argv[2]) if len(sys.argv) > 2 else 10.0

    scenario = build_ft2(total_bytes=120_000, seed=11)
    service = ServiceEngine(
        scenario.fragmentation, placement=scenario.placement, max_in_flight=16
    )
    print(f"scenario: {scenario.description}")
    print(
        f"document: {scenario.tree.size()} nodes over"
        f" {scenario.fragment_count} fragments\n"
    )

    workload = MixedWorkload(
        scenario.fragmentation,
        list(PAPER_QUERIES.values()),
        write_ratio=write_percent / 100.0,
        seed=42,
    )
    walks_before = scenario.fragmentation.full_walks
    for _ in range(ops):
        op = workload.next_op()
        if op.is_write:
            service.update(op.mutation)
        else:
            service.execute(op.query)

    print(service.host.summary())
    print(
        f"\nfull-document walks while serving:"
        f" {scenario.fragmentation.full_walks - walks_before}"
        f" (the epoch-based version tag never re-walks the tree)"
    )
    scenario.fragmentation.validate()
    print("fragmentation invariants: OK after every mutation")


if __name__ == "__main__":
    main()
