"""Tenant interference protection: snapshots, fair queueing, shedding.

One shared :class:`repro.service.ServiceHost` serves every tenant, so a
flooding tenant is everyone's problem unless the host actively isolates
them.  This example walks the three mechanisms PR 8 added:

1. **MVCC snapshot reads** — a reader pins the current version's columnar
   encodings at admission and a concurrent writer never waits for it; the
   overlapped read stays exact at its pinned version
   (``stats.evaluated_version``).
2. **Weighted-fair admission** — a 2x-weighted tenant keeps its admission
   share while a neighbour floods the queue; per-document slices cap how
   many host slots the flooder can hold at once.
3. **Adaptive overload shedding** — submissions over a tenant's
   queue-depth budget fail fast with
   :class:`repro.service.OverloadShedError`, counted against that tenant
   only; the quiet neighbour never sheds.

Run it with::

    python examples/service_fairness.py

``tests/service/test_fairness.py::TestFairShareAsCompletionOrder`` pits a
victim tenant against an antagonist herd and pins its exact completion
positions, and ``tests/service/test_snapshots.py`` replays every snapshot read
taken while writes land against a quiesced re-run at its pinned version.
"""

from __future__ import annotations

import asyncio

from repro.service import FairnessPolicy, OverloadShedError, ServiceHost
from repro.updates import EditText
from repro.workloads.queries import clientele_example_tree, clientele_paper_fragmentation

QUERY = "//name"


def fragmentation():
    return clientele_paper_fragmentation(clientele_example_tree())


async def snapshot_reads(host: ServiceHost) -> None:
    session = host.session("victim")
    pinned_version = session.version
    text = next(
        node
        for node in session.fragmentation[session.fragmentation.fragment_ids()[0]].iter_span()
        if node.is_text
    )
    read = asyncio.create_task(host.submit("victim", QUERY))
    while session.snapshots.stats.pins == 0:  # wait until the read pinned
        await asyncio.sleep(0)
    # The write lands immediately — it never waits for the pinned reader.
    await host.apply_update("victim", EditText(text.node_id, "mid-read"))
    result = await read
    print(f"  read pinned {result.stats.evaluated_version!r}")
    print(f"  write rolled the live tree to {session.version!r} without waiting")
    print(f"  snapshot stats: {session.snapshots.stats.to_dict()}")


async def fair_shares(host: ServiceHost) -> None:
    order = []

    async def one(name: str) -> None:
        await host.submit(name, QUERY)
        order.append(name)

    # The antagonist floods 36 requests into the queue; the victim submits
    # 12.  Under a flat FIFO the victim's requests would drain last —
    # weighted-fair admission interleaves them at the victim's 2x weight
    # while the slice caps the antagonist at one of the four host slots.
    tasks = [asyncio.create_task(one("antagonist")) for _ in range(36)]
    tasks += [asyncio.create_task(one("victim")) for _ in range(12)]
    await asyncio.gather(*tasks)
    contended = order[: order.index("victim") + order.count("victim")]
    while contended and contended[-1] != "victim":
        contended.pop()
    victim_done = contended.count("victim")
    print(f"  victim finished its 12 reads after only"
          f" {len(contended) - victim_done} of 36 antagonist reads,"
          f" despite submitting last")


async def overload_shedding() -> None:
    # A separate host with a queue-depth budget: two queued requests per
    # document, anything beyond is shed — for that document only.
    host = ServiceHost(
        max_in_flight=1,
        cache_capacity=0,
        coalesce=False,
        fairness=FairnessPolicy(max_queue_depth=2),
    )
    host.register("victim", fragmentation())
    host.register("antagonist", fragmentation())
    admission = host._admission
    await admission.acquire("antagonist")  # wedge the flooder's one slot
    backlog = [
        asyncio.create_task(host.submit("antagonist", QUERY)) for _ in range(2)
    ]
    await asyncio.sleep(0)
    shed = 0
    for _ in range(5):
        try:
            await host.submit("antagonist", QUERY)
        except OverloadShedError:
            shed += 1
    # The quiet tenant queues but is never shed by the flooder's budget.
    victim_task = asyncio.create_task(host.submit("victim", QUERY))
    await asyncio.sleep(0)
    admission.release("antagonist")
    await asyncio.gather(*backlog)
    victim = await victim_task
    print(f"  {shed}/5 burst submissions shed with OverloadShedError")
    print(f"  victim answered {len(victim.answer_ids)} nodes, shed counters:"
          f" antagonist={host.metrics.document('antagonist').shed}"
          f" victim={host.metrics.document('victim').shed}")


async def main() -> None:
    # A host serves from the one event loop that first runs it, so the
    # three scenarios share this coroutine's loop.
    host = ServiceHost(
        max_in_flight=4,
        cache_capacity=0,
        coalesce=False,
        fairness=FairnessPolicy(
            weights={"victim": 2.0, "antagonist": 1.0},
            slices={"antagonist": 1},
        ),
    )
    host.register("victim", fragmentation())
    host.register("antagonist", fragmentation())

    print("1. MVCC snapshot reads: the write never waits for the reader")
    await snapshot_reads(host)
    print("2. Weighted-fair admission under a flood")
    await fair_shares(host)
    print("3. Overload shedding is per-tenant")
    await overload_shedding()
    print()
    print(host.summary())


if __name__ == "__main__":
    asyncio.run(main())
