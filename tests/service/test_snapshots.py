"""MVCC snapshot reads: pinning, reclamation, the watermark, and the host.

Manager-level tests drive :class:`SnapshotManager` directly; host-level
tests check the PR's headline contract — a write never waits for reader
drain (a pinned long-running reader stalls nothing), a read pinned before
a write stays exact at its pinned version, and retained history is bounded
by the watermark with writer back-pressure, not unbounded growth.
"""

import asyncio
from typing import NamedTuple

import pytest

from repro.core.common import account_answers, answer_subtree_nodes
from repro.core.engine import DistributedQueryEngine
from repro.core.kernel.dispatch import KERNEL, VECTOR
from repro.core.vector import numpy_available
from repro.fragments.snapshots import SnapshotManager, SnapshotPolicy
from repro.service.cache import version_tag
from repro.service.server import ServiceHost
from repro.updates import EditText, MixedWorkload, apply_mutation
from repro.workloads.multidoc import build_tenants
from repro.workloads.queries import (
    clientele_example_tree,
    clientele_paper_fragmentation,
)

def clientele_fragmentation():
    return clientele_paper_fragmentation(clientele_example_tree())


def first_text_in(fragmentation):
    fragment_id = fragmentation.fragment_ids()[0]
    return next(
        node for node in fragmentation[fragment_id].iter_span() if node.is_text
    )


def run(coroutine):
    return asyncio.run(coroutine)


async def step(count=1):
    for _ in range(count):
        await asyncio.sleep(0)


class TestSnapshotPolicy:
    def test_watermark_must_be_positive(self):
        with pytest.raises(ValueError):
            SnapshotPolicy(max_retained_versions=0)


class TestSnapshotManager:
    def test_pin_release_reclaims_refcounted(self):
        async def scenario():
            manager = SnapshotManager(clientele_fragmentation(), SnapshotPolicy())
            first = manager.pin("v1")
            second = manager.pin("v1")
            assert first is second  # readers of one version share a snapshot
            assert first.pins == 2 and manager.retained == 1
            manager.release(first)
            assert manager.retained == 1  # still pinned once
            manager.release(second)
            assert manager.retained == 0
            stats = manager.stats
            assert stats.pins == 2
            assert stats.snapshots_created == 1
            assert stats.snapshots_reclaimed == 1
            assert stats.peak_retained == 1

        run(scenario())

    def test_pinned_flats_survive_epoch_bump(self):
        async def scenario():
            fragmentation = clientele_fragmentation()
            manager = SnapshotManager(fragmentation, SnapshotPolicy())
            snapshot = manager.pin("v1")
            fragment_id = fragmentation.fragment_ids()[0]
            old_flat = snapshot.flat(fragment_id)
            fragmentation.bump_epoch(fragment_id)
            # The live side rebuilds a fresh encoding; the pinned snapshot
            # keeps the superseded one alive untouched.
            assert fragmentation.flat(fragment_id) is not old_flat
            assert snapshot.flat(fragment_id) is old_flat

        run(scenario())

    def test_pinned_answer_accounting_stays_at_its_version(self):
        async def scenario():
            fragmentation = clientele_fragmentation()
            manager = SnapshotManager(fragmentation, SnapshotPolicy())
            snapshot = manager.pin("v1")
            tree = fragmentation.tree
            owned = [(fid, snapshot.flat(fid).node_ids) for fid in fragmentation.fragment_ids()]
            expected = {
                node_id: answer_subtree_nodes(tree, [node_id])
                for _, node_ids in owned for node_id in node_ids
            }
            root_id = tree.root.node_id
            writes = MixedWorkload(fragmentation, ["//name"], write_ratio=1.0, seed=3)
            for _ in range(8):
                apply_mutation(fragmentation, writes.next_mutation())
            assert answer_subtree_nodes(tree, [root_id]) != expected[root_id]
            for fragment_id, node_ids in owned:
                for node_id in node_ids:
                    assert account_answers(
                        [(fragment_id, [node_id])], snapshot.flat
                    ) == expected[node_id], (fragment_id, node_id)

        run(scenario())

    def test_prewarm_rebuilds_invalidated_encodings(self):
        async def scenario():
            fragmentation = clientele_fragmentation()
            manager = SnapshotManager(fragmentation, SnapshotPolicy())
            for fragment_id in fragmentation.fragment_ids():
                fragmentation.flat(fragment_id)
            victim = fragmentation.fragment_ids()[0]
            fragmentation.bump_epoch(victim)
            assert not fragmentation.flat_cached(victim)
            await manager.prewarm()
            assert all(
                fragmentation.flat_cached(fragment_id)
                for fragment_id in fragmentation.fragment_ids()
            )

        run(scenario())

    def test_watermark_blocks_writer_until_reclaim(self):
        async def scenario():
            manager = SnapshotManager(
                clientele_fragmentation(), SnapshotPolicy(max_retained_versions=1)
            )
            snapshot = manager.pin("v1")
            writer = asyncio.create_task(manager.wait_for_capacity())
            await step(2)
            assert not writer.done()
            assert manager.stats.writer_stalls == 1
            manager.release(snapshot)
            await asyncio.wait_for(writer, 1.0)

        run(scenario())

    def test_writer_passes_when_under_watermark(self):
        async def scenario():
            manager = SnapshotManager(
                clientele_fragmentation(), SnapshotPolicy(max_retained_versions=2)
            )
            snapshot = manager.pin("v1")
            await asyncio.wait_for(manager.wait_for_capacity(), 1.0)
            assert manager.stats.writer_stalls == 0
            manager.release(snapshot)

        run(scenario())


class TestHostSnapshotReads:
    def host(self, **overrides):
        host = ServiceHost(
            max_in_flight=4, cache_capacity=0, coalesce=False, **overrides
        )
        host.register("alpha", clientele_fragmentation())
        return host

    def test_write_never_waits_for_a_pinned_reader(self):
        # The PR 5 gate made every write drain its document's readers.
        # With MVCC snapshots a long-running reader (simulated by a held
        # pin) stalls nothing: the write completes immediately, rolls the
        # version, and the pin keeps the superseded encodings alive.
        host = self.host()

        async def scenario():
            session = host.session("alpha")
            pre = session.version
            pinned = session.snapshots.pin(pre)
            target = first_text_in(session.fragmentation)
            await asyncio.wait_for(
                host.apply_update("alpha", EditText(target.node_id, "rolled")),
                timeout=2.0,
            )
            assert session.version != pre
            assert pinned.version == pre  # history retained for the reader
            assert session.snapshots.retained == 1
            # New readers see the new version, not the pinned history.
            result = await host.submit("alpha", "client/name")
            assert result.stats.evaluated_version == session.version
            session.snapshots.release(pinned)
            assert session.snapshots.retained == 0

        run(scenario())

    def test_read_pinned_before_write_stays_at_its_version(self):
        host = self.host()

        async def scenario():
            session = host.session("alpha")
            pre = session.version
            read = asyncio.create_task(host.submit("alpha", "client/name"))
            for _ in range(200):
                if session.snapshots.stats.pins >= 1:
                    break
                await step()
            assert session.snapshots.stats.pins >= 1
            target = first_text_in(session.fragmentation)
            await host.apply_update("alpha", EditText(target.node_id, "mid-read"))
            result = await asyncio.wait_for(read, 5.0)
            # The overlapped read is exact at the version it pinned.
            assert result.stats.evaluated_version == pre
            assert session.version != pre
            assert result.answer_ids

        run(scenario())

    def test_watermark_backpressure_reaches_the_write_path(self):
        host = self.host(snapshots=SnapshotPolicy(max_retained_versions=1))

        async def scenario():
            session = host.session("alpha")
            pinned = session.snapshots.pin(session.version)
            target = first_text_in(session.fragmentation)
            write = asyncio.create_task(
                host.apply_update("alpha", EditText(target.node_id, "held"))
            )
            await step(4)
            assert not write.done()  # watermark reached: writer waits
            assert session.snapshots.stats.writer_stalls >= 1
            session.snapshots.release(pinned)
            await asyncio.wait_for(write, 2.0)

        run(scenario())

    def test_snapshot_counters_reach_the_host_reader_path(self):
        host = self.host()

        async def scenario():
            await host.submit("alpha", "client/name")
            await host.submit("alpha", "client/name")

        run(scenario())
        stats = host.session("alpha").snapshots.stats
        assert stats.pins == 2
        assert stats.snapshots_reclaimed >= 1
        assert host.session("alpha").snapshots.retained == 0

    def test_cache_hits_and_coalesced_joins_pin_nothing(self):
        # Only an evaluation pins: a request served from an in-flight leader
        # or from the result cache reads no fragment and holds no version.
        host = ServiceHost(max_in_flight=4)
        host.register("alpha", clientele_fragmentation())

        async def scenario():
            await asyncio.gather(*(host.submit("alpha", "client/name") for _ in range(3)))
            await host.submit("alpha", "client/name")

        run(scenario())
        assert host.metrics.total_coalesced == 2
        assert host.metrics.total_cache_hits == 1
        stats = host.session("alpha").snapshots.stats
        assert stats.pins == 1
        assert host.session("alpha").snapshots.retained == 0


class Role(NamedTuple):
    """One tenant's document, stream and client herd in the overlap test."""

    total_bytes: int
    seed: int
    write_ratio: float
    stream_seed: int
    ops: int
    clients: int


#: a small read-mostly victim next to a write-heavy antagonist herd
OVERLAP_ROLES = {
    "victim0": Role(12_000, seed=5, write_ratio=0.1, stream_seed=17, ops=32, clients=4),
    "antagonist0": Role(8_000, seed=18, write_ratio=0.3, stream_seed=30, ops=96, clients=16),
}


def overlap_tenants():
    """``name -> (tenant, stream)``, regenerated from the seeds on every call."""
    pairs = {}
    for name, role in OVERLAP_ROLES.items():
        tenant = build_tenants(
            1, total_bytes=role.total_bytes, seed=role.seed, prefix=name[:-1]
        )[0]
        pairs[name] = tenant, MixedWorkload(
            tenant.fragmentation,
            tenant.queries,
            write_ratio=role.write_ratio,
            seed=role.stream_seed,
        )
    return pairs


async def drive_closed_loop(host, name, stream, ops, clients):
    """Replay one tenant's stream: writes in stream order, every read a task
    on one of *clients* slots.  Waiting for a free slot is what spreads the
    stream over the run, so writes land while earlier reads are in flight —
    issue everything up front instead and every read pins the final version.

    Returns the document's version sequence and every read as
    ``(pinned version, query, answer ids, answer nodes shipped)``.
    """
    free = asyncio.Semaphore(clients)
    versions = [host.session(name).version]
    reads, tasks = [], []

    async def read(query):
        try:
            stats = (await host.submit(name, query)).stats
            reads.append(
                (stats.evaluated_version, query, stats.answer_ids, stats.answer_nodes_shipped)
            )
        finally:
            free.release()

    for _ in range(ops):
        op = stream.next_op()
        if op.is_write:
            await host.apply_update(name, op.mutation)
            versions.append(host.session(name).version)
        else:
            await free.acquire()
            tasks.append(asyncio.create_task(read(op.query)))
    await asyncio.gather(*tasks)
    return versions, reads


@pytest.mark.parametrize("engine", [
    KERNEL,
    pytest.param(VECTOR, marks=pytest.mark.skipif(not numpy_available(), reason="needs numpy")),
])
def test_overlapped_reads_replay_exactly_at_their_pinned_version(engine):
    """Two tenants read and write concurrently; afterwards each document is
    regenerated from its seed and rolled forward write by write, and a solo
    engine must reproduce every recorded read at the version it pinned."""
    host = ServiceHost(engine=engine, max_in_flight=4, cache_capacity=0, coalesce=False)
    served = overlap_tenants()
    for name, (tenant, _) in served.items():
        host.register(name, tenant.fragmentation, tenant.placement)

    async def record():
        runs = await asyncio.gather(*(
            drive_closed_loop(
                host, name, stream, OVERLAP_ROLES[name].ops, OVERLAP_ROLES[name].clients
            )
            for name, (_, stream) in served.items()
        ))
        return dict(zip(served, runs))

    recorded = run(record())

    for name, (tenant, stream) in overlap_tenants().items():
        versions, reads = recorded[name]
        assert len(set(versions)) == len(versions)

        # The run must have exercised what it claims to check.
        pinned = {versions.index(version) for version, *_ in reads}
        assert len(pinned) >= 3 and min(pinned) < len(versions) - 1, (name, sorted(pinned))

        solo = DistributedQueryEngine(tenant.fragmentation, placement=tenant.placement)
        written = replayed = 0
        for step in range(OVERLAP_ROLES[name].ops + 1):  # step 0 is the initial version
            if step:
                op = stream.next_op()
                if not op.is_write:
                    continue
                apply_mutation(tenant.fragmentation, op.mutation)
                written += 1
            current = version_tag(tenant.fragmentation, tenant.placement)
            assert current == versions[written], (name, written)
            for version, query, answer_ids, answer_nodes in reads:
                if version == current:
                    expected = solo.execute(query).stats
                    assert expected.answer_ids == answer_ids, (name, written, query)
                    assert expected.answer_nodes_shipped == answer_nodes, (name, written, query)
                    # and the object-tree walk at that version agrees
                    assert answer_subtree_nodes(
                        tenant.fragmentation.tree, answer_ids
                    ) == answer_nodes, (name, written, query)
                    replayed += 1
        assert written == len(versions) - 1 and replayed == len(reads)

    peaks = [host.session(name).snapshots.stats.peak_retained for name in served]
    assert 2 <= max(peaks) <= host.config.snapshots.max_retained_versions
