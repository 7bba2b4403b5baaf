"""Cancellation safety: batcher, actor slots and the host pipeline.

A request can be cancelled (or time out) at *any* await point — queued for
admission, inside the batching window, queued for a site slot,
mid-evaluation with its snapshot pinned.  Whatever the point, the
primitives must come back clean: no leaked permits or pins, no stranded
waiters, no counters the next request could observe half-updated.  The
brute-force tests below cancel a victim after every possible number of
event-loop steps, which walks the cancellation through every await point
of the scenario.
"""

import asyncio

import pytest

from repro.core.pruning import stage1_init_vector
from repro.distributed.async_transport import LatencyModel
from repro.service.actors import FragmentWaveBatcher, SiteActor
from repro.service.server import ServiceEngine
from repro.workloads.queries import clientele_example_tree, clientele_paper_fragmentation
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import compile_plan


def clientele_fragmentation():
    return clientele_paper_fragmentation(clientele_example_tree())


def run(coroutine):
    return asyncio.run(coroutine)


async def step(count=1):
    for _ in range(count):
        await asyncio.sleep(0)


async def until_pinned(session, pins=1):
    """Yield the loop until *session* has served *pins* snapshot pins."""
    for _ in range(200):
        if session.snapshots.stats.pins >= pins:
            return
        await step()
    raise AssertionError(f"no reader pinned a snapshot of {session.name!r}")


async def assert_session_clean(session):
    """No snapshot left pinned, and the writer lock is free to take."""
    assert session.snapshots.retained == 0
    lock = session.writer_lock()
    assert not lock.locked()
    await asyncio.wait_for(lock.acquire(), 1.0)
    lock.release()


class TestBatcherCancellation:
    @pytest.fixture
    def fused(self):
        fragmentation = clientele_fragmentation()
        plan = compile_plan(parse_xpath("//name"))
        fragment_id = fragmentation.fragment_ids()[1]  # not the root fragment
        init = stage1_init_vector(fragmentation, plan, fragment_id, True)
        return fragmentation, plan, fragment_id, init

    def test_cancelled_waiter_is_skipped_by_the_flush(self, fused):
        fragmentation, plan, fragment_id, init = fused

        async def scenario():
            batcher = FragmentWaveBatcher(fragmentation)
            doomed = asyncio.create_task(
                batcher.combined(fragment_id, plan, init, False)
            )
            survivor = asyncio.create_task(
                batcher.combined(fragment_id, plan, init, False)
            )
            await step()  # both parked in the window
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            output = await asyncio.wait_for(survivor, 1.0)
            assert output is not None
            return batcher

        batcher = run(scenario())
        # The cancelled waiter neither poisons the stats nor counts as served.
        assert batcher.stats.fused_scans == 1
        assert batcher.stats.batched_queries == 1

    def test_all_waiters_cancelled_runs_no_scan(self, fused):
        fragmentation, plan, fragment_id, init = fused

        async def scenario():
            batcher = FragmentWaveBatcher(fragmentation)
            tasks = [
                asyncio.create_task(batcher.combined(fragment_id, plan, init, False))
                for _ in range(3)
            ]
            await step()
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await asyncio.sleep(0.03)  # let the flush fire on nobody
            return batcher

        batcher = run(scenario())
        assert batcher.stats.fused_scans == 0
        assert batcher.stats.batched_queries == 0

    def test_batcher_stays_serviceable_after_a_cancellation_wave(self, fused):
        fragmentation, plan, fragment_id, init = fused

        async def scenario():
            batcher = FragmentWaveBatcher(fragmentation)
            doomed = asyncio.create_task(
                batcher.combined(fragment_id, plan, init, False)
            )
            await step(0)
            doomed.cancel()
            await asyncio.gather(doomed, return_exceptions=True)
            output = await asyncio.wait_for(
                batcher.combined(fragment_id, plan, init, False), 1.0
            )
            assert output is not None
            return batcher

        batcher = run(scenario())
        assert batcher.stats.fused_scans >= 1


class TestActorSlotCancellation:
    def test_queued_slot_waiter_cancel_leaks_nothing(self):
        async def scenario():
            actor = SiteActor("S1", parallelism=1)
            occupied = asyncio.Event()
            release = asyncio.Event()

            async def holder():
                async with actor.slot():
                    occupied.set()
                    await release.wait()

            async def waiter():
                async with actor.slot():
                    pass

            holder_task = asyncio.create_task(holder())
            await occupied.wait()
            waiter_task = asyncio.create_task(waiter())
            await step()
            waiter_task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter_task
            release.set()
            await holder_task
            # The slot is free again and counters are consistent.
            assert actor.in_flight == 0
            async with actor.slot():
                assert actor.in_flight == 1
            assert actor.in_flight == 0

        run(scenario())


class TestHostCancellation:
    def test_cancelled_request_leaves_the_host_serviceable(self):
        engine = ServiceEngine(
            clientele_fragmentation(),
            max_in_flight=1,
            latency=LatencyModel(base_seconds=0.02),
        )

        async def scenario():
            doomed = asyncio.create_task(engine.submit("//client/name"))
            await asyncio.sleep(0.01)  # mid-evaluation, on the wire
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            return await asyncio.wait_for(engine.submit("//name"), 5.0)

        result = run(scenario())
        assert result.answer_ids
        assert not result.is_partial
        assert engine.host._pending_evaluations == 0
        assert engine.session.snapshots.retained == 0

    def test_cancel_submit_at_every_await_point(self):
        engine = ServiceEngine(
            clientele_fragmentation(),
            latency=LatencyModel(base_seconds=0.001),
        )

        async def scenario():
            for steps in range(25):
                doomed = asyncio.create_task(engine.submit("//client/name"))
                await step(steps)
                doomed.cancel()
                await asyncio.gather(doomed, return_exceptions=True)
                assert engine.host._pending_evaluations == 0
            # After the whole sweep the host still serves, reads and writes.
            result = await asyncio.wait_for(engine.submit("//name"), 5.0)
            assert result.answer_ids
            await assert_session_clean(engine.session)

        run(scenario())

    def test_cancelled_writer_never_wedges_the_document(self):
        from repro.updates import EditText

        engine = ServiceEngine(
            clientele_fragmentation(),
            latency=LatencyModel(base_seconds=0.02),
        )
        fragmentation = engine.session.fragmentation
        target = next(
            node
            for node in fragmentation[fragmentation.fragment_ids()[0]].iter_span()
            if node.is_text
        )

        async def scenario():
            reader = asyncio.create_task(engine.submit("//client/name"))
            await asyncio.sleep(0.01)  # reader holds its pin, on the wire
            doomed = asyncio.create_task(
                engine.apply_update(EditText(target.node_id, "cancelled"))
            )
            await step()
            doomed.cancel()
            await asyncio.gather(doomed, return_exceptions=True)
            await reader
            # The cancelled writer is gone: both a new read and a new write
            # must go straight through.
            result = await asyncio.wait_for(engine.submit("//name"), 5.0)
            assert result.answer_ids
            update = await asyncio.wait_for(
                engine.apply_update(EditText(target.node_id, "landed")), 5.0
            )
            assert update.kind

        run(scenario())

    def test_timed_out_reader_releases_its_pin(self):
        engine = ServiceEngine(
            clientele_fragmentation(),
            cache_capacity=0,
            latency=LatencyModel(base_seconds=0.02),
        )

        async def scenario():
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(engine.submit("//client/name"), 0.01)
            assert engine.session.snapshots.stats.pins == 1  # it was mid-read
            assert engine.host._pending_evaluations == 0
            await assert_session_clean(engine.session)
            return await asyncio.wait_for(engine.submit("//name"), 5.0)

        result = run(scenario())
        assert result.answer_ids and not result.is_partial

    def test_cancelled_reader_lets_its_superseded_version_be_reclaimed(self):
        from repro.updates import EditText

        engine = ServiceEngine(
            clientele_fragmentation(),
            cache_capacity=0,
            latency=LatencyModel(base_seconds=0.02),
        )
        session = engine.session
        target = next(
            node for node in session.fragmentation.tree.root.iter_subtree() if node.is_text
        )

        async def scenario():
            reader = asyncio.create_task(engine.submit("//client/name"))
            await until_pinned(session)
            await engine.apply_update(EditText(target.node_id, "rolled"))
            # the reader's pinned version is now retained history
            assert session.snapshots.retained == 1
            reader.cancel()
            await asyncio.gather(reader, return_exceptions=True)
            assert session.snapshots.stats.snapshots_reclaimed == 1
            await assert_session_clean(session)

        run(scenario())

    def test_cancelled_reader_unblocks_a_watermark_stalled_writer(self):
        from repro.fragments.snapshots import SnapshotPolicy
        from repro.updates import EditText

        engine = ServiceEngine(
            clientele_fragmentation(),
            cache_capacity=0,
            latency=LatencyModel(base_seconds=0.05),
            snapshots=SnapshotPolicy(max_retained_versions=1),
        )
        session = engine.session
        target = next(
            node for node in session.fragmentation.tree.root.iter_subtree() if node.is_text
        )

        async def scenario():
            reader = asyncio.create_task(engine.submit("//client/name"))
            await until_pinned(session)
            writer = asyncio.create_task(
                engine.apply_update(EditText(target.node_id, "after"))
            )
            await step(4)
            assert not writer.done()  # the watermark holds it back
            assert session.snapshots.stats.writer_stalls == 1
            reader.cancel()
            await asyncio.gather(reader, return_exceptions=True)
            # the cancelled pin was the only thing in the writer's way
            await asyncio.wait_for(writer, 1.0)
            assert target.value == "after"
            await assert_session_clean(session)

        run(scenario())

    @pytest.mark.parametrize("victim", [0, 1, 2, 3])
    def test_cancel_readers_and_writers_at_every_await_point(self, victim):
        """Brute force over one document: two readers and two writers, one
        of them cancelled after k loop steps for every k — the cancellation
        lands on every await point of the admit/pin/evaluate/release read
        path and of the writer lock.  Only the victim may die, and the
        session must come back with no pin held and its lock free."""
        from repro.updates import EditText

        engine = ServiceEngine(
            clientele_fragmentation(),
            cache_capacity=0,
            coalesce=False,
            latency=LatencyModel(base_seconds=0.001),
        )
        first, second = [
            node
            for node in engine.session.fragmentation.tree.root.iter_subtree()
            if node.is_text
        ][:2]

        async def attempt(steps):
            tasks = [
                asyncio.create_task(engine.submit("//client/name")),
                asyncio.create_task(engine.apply_update(EditText(first.node_id, "a"))),
                asyncio.create_task(engine.submit("//name")),
                asyncio.create_task(engine.apply_update(EditText(second.node_id, "b"))),
            ]
            await step(steps)
            tasks[victim].cancel()
            results = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), 5.0
            )
            for index, outcome in enumerate(results):
                if isinstance(outcome, BaseException):
                    assert index == victim
                    assert isinstance(outcome, asyncio.CancelledError)
            assert engine.host._pending_evaluations == 0
            await assert_session_clean(engine.session)

        async def scenario():
            for steps in range(25):
                await attempt(steps)

        run(scenario())
