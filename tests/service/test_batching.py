"""The service's fused-scan batching window.

Concurrent in-flight queries that reach the same fragment round must share
one fused scan — with duplicate plans deduplicated to a single kernel slot —
while every request still receives exactly the answers and accounting its
un-batched evaluation would produce.
"""

import asyncio

import pytest

from repro.core.engine import DistributedQueryEngine
from repro.core.kernel.dispatch import KERNEL
from repro.service.actors import FragmentWaveBatcher
from repro.service.server import ServiceConfig, ServiceEngine
from repro.workloads.queries import (
    PAPER_QUERIES,
    clientele_example_tree,
    clientele_paper_fragmentation,
)
from repro.workloads.scenarios import build_ft2


@pytest.fixture(scope="module")
def ft2():
    return build_ft2(total_bytes=25_000, seed=5)


@pytest.fixture(scope="module")
def expected(ft2):
    engine = DistributedQueryEngine(ft2.fragmentation, placement=ft2.placement)
    return {query: engine.run(query).answer_ids for query in PAPER_QUERIES.values()}


def make_service(ft2, **overrides):
    overrides.setdefault("cache_capacity", 0)
    overrides.setdefault("coalesce", False)
    overrides.setdefault("max_in_flight", 32)
    return ServiceEngine(ft2.fragmentation, placement=ft2.placement, **overrides)


class TestBatchedAnswers:
    def test_batched_wave_matches_unbatched_answers(self, ft2, expected):
        service = make_service(ft2, batch_window=0.002)
        queries = [query for query in PAPER_QUERIES.values() for _ in range(6)]
        results = service.serve_batch(queries, concurrency=24)
        for query, result in zip(queries, results):
            assert result.stats.answer_ids == expected[query]
        stats = service.session.batcher.stats
        assert stats.fused_scans > 0
        assert stats.batched_queries > stats.fused_scans  # real coalescing
        assert stats.queries_per_scan > 1.0
        assert stats.dedup_hits > 0  # duplicate plans shared kernel slots

    def test_accounting_is_identical_to_unbatched(self, ft2):
        queries = list(PAPER_QUERIES.values()) * 3

        def fingerprints(service):
            results = service.serve_batch(queries, concurrency=len(queries))
            return [
                (
                    r.stats.answer_ids,
                    r.stats.communication_units,
                    r.stats.message_count,
                    r.stats.total_operations,
                    r.stats.visits_by_site(),
                )
                for r in results
            ]

        batched = fingerprints(make_service(ft2, batch_window=0.002))
        unbatched = fingerprints(make_service(ft2, batching=False))
        assert batched == unbatched


class TestConfiguration:
    def test_batching_disabled_leaves_no_batcher(self, ft2, expected):
        service = make_service(ft2, batching=False)
        assert service.session.batcher is None
        result = service.execute(PAPER_QUERIES["Q1"])
        assert result.stats.answer_ids == expected[PAPER_QUERIES["Q1"]]
        assert "batching" not in service.host.summary()

    def test_summary_surfaces_batch_efficiency(self, ft2):
        service = make_service(ft2, batch_window=0.002)
        service.serve_batch(list(PAPER_QUERIES.values()) * 2, concurrency=8)
        summary = service.host.summary()
        assert "fused scans" in summary
        assert "dedup" in summary
        payload = service.session.batcher.stats.to_dict()
        assert payload["fused_scans"] > 0
        assert "queries_per_scan" in payload
        assert "window_seconds" in payload

    def test_negative_window_rejected(self, ft2):
        with pytest.raises(ValueError):
            ServiceConfig(batch_window=-0.1)
        with pytest.raises(ValueError):
            FragmentWaveBatcher(ft2.fragmentation, window=-1.0)

    def test_batcher_survives_fresh_event_loops(self, ft2, expected):
        # The blocking facade runs each call in its own asyncio.run loop;
        # futures parked in a dead loop must not leak into the next call.
        service = make_service(ft2, batch_window=0.001)
        for _ in range(3):
            result = service.execute(PAPER_QUERIES["Q2"])
            assert result.stats.answer_ids == expected[PAPER_QUERIES["Q2"]]


class TestBatcherUnit:
    def test_duplicate_requests_share_one_output(self, ft2):
        fragmentation = ft2.fragmentation
        batcher = FragmentWaveBatcher(fragmentation, engine=KERNEL)
        from repro.core.common import ensure_plan
        from repro.core.selection import concrete_root_init_vector

        plan_a = ensure_plan(PAPER_QUERIES["Q1"])
        plan_b = ensure_plan(PAPER_QUERIES["Q1"])  # same form, fresh object
        root_id = fragmentation.root_fragment_id

        async def run():
            return await asyncio.gather(
                batcher.combined(root_id, plan_a, concrete_root_init_vector(plan_a), True),
                batcher.combined(root_id, plan_b, concrete_root_init_vector(plan_b), True),
            )

        out_a, out_b = asyncio.run(run())
        assert out_a is out_b  # one kernel slot, one shared output
        assert batcher.stats.fused_scans == 1
        assert batcher.stats.batched_queries == 2
        assert batcher.stats.dedup_hits == 1

    def test_kernel_failure_propagates_to_waiters(self, ft2):
        batcher = FragmentWaveBatcher(ft2.fragmentation, engine=KERNEL)
        from repro.core.common import ensure_plan

        plan = ensure_plan(PAPER_QUERIES["Q1"])

        async def run():
            # A fragment id the fragmentation does not know -> the scan
            # raises, and the waiter must see that exception, not hang.
            return await batcher.combined("no-such-fragment", plan, (True,), False)

        with pytest.raises(Exception):
            asyncio.run(run())


def test_clientele_service_batching_end_to_end():
    fragmentation = clientele_paper_fragmentation(clientele_example_tree())
    engine = DistributedQueryEngine(fragmentation)
    query = 'client[country/text() = "us"]/name'
    expected = engine.run(query).answer_ids
    service = engine.as_service(cache_capacity=0, coalesce=False, batch_window=0.001)
    results = service.serve_batch([query] * 8, concurrency=8)
    for result in results:
        assert result.stats.answer_ids == expected
    assert service.session.batcher.stats.dedup_hits > 0
