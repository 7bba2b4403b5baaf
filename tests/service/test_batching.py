"""The service's stage-1 pass batcher.

Concurrent in-flight queries that ask a fragment for the same pass in one
event-loop iteration must share one combined pass — duplicate plans
deduplicated to a single slot — while every request still receives exactly
the answers and accounting its un-batched evaluation would produce.
"""

import asyncio

import pytest

from repro.core.common import ensure_plan
from repro.core.engine import DistributedQueryEngine
from repro.core.kernel.dispatch import KERNEL, combined_pass
from repro.core.selection import concrete_root_init_vector
from repro.service import actors
from repro.service.actors import FragmentWaveBatcher
from repro.service.server import ServiceEngine
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
        service = make_service(ft2)
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

        batched = fingerprints(make_service(ft2))
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
        service = make_service(ft2)
        service.serve_batch(list(PAPER_QUERIES.values()) * 2, concurrency=8)
        summary = service.host.summary()
        assert "passes for" in summary
        assert "dedup" in summary
        payload = service.session.batcher.stats.to_dict()
        assert payload["fused_scans"] > 0
        assert "queries_per_scan" in payload
        assert "window_seconds" in payload


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
    service = engine.as_service(cache_capacity=0, coalesce=False)
    results = service.serve_batch([query] * 8, concurrency=8)
    for result in results:
        assert result.stats.answer_ids == expected
    assert service.session.batcher.stats.dedup_hits > 0


class TestOnePassPerSlot:
    """The flush runs one ordinary combined pass per distinct slot."""

    @pytest.fixture
    def root_requests(self, ft2):
        fragmentation = ft2.fragmentation
        root_id = fragmentation.root_fragment_id
        plan_a = ensure_plan(PAPER_QUERIES["Q1"])
        plan_a2 = ensure_plan(PAPER_QUERIES["Q1"])  # A': same fingerprint
        plan_b = ensure_plan(PAPER_QUERIES["Q2"])
        assert plan_a.fingerprint == plan_a2.fingerprint != plan_b.fingerprint
        return fragmentation, root_id, [
            (plan, concrete_root_init_vector(plan)) for plan in (plan_a, plan_a2, plan_b)
        ]

    def test_one_flush_runs_one_pass_per_distinct_plan(self, root_requests, monkeypatch):
        fragmentation, root_id, requests = root_requests
        calls = []

        def counting_pass(fragmentation, fragment_id, plan, *args, **kwargs):
            calls.append(plan.fingerprint)
            return combined_pass(fragmentation, fragment_id, plan, *args, **kwargs)

        monkeypatch.setattr(actors, "combined_pass", counting_pass)
        batcher = FragmentWaveBatcher(fragmentation, engine=KERNEL)

        async def run():
            return await asyncio.gather(*(
                batcher.combined(root_id, plan, init, True) for plan, init in requests
            ))

        out_a, out_a2, out_b = asyncio.run(run())
        assert calls == [requests[0][0].fingerprint, requests[2][0].fingerprint]
        assert out_a is out_a2 and out_b is not out_a
        assert batcher.stats.batched_queries == 3
        assert batcher.stats.fused_scans == 2
        assert batcher.stats.dedup_hits == 1

    def test_a_failing_slot_fails_only_its_own_waiters(self, root_requests, monkeypatch):
        fragmentation, root_id, requests = root_requests
        (plan_a, init_a), _, (plan_b, init_b) = requests
        solo = combined_pass(fragmentation, root_id, plan_b, init_b, True, engine=KERNEL)

        def failing_pass(fragmentation, fragment_id, plan, *args, **kwargs):
            if plan.fingerprint == plan_a.fingerprint:
                raise RuntimeError("pass failed")
            return combined_pass(fragmentation, fragment_id, plan, *args, **kwargs)

        monkeypatch.setattr(actors, "combined_pass", failing_pass)
        batcher = FragmentWaveBatcher(fragmentation, engine=KERNEL)

        async def run():
            return await asyncio.gather(
                batcher.combined(root_id, plan_a, init_a, True),
                batcher.combined(root_id, plan_b, init_b, True),
                return_exceptions=True,
            )

        failed, output = asyncio.run(run())
        assert isinstance(failed, RuntimeError)
        assert output == solo
