"""End-to-end tests for the concurrent ServiceEngine."""

import asyncio

import pytest

from repro.core.engine import DistributedQueryEngine
from repro.core.kernel.dispatch import KERNEL, VECTOR
from repro.core.pax2 import run_pax2
from repro.core.vector import numpy_available
from repro.distributed.async_transport import LatencyModel
from repro.service.server import AdmissionError, ServiceConfig, ServiceEngine
from repro.workloads.queries import (
    CLIENTELE_QUERIES,
    PAPER_QUERIES,
    clientele_example_tree,
    clientele_paper_fragmentation,
)
from repro.workloads.scenarios import build_ft2
from repro.xpath.centralized import evaluate_centralized


@pytest.fixture(scope="module")
def clientele():
    tree = clientele_example_tree()
    return tree, clientele_paper_fragmentation(tree)


@pytest.fixture(scope="module")
def ft2():
    return build_ft2(total_bytes=60_000, seed=5)


COLUMNAR_ENGINES = [
    KERNEL,
    pytest.param(VECTOR, marks=pytest.mark.skipif(not numpy_available(), reason="needs numpy")),
]


class TestCorrectness:
    @pytest.mark.parametrize("engine", COLUMNAR_ENGINES)
    def test_answers_match_centralized(self, clientele, engine):
        tree, fragmentation = clientele
        service = ServiceEngine(fragmentation, engine=engine)
        for query in ("client/name", CLIENTELE_QUERIES["brokers_goog"]):
            result = service.execute(query)
            assert result.answer_ids == evaluate_centralized(tree, query).answer_ids

    def test_concurrent_batch_matches_sequential(self, ft2):
        engine = DistributedQueryEngine(ft2.fragmentation, placement=ft2.placement)
        service = engine.as_service(max_in_flight=16)
        queries = list(PAPER_QUERIES.values()) * 4
        results = service.serve_batch(queries, concurrency=16)
        for query, result in zip(queries, results):
            assert result.answer_ids == engine.execute(query).answer_ids

    def test_pax2_run_stats_match_sync_runner(self, ft2):
        query = PAPER_QUERIES["Q3"]
        service = ServiceEngine(
            ft2.fragmentation, placement=ft2.placement, cache_capacity=0
        )
        async_stats = service.run(query)
        sync_stats = run_pax2(
            ft2.fragmentation, query, placement=ft2.placement, use_annotations=True
        )
        assert async_stats.answer_ids == sync_stats.answer_ids
        assert async_stats.communication_units == sync_stats.communication_units
        assert async_stats.message_count == sync_stats.message_count
        assert async_stats.fragments_evaluated == sync_stats.fragments_evaluated
        assert async_stats.fragments_pruned == sync_stats.fragments_pruned
        assert async_stats.visits_by_site() == sync_stats.visits_by_site()

    def test_annotations_toggle_per_query(self, clientele):
        _, fragmentation = clientele
        service = ServiceEngine(fragmentation, cache_capacity=0)
        pruned = service.run(CLIENTELE_QUERIES["client_names"])
        unpruned = service.execute(
            CLIENTELE_QUERIES["client_names"], use_annotations=False
        ).stats
        assert pruned.answer_ids == unpruned.answer_ids
        assert pruned.fragments_pruned and not unpruned.fragments_pruned

    def test_simulated_latency_keeps_answers(self, clientele):
        tree, fragmentation = clientele
        service = ServiceEngine(
            fragmentation, latency=LatencyModel(base_seconds=0.0005)
        )
        query = CLIENTELE_QUERIES["brokers_goog"]
        assert service.execute(query).answer_ids == evaluate_centralized(tree, query).answer_ids


class TestCachingAndCoalescing:
    def test_repeat_query_hits_cache(self, clientele):
        _, fragmentation = clientele
        service = ServiceEngine(fragmentation)
        first = service.execute("client/name")
        second = service.execute("client/name")
        assert first.answer_ids == second.answer_ids
        assert service.host.cache.stats.hits == 1
        assert service.host.metrics.total_evaluated == 1
        assert service.host.metrics.total_cache_hits == 1

    def test_equivalent_query_text_hits_cache(self, clientele):
        _, fragmentation = clientele
        service = ServiceEngine(fragmentation)
        service.execute("client/./name")
        service.execute("client/name")
        assert service.host.cache.stats.hits == 1

    def test_identical_inflight_queries_coalesce(self, ft2):
        service = ServiceEngine(ft2.fragmentation, placement=ft2.placement)
        queries = [PAPER_QUERIES["Q1"]] * 20
        service.serve_batch(queries, concurrency=20)
        assert service.host.metrics.total_evaluated == 1
        assert service.host.metrics.total_coalesced == 19

    def test_cache_disabled(self, clientele):
        _, fragmentation = clientele
        service = ServiceEngine(fragmentation, cache_capacity=0)
        assert service.host.cache is None
        service.execute("client/name")
        service.execute("client/name")
        assert service.host.metrics.total_evaluated == 2
        assert service.host.invalidate_cache() == 0

    def test_invalidate_forces_reevaluation(self, clientele):
        _, fragmentation = clientele
        service = ServiceEngine(fragmentation)
        service.execute("client/name")
        assert service.host.invalidate_cache() == 1
        service.execute("client/name")
        assert service.host.metrics.total_evaluated == 2

    def test_refresh_version_retires_old_entries(self, clientele):
        _, fragmentation = clientele
        service = ServiceEngine(fragmentation)
        service.execute("client/name")
        old_version = service.session.version
        # Simulate an in-place document update the fingerprint cannot see.
        for node in fragmentation.tree.root.iter_subtree():
            if not node.is_element:
                node.value = node.value + "!"
                break
        assert service.refresh_version() != old_version
        # The old-version entry is dropped, not just unreachable in the LRU.
        assert len(service.host.cache) == 0
        service.execute("client/name")
        assert service.host.metrics.total_evaluated == 2


class TestAdmissionAndScheduling:
    def test_max_pending_rejects_overload(self, ft2):
        service = ServiceEngine(
            ft2.fragmentation,
            placement=ft2.placement,
            max_in_flight=1,
            max_pending=0,
            cache_capacity=0,
            coalesce=False,
        )
        queries = list(PAPER_QUERIES.values())

        async def flood():
            results = await asyncio.gather(
                *(service.submit(query) for query in queries), return_exceptions=True
            )
            return results

        results = asyncio.run(flood())
        rejected = [r for r in results if isinstance(r, AdmissionError)]
        served = [r for r in results if not isinstance(r, BaseException)]
        assert rejected, "flooding past max_pending must reject some queries"
        assert served, "admitted queries must still be answered"

    def test_site_parallelism_respected(self, ft2):
        service = ServiceEngine(
            ft2.fragmentation,
            placement=ft2.placement,
            site_parallelism=2,
            cache_capacity=0,
            coalesce=False,
        )
        queries = list(PAPER_QUERIES.values()) * 4
        service.serve_batch(queries, concurrency=len(queries))
        assert service.host.actors.peak_in_flight() <= 2
        assert service.host.actors.total_requests() > 0

    def test_blocking_api_rejected_inside_loop(self, clientele):
        _, fragmentation = clientele
        service = ServiceEngine(fragmentation)

        async def misuse():
            service.execute("client/name")

        with pytest.raises(RuntimeError, match="blocking"):
            asyncio.run(misuse())

    def test_async_api_usable_inside_loop(self, clientele):
        tree, fragmentation = clientele
        service = ServiceEngine(fragmentation)

        async def main():
            return await service.submit("client/name")

        result = asyncio.run(main())
        assert result.answer_ids == evaluate_centralized(tree, "client/name").answer_ids


class TestConfiguration:
    def test_config_overrides(self, clientele):
        _, fragmentation = clientele
        service = ServiceEngine(
            fragmentation, config=ServiceConfig(max_in_flight=3), site_parallelism=7
        )
        assert service.host.config.max_in_flight == 3
        assert service.host.config.site_parallelism == 7

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_in_flight=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_pending=-1)

    @pytest.mark.parametrize(
        "name, value", [("site_parallelism", 0), ("cache_capacity", -5)]
    )
    def test_bad_sizes_rejected_at_construction(self, clientele, name, value):
        # Once site_parallelism=0 failed only inside the first register(),
        # and cache_capacity=-5 silently turned the cache off.
        with pytest.raises(ValueError, match=name):
            ServiceConfig(**{name: value})
        with pytest.raises(ValueError, match=name):
            ServiceEngine(clientele[1], **{name: value})

    @pytest.mark.parametrize(
        "name, value", [("site_parallelism", 1), ("cache_capacity", 0)]
    )
    def test_smallest_sizes_accepted(self, clientele, name, value):
        tree, fragmentation = clientele
        service = ServiceEngine(fragmentation, coalesce=False, **{name: value})
        assert getattr(service.host.config, name) == value
        queries = ["client/name", CLIENTELE_QUERIES["brokers_goog"]] * 3
        expected = [evaluate_centralized(tree, q).answer_ids for q in queries]
        results = service.serve_batch(queries, concurrency=len(queries))
        assert [result.answer_ids for result in results] == expected
        if name == "site_parallelism":
            assert service.host.actors.peak_in_flight() == 1
        else:
            assert service.host.cache is None
            assert service.host.metrics.total_evaluated == len(queries)

    def test_as_service_inherits_engine_defaults(self, clientele):
        _, fragmentation = clientele
        engine = DistributedQueryEngine(
            fragmentation, use_annotations=False, engine=VECTOR if numpy_available() else KERNEL
        )
        service = engine.as_service()
        assert service.host.config.use_annotations is False
        assert service.host.engine.name == engine.engine
        assert service.session.placement == engine.placement

    def test_as_service_explicit_config_wins_over_engine_defaults(self, clientele):
        _, fragmentation = clientele
        engine = DistributedQueryEngine(fragmentation, use_annotations=True)
        service = engine.as_service(config=ServiceConfig(use_annotations=False))
        assert service.host.config.use_annotations is False

    def test_summary_renders(self, clientele):
        _, fragmentation = clientele
        service = ServiceEngine(fragmentation)
        service.execute("client/name")
        text = service.host.summary()
        assert "throughput" in text and "cache" in text and "actor pool" in text
        assert "weighted-fair" in text and "fifo" not in text
        assert "ServiceHost" in repr(service.host)
