"""ServiceEngine.apply_update: serialized writes, incremental cache retirement."""

import asyncio

import pytest

from repro.core.engine import DistributedQueryEngine
from repro.updates import EditText, InsertSubtree, MixedWorkload
from repro.service.server import ServiceEngine
from repro.workloads.queries import (
    PAPER_QUERIES,
    clientele_example_tree,
    clientele_paper_fragmentation,
)
from repro.workloads.scenarios import build_ft2
from repro.xmltree.builder import element


@pytest.fixture()
def clientele_service():
    fragmentation = clientele_paper_fragmentation(clientele_example_tree())
    return ServiceEngine(fragmentation, max_in_flight=4)


def first_text_in(fragmentation, fragment_id):
    return next(
        node for node in fragmentation[fragment_id].iter_span() if node.is_text
    )


class TestApplyUpdate:
    def test_update_rolls_the_version_forward(self, clientele_service):
        service = clientele_service
        old_version = service.session.version
        fragmentation = service.session.fragmentation
        target = first_text_in(fragmentation, fragmentation.fragment_ids()[0])
        result = service.update(EditText(target.node_id, "rolled"))
        assert result.kind == "edit"
        assert service.session.version != old_version

    def test_answers_reflect_updates_immediately(self, clientele_service):
        service = clientele_service
        query = 'client[country/text() = "us"]/name'
        assert service.execute(query).answer_ids
        for node in list(service.session.fragmentation.tree.iter_elements()):
            if node.tag == "country" and node.text().strip().lower() == "us":
                text_child = next(c for c in node.children if c.is_text)
                service.update(EditText(text_child.node_id, "uk"))
        assert service.execute(query).answer_ids == []

    def test_update_retires_only_dependent_entries(self):
        # FT2: writes into a regions fragment (pruned by every paper query)
        # must keep all cached answers serving hits across the version roll.
        scenario = build_ft2(total_bytes=25_000, seed=5)
        service = ServiceEngine(
            scenario.fragmentation, placement=scenario.placement, max_in_flight=4
        )
        fragmentation = scenario.fragmentation
        queries = [PAPER_QUERIES["Q1"], PAPER_QUERIES["Q2"], PAPER_QUERIES["Q3"]]
        for query in queries:
            service.execute(query)
        assert len(service.host.cache) == len(queries)

        # a fragment no paper query depends on: rooted at a regions subtree
        regions_fragment = next(
            fid
            for fid in fragmentation.fragment_ids()
            if fragmentation[fid].root.tag in ("regions", "namerica")
        )
        target = first_text_in(fragmentation, regions_fragment)
        service.update(EditText(target.node_id, "untouched-dependencies"))

        hits_before = service.host.cache.stats.hits
        for query in queries:
            service.execute(query)
        assert service.host.cache.stats.hits == hits_before + len(queries)
        assert service.host.cache.stats.rekeyed == len(queries)

        # …and a write into a fragment the queries DO depend on drops them.
        people_fragment = service.execute(queries[0]).stats.fragments_evaluated[-1]
        target = first_text_in(fragmentation, people_fragment)
        service.update(EditText(target.node_id, "dependent"))
        evaluated_before = service.host.metrics.total_evaluated
        service.execute(queries[0])
        assert service.host.metrics.total_evaluated == evaluated_before + 1

    def test_rekeyed_entries_stay_exact(self):
        # Cached-after-rekey answers must equal a fresh evaluation.
        scenario = build_ft2(total_bytes=25_000, seed=7)
        service = ServiceEngine(
            scenario.fragmentation, placement=scenario.placement, max_in_flight=4
        )
        workload = MixedWorkload(
            scenario.fragmentation,
            list(PAPER_QUERIES.values()),
            write_ratio=0.3,
            seed=11,
        )
        fresh = DistributedQueryEngine(
            scenario.fragmentation, placement=scenario.placement
        )
        for _ in range(80):
            op = workload.next_op()
            if op.is_write:
                service.update(op.mutation)
            else:
                served = service.execute(op.query).answer_ids
                assert served == fresh.execute(op.query).answer_ids, op.query

    def test_concurrent_writers_do_not_deadlock(self):
        # Regression: two writers each draining admission permits one-by-one
        # could end up holding partial sets forever; a writer lock now
        # serializes the drain.
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        service = ServiceEngine(fragmentation, max_in_flight=4)
        texts = [
            node for node in fragmentation.tree.root.iter_subtree() if node.is_text
        ][:4]

        async def storm():
            operations = [service.submit("client/name") for _ in range(6)]
            operations += [
                service.apply_update(EditText(node.node_id, f"w{index}"))
                for index, node in enumerate(texts)
            ]
            return await asyncio.gather(*operations)

        results = asyncio.run(asyncio.wait_for(storm(), timeout=10.0))
        assert len(results) == 10
        assert service.host.metrics.total_updates == len(texts)

    def test_query_admitted_after_a_write_caches_under_the_new_version(self):
        # Regression: a query that computed its cache key, then waited for
        # admission while a write rolled the version, used to store its
        # (post-mutation) result under the pre-mutation tag — a dead entry.
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        service = ServiceEngine(fragmentation, max_in_flight=1)
        target = next(
            node for node in fragmentation.tree.root.iter_subtree() if node.is_text
        )

        async def interleave():
            # q1 takes the only permit; the writer queues for it; q2 queues
            # behind the writer (FIFO), so q2 evaluates *after* the write.
            q1 = asyncio.ensure_future(service.submit("client/name"))
            await asyncio.sleep(0)
            write = asyncio.ensure_future(
                service.apply_update(EditText(target.node_id, "interleaved"))
            )
            await asyncio.sleep(0)
            q2 = asyncio.ensure_future(service.submit('client[country/text() = "us"]/name'))
            await asyncio.gather(q1, write, q2)
            # q2's answer must be a *servable* entry: same query again is a hit.
            evaluated_before = service.host.metrics.total_evaluated
            await service.submit('client[country/text() = "us"]/name')
            assert service.host.metrics.total_evaluated == evaluated_before

        asyncio.run(asyncio.wait_for(interleave(), timeout=10.0))
        # and nothing is stranded under a superseded tag
        for key in service.host.cache._entries:
            assert key[-1] == service.session.version

    def test_updates_are_admission_exclusive(self, clientele_service):
        service = clientele_service
        fragmentation = service.session.fragmentation
        target = first_text_in(fragmentation, fragmentation.fragment_ids()[0])

        async def mixed():
            reads = [service.submit("client/name") for _ in range(6)]
            write = service.apply_update(EditText(target.node_id, "exclusive"))
            results = await asyncio.gather(*reads, write)
            assert results[-1].epoch >= 1
            # all permits were released: the service still serves
            assert await service.submit("client/name") is not None

        asyncio.run(mixed())

    def test_insert_served_through_the_service(self, clientele_service):
        service = clientele_service
        before = len(service.execute("client/name").answer_ids)
        root = service.session.fragmentation.tree.root
        service.update(
            InsertSubtree(root.node_id, element("client", element("name", "Zoe")))
        )
        assert len(service.execute("client/name").answer_ids) == before + 1

    def test_update_metrics_recorded(self, clientele_service):
        service = clientele_service
        fragmentation = service.session.fragmentation
        target = first_text_in(fragmentation, fragmentation.fragment_ids()[0])
        service.update(EditText(target.node_id, "metered"))
        metrics = service.host.metrics
        assert metrics.total_updates == 1
        assert metrics.updates_by_kind == {"edit": 1}
        assert metrics.update_records[0].fragment_id in fragmentation.fragments
        assert "updates" in metrics.summary()
        assert metrics.to_dict()["updates"]["applied"] == 1

    def test_no_full_walks_while_serving(self):
        scenario = build_ft2(total_bytes=25_000, seed=5)
        service = ServiceEngine(
            scenario.fragmentation, placement=scenario.placement, max_in_flight=4
        )
        workload = MixedWorkload(
            scenario.fragmentation,
            list(PAPER_QUERIES.values()),
            write_ratio=0.25,
            seed=23,
        )
        walks_before = scenario.fragmentation.full_walks
        for _ in range(40):
            op = workload.next_op()
            if op.is_write:
                service.update(op.mutation)
            else:
                service.execute(op.query)
        assert scenario.fragmentation.full_walks == walks_before
