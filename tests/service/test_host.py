"""The multi-document ServiceHost: catalog, routing, isolation, parallelism."""

import asyncio
import gc

import pytest

from repro.core.engine import DistributedQueryEngine
from repro.core.kernel.dispatch import KERNEL, use_fragment_engine
from repro.distributed.async_transport import LatencyModel
from repro.service import server
from repro.service.server import AdmissionError, ServiceEngine, ServiceHost
from repro.service.store import (
    DEFAULT_DOCUMENT,
    DocumentStore,
    DuplicateDocumentError,
    UnknownDocumentError,
)
from repro.updates import EditText
from repro.workloads.multidoc import MultiDocumentWorkload, build_tenants
from repro.workloads.queries import (
    CLIENTELE_QUERIES,
    clientele_example_tree,
    clientele_paper_fragmentation,
)
from repro.xpath.errors import XPathError


def clientele_fragmentation():
    return clientele_paper_fragmentation(clientele_example_tree())


def first_text_in(fragmentation, fragment_id=None):
    fragment_id = fragment_id or fragmentation.fragment_ids()[0]
    return next(
        node for node in fragmentation[fragment_id].iter_span() if node.is_text
    )


@pytest.fixture()
def twin_host():
    """A host serving two *identical* clientele documents — the worst case
    for cross-tenant cache bleed (same content, same version tag text)."""
    host = ServiceHost(max_in_flight=8)
    host.register("alpha", clientele_fragmentation())
    host.register("beta", clientele_fragmentation())
    return host


class TestDocumentStore:
    def test_register_open_drop_roundtrip(self):
        store = DocumentStore()
        fragmentation = clientele_fragmentation()
        entry = store.register("tenant", fragmentation)
        assert store.open("tenant") is entry
        assert "tenant" in store and len(store) == 1
        assert entry.placement  # defaulted to one site per fragment
        dropped = store.drop("tenant")
        assert dropped is entry
        assert "tenant" not in store and len(store) == 0

    def test_duplicate_registration_rejected(self):
        store = DocumentStore()
        store.register("tenant", clientele_fragmentation())
        with pytest.raises(DuplicateDocumentError):
            store.register("tenant", clientele_fragmentation())

    def test_unknown_document_raises_with_catalog(self):
        store = DocumentStore()
        store.register("known", clientele_fragmentation())
        with pytest.raises(UnknownDocumentError) as excinfo:
            store.open("missing")
        assert "known" in str(excinfo.value)

    @pytest.mark.parametrize("bad", ["", "has space", "a=b", "a::b"])
    def test_reserved_names_rejected(self, bad):
        store = DocumentStore()
        with pytest.raises(ValueError):
            store.register(bad, clientele_fragmentation())

    def test_host_serves_a_prebuilt_store(self):
        store = DocumentStore()
        store.register("pre", clientele_fragmentation())
        host = ServiceHost(store=store)
        assert host.documents() == ["pre"]
        assert host.execute("pre", "client/name").answer_ids


class TestRouting:
    def test_answers_match_solo_engines_per_document(self):
        tenants = build_tenants(3, total_bytes=12_000, seed=5)
        host = ServiceHost(max_in_flight=8)
        for tenant in tenants:
            host.register(tenant.name, tenant.fragmentation, tenant.placement)
        for tenant in tenants:
            solo = DistributedQueryEngine(
                tenant.fragmentation, placement=tenant.placement
            )
            for query in tenant.queries:
                assert (
                    host.execute(tenant.name, query).answer_ids
                    == solo.execute(query).answer_ids
                ), (tenant.name, query)

    def test_submit_to_unknown_document_raises(self, twin_host):
        with pytest.raises(UnknownDocumentError):
            twin_host.execute("gamma", "client/name")

    def test_updates_route_to_the_named_document(self, twin_host):
        alpha = twin_host.session("alpha")
        beta = twin_host.session("beta")
        target = first_text_in(alpha.fragmentation)
        beta_version = beta.version
        twin_host.update("alpha", EditText(target.node_id, "only-alpha"))
        assert alpha.version != beta_version
        assert beta.version == beta_version  # untouched tenant keeps its tag


class TestCacheIsolation:
    def test_identical_documents_never_share_entries(self, twin_host):
        host = twin_host
        host.execute("alpha", "client/name")
        evaluated = host.metrics.total_evaluated
        # beta's first request must evaluate, not hit alpha's entry —
        # even though both documents have identical content and version text.
        host.execute("beta", "client/name")
        assert host.metrics.total_evaluated == evaluated + 1
        assert host.cache.stats.document("beta").hits == 0
        # and beta's second request hits beta's own entry
        host.execute("beta", "client/name")
        assert host.cache.stats.document("beta").hits == 1
        assert host.cache.stats.document("alpha").hits == 0

    def test_write_to_one_tenant_keeps_the_others_entries_hot(self, twin_host):
        host = twin_host
        query = CLIENTELE_QUERIES["brokers_goog"]
        host.execute("alpha", query)
        host.execute("beta", query)
        target = first_text_in(host.session("alpha").fragmentation)
        host.update("alpha", EditText(target.node_id, "rolled"))
        hits_before = host.cache.stats.document("beta").hits
        host.execute("beta", query)
        assert host.cache.stats.document("beta").hits == hits_before + 1

    def test_coalescing_never_crosses_documents(self, twin_host):
        host = twin_host

        async def fire():
            return await asyncio.gather(
                *(host.submit("alpha", "client/name") for _ in range(3)),
                *(host.submit("beta", "client/name") for _ in range(3)),
            )

        results = asyncio.run(fire())
        assert len(results) == 6
        # one evaluation per document, the rest coalesced within it
        assert host.metrics.document("alpha").evaluated == 1
        assert host.metrics.document("beta").evaluated == 1
        assert host.metrics.document("alpha").coalesced == 2
        assert host.metrics.document("beta").coalesced == 2


class TestDropDocument:
    def test_drop_purges_only_that_tenant(self, twin_host):
        host = twin_host
        for name in ("alpha", "beta"):
            host.execute(name, "client/name")
            host.execute(name, CLIENTELE_QUERIES["brokers_goog"])
        beta_entries = host.cache.document_entry_count("beta")
        beta_version = host.session("beta").version
        purged = host.drop_document("alpha")
        assert purged == 2
        assert host.cache.document_entry_count("alpha") == 0
        assert host.cache.document_entry_count("beta") == beta_entries
        assert host.documents() == ["beta"]
        with pytest.raises(UnknownDocumentError):
            host.execute("alpha", "client/name")
        # the survivor's version tag and cached answers are untouched
        assert host.session("beta").version == beta_version
        hits_before = host.cache.stats.document("beta").hits
        host.execute("beta", "client/name")
        assert host.cache.stats.document("beta").hits == hits_before + 1

    def test_dropped_name_can_be_reregistered(self, twin_host):
        twin_host.drop_document("alpha")
        session = twin_host.register("alpha", clientele_fragmentation())
        assert twin_host.execute("alpha", "client/name").answer_ids
        assert session.version

    def test_reregistered_name_inherits_no_queue_waits(self):
        # The overload budget reads a rolling queue-wait p95 per document
        # name; a tenant registered under a dropped name starts with none.
        host = ServiceHost(max_in_flight=1, cache_capacity=0, coalesce=False)
        host.register("alpha", clientele_fragmentation())

        host.serve_batch("alpha", ["client/name"] * 4)
        assert host._admission.recent_wait_p95("alpha") > 0
        assert host.metrics.queue_wait_quantiles("alpha")["p95"] > 0
        host.drop_document("alpha")
        host.register("alpha", clientele_fragmentation())
        assert host._admission.recent_wait_p95("alpha") == 0.0
        assert "alpha" not in host.metrics.queue_waits
        host.execute("alpha", "client/name")
        assert len(host.metrics.queue_waits["alpha"]) == 1

    def test_drop_during_inflight_evaluation_leaves_no_residue(self, twin_host):
        # Regression: an evaluation in flight when its document is dropped
        # must not re-insert its answer into the shared LRU after the purge.
        host = twin_host

        async def scenario():
            task = asyncio.ensure_future(host.submit("alpha", "client/name"))
            await asyncio.sleep(0)  # leader registered, evaluation under way
            host.drop_document("alpha")
            result = await task  # the in-flight query still completes
            assert result.answer_ids

        asyncio.run(scenario())
        assert host.cache.document_entry_count("alpha") == 0
        assert "alpha" not in host.documents()

    def test_drop_releases_unshared_site_actors_and_stat_slices(self):
        # Tenants with namespaced placements: dropping one must free its
        # sites from the shared pool and its per-document stat slices —
        # a churning host must not accumulate residue forever.
        tenants = build_tenants(2, total_bytes=10_000, seed=5)
        host = ServiceHost(max_in_flight=4)
        for tenant in tenants:
            host.register(tenant.name, tenant.fragmentation, tenant.placement)
        for tenant in tenants:
            host.execute(tenant.name, tenant.queries[0])
        doomed_sites = set(tenants[0].placement.values())
        assert doomed_sites <= set(host.actors.site_ids())
        host.drop_document(tenants[0].name)
        assert not doomed_sites & set(host.actors.site_ids())
        assert tenants[0].name not in host.cache.stats.documents
        assert tenants[0].name not in host.metrics.documents
        # the survivor's actors and stats are untouched
        assert set(tenants[1].placement.values()) <= set(host.actors.site_ids())
        assert tenants[1].name in host.metrics.documents


class TestPerDocumentWriteExclusivity:
    def test_writers_on_different_documents_do_not_serialize(self, twin_host):
        # Regression for the PR 4 design: one writer used to drain the
        # host-global admission semaphore, so ANY write froze every tenant.
        host = twin_host
        target_beta = first_text_in(host.session("beta").fragmentation)

        async def scenario():
            async with host.session("alpha").writer_lock():
                # alpha's writer lock is held: beta's write and read both
                # complete — writers contend only within their own document.
                await asyncio.wait_for(
                    host.apply_update("beta", EditText(target_beta.node_id, "w")),
                    timeout=5.0,
                )
                result = await asyncio.wait_for(
                    host.submit("beta", "client/name"), timeout=5.0
                )
                assert result.answer_ids

        asyncio.run(scenario())

    def test_concurrent_cross_document_write_storm(self, twin_host):
        host = twin_host
        texts = {
            name: [
                node
                for node in host.session(name).fragmentation.tree.root.iter_subtree()
                if node.is_text
            ][:4]
            for name in ("alpha", "beta")
        }

        async def storm():
            operations = []
            for name in ("alpha", "beta"):
                operations += [host.submit(name, "client/name") for _ in range(4)]
                operations += [
                    host.apply_update(name, EditText(node.node_id, f"{name}{i}"))
                    for i, node in enumerate(texts[name])
                ]
            return await asyncio.gather(*operations)

        results = asyncio.run(asyncio.wait_for(storm(), timeout=10.0))
        assert len(results) == 16
        assert host.metrics.document("alpha").updates == 4
        assert host.metrics.document("beta").updates == 4

    def test_queued_writes_apply_in_arrival_order(self, twin_host):
        host = twin_host
        session = host.session("alpha")
        target = first_text_in(session.fragmentation)
        texts = ("one", "two", "three")

        async def scenario():
            async with session.writer_lock():
                writes = []
                for text in texts:
                    writes.append(asyncio.ensure_future(
                        host.apply_update("alpha", EditText(target.node_id, text))
                    ))
                    await asyncio.sleep(0)  # queued on the lock in this order
                assert not any(write.done() for write in writes)
            await asyncio.wait_for(asyncio.gather(*writes), timeout=5.0)
            return await host.submit("alpha", "client/name")

        served = asyncio.run(scenario())
        assert target.value == texts[-1]
        assert host.metrics.document("alpha").updates == len(texts)
        solo = DistributedQueryEngine(session.fragmentation, placement=session.placement)
        assert served.answer_ids == solo.execute("client/name").answer_ids

    @pytest.mark.parametrize("abandon", ["cancelled", "timed-out"])
    def test_abandoned_queued_write_applies_nothing(self, twin_host, abandon):
        host = twin_host
        session = host.session("alpha")
        target = first_text_in(session.fragmentation)
        original = target.value

        async def scenario():
            pre = session.version
            async with session.writer_lock():
                write = asyncio.ensure_future(
                    host.apply_update("alpha", EditText(target.node_id, "abandoned"))
                )
                if abandon == "cancelled":
                    await asyncio.sleep(0)  # queued on the held lock
                    write.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await write
                else:
                    with pytest.raises(asyncio.TimeoutError):
                        await asyncio.wait_for(write, timeout=0.01)
            assert session.version == pre
            assert target.value == original
            assert host.metrics.document("alpha").updates == 0
            # the lock came back free: the next write lands at once
            await asyncio.wait_for(
                host.apply_update("alpha", EditText(target.node_id, "landed")),
                timeout=5.0,
            )
            assert session.version != pre

        asyncio.run(scenario())
        assert target.value == "landed"
        assert host.metrics.document("alpha").updates == 1

    def test_write_waits_for_no_inflight_reader(self):
        # Readers of alpha and beta are mid-evaluation on a slow simulated
        # wire (50 ms a message, several messages per read) with their
        # snapshots pinned when alpha's write arrives: the write lands while
        # every reader is still in flight.
        host = ServiceHost(
            max_in_flight=8, cache_capacity=0, coalesce=False,
            latency=LatencyModel(base_seconds=0.05),
        )
        host.register("alpha", clientele_fragmentation())
        host.register("beta", clientele_fragmentation())
        alpha, beta = host.session("alpha"), host.session("beta")
        target = first_text_in(alpha.fragmentation)

        async def scenario():
            pre = alpha.version
            readers = [
                asyncio.ensure_future(host.submit(name, "client/name"))
                for name in ("alpha", "alpha", "beta", "beta")
            ]
            for _ in range(200):
                if alpha.snapshots.stats.pins == beta.snapshots.stats.pins == 2:
                    break
                await asyncio.sleep(0)
            assert alpha.snapshots.stats.pins == beta.snapshots.stats.pins == 2
            await asyncio.wait_for(
                host.apply_update("alpha", EditText(target.node_id, "w")), timeout=5.0
            )
            assert alpha.version != pre
            assert not any(reader.done() for reader in readers)
            results = await asyncio.wait_for(asyncio.gather(*readers), timeout=5.0)
            assert [r.stats.evaluated_version for r in results[:2]] == [pre, pre]
            assert all(result.answer_ids for result in results)

        asyncio.run(scenario())

    def test_reads_under_a_held_writer_lock_serve_the_pre_write_version(
        self, twin_host
    ):
        host = twin_host
        session = host.session("alpha")
        target = first_text_in(session.fragmentation)
        queries = ("client/name", CLIENTELE_QUERIES["brokers_goog"])
        solo = DistributedQueryEngine(session.fragmentation, placement=session.placement)
        expected = [solo.execute(query).answer_ids for query in queries]

        async def scenario():
            pre = session.version
            async with session.writer_lock():
                write = asyncio.ensure_future(
                    host.apply_update("alpha", EditText(target.node_id, "later"))
                )
                results = await asyncio.wait_for(
                    asyncio.gather(*(host.submit("alpha", q) for q in queries)),
                    timeout=5.0,
                )
                assert not write.done()  # queued behind the held lock
            await asyncio.wait_for(write, timeout=5.0)
            assert session.version != pre
            assert [r.stats.evaluated_version for r in results] == [pre, pre]
            assert [r.answer_ids for r in results] == expected

        asyncio.run(scenario())


class TestOneEventLoop:
    """A host serves from the first event loop that runs it; the blocking API
    runs every call on one loop the host keeps."""

    def test_a_second_event_loop_is_refused(self, twin_host):
        host = twin_host
        asyncio.run(host.submit("alpha", "client/name"))
        target = first_text_in(host.session("beta").fragmentation)
        for call in (
            lambda: host.submit("alpha", "client/name"),
            lambda: host.run_many("beta", ["client/name"]),
            lambda: host.apply_update("beta", EditText(target.node_id, "x")),
        ):
            with pytest.raises(RuntimeError, match="keep one event loop per host"):
                asyncio.run(call())
        with pytest.raises(RuntimeError, match="build one host per loop"):
            host.execute("beta", "client/name")
        assert host.metrics.total_requests == 1
        assert host.metrics.total_updates == 0

    def test_blocking_calls_share_one_loop(self, monkeypatch):
        # Site semaphores and the writer lock are built once and contended in
        # every call; on a second loop they would fail or hang.
        host = ServiceHost(site_parallelism=1, cache_capacity=0, coalesce=False)
        session = host.register("alpha", clientele_fragmentation())
        target = first_text_in(session.fragmentation)
        queries = list(CLIENTELE_QUERIES.values())
        loops = []
        evaluate = server.evaluate_query_async

        async def recording(*args, **kwargs):
            loops.append(asyncio.get_running_loop())
            return await evaluate(*args, **kwargs)

        monkeypatch.setattr(server, "evaluate_query_async", recording)

        async def contended_write(text):
            loops.append(asyncio.get_running_loop())
            async with session.writer_lock():
                write = asyncio.ensure_future(
                    host.apply_update("alpha", EditText(target.node_id, text))
                )
                await asyncio.sleep(0)  # the write now waits on the lock
            return await asyncio.wait_for(write, timeout=5.0)

        solo = DistributedQueryEngine(session.fragmentation, placement=session.placement)
        for text in ("x", "y", "z"):
            served = host.serve_batch("alpha", queries)
            assert [r.answer_ids for r in served] == [
                solo.execute(q).answer_ids for q in queries
            ]
            host._run_blocking(contended_write(text))
            host.update("alpha", EditText(target.node_id, text * 2))
        assert len(loops) == 3 * (len(queries) + 1)
        assert all(loop is loops[0] for loop in loops)
        assert host.actors.peak_in_flight() == 1
        assert host.metrics.document("alpha").updates == 6
        assert target.value == "zz"

    def test_a_raising_serve_batch_leaves_no_task_or_permit(self):
        host = ServiceHost(site_parallelism=1, cache_capacity=0, coalesce=False)
        session = host.register("alpha", clientele_fragmentation())
        queries = list(CLIENTELE_QUERIES.values())
        with pytest.raises(XPathError):
            host.serve_batch("alpha", queries + ["client[["])
        assert not asyncio.all_tasks(host._blocking_loop)
        assert host._admission.total_in_flight == 0
        assert host._pending_evaluations == 0
        assert all(actor.in_flight == 0 for actor in host.actors.actors.values())
        assert session.snapshots.retained == 0
        assert len(host.serve_batch("alpha", queries)) == len(queries)

    def test_the_blocking_loop_closes_with_its_host(self):
        host = ServiceHost()
        host.register("alpha", clientele_fragmentation())
        host.execute("alpha", "client/name")
        loop = host._blocking_loop
        assert not loop.is_closed()
        del host
        gc.collect()
        assert loop.is_closed()


class TestColumnarEnginesOnly:
    def test_reference_engine_host_is_refused(self):
        with pytest.raises(ValueError, match="DistributedQueryEngine"):
            ServiceHost(engine="reference")
        with use_fragment_engine("reference"):
            with pytest.raises(ValueError, match="DistributedQueryEngine"):
                ServiceHost()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "pax3"},
            {"algorithm": "parbox"},
            {"algorithm": "naive"},
            {"algorithm": "pax2", "engine": "reference"},
        ],
        ids=["pax3", "parbox", "naive", "pax2-reference"],
    )
    def test_as_service_refuses_non_pax2_engines(self, kwargs):
        engine = DistributedQueryEngine(clientele_fragmentation(), **kwargs)
        with pytest.raises(ValueError, match="DistributedQueryEngine"):
            engine.as_service()
        # the sync engine itself keeps serving that configuration (a Boolean
        # query, which ParBoX accepts too)
        assert engine.execute(".[//client/name]").answer_ids

    def test_engine_is_resolved_once_at_construction(self):
        with use_fragment_engine(KERNEL):
            host = ServiceHost()
        host.register("alpha", clientele_fragmentation())
        with use_fragment_engine("reference"):
            # a later process default does not reach the built host
            assert host.execute("alpha", "client/name").answer_ids
        assert host.engine.name == KERNEL
        assert "engine=kernel" in host.summary()


class TestSharedScheduler:
    def test_admission_is_shared_across_documents(self, twin_host):
        host = ServiceHost(max_in_flight=1, max_pending=0, coalesce=False)
        host.register("alpha", clientele_fragmentation())
        host.register("beta", clientele_fragmentation())

        async def scenario():
            first = asyncio.ensure_future(host.submit("alpha", "client/name"))
            await asyncio.sleep(0)  # let it occupy the only admission slot
            with pytest.raises(AdmissionError):
                await host.submit("beta", CLIENTELE_QUERIES["brokers_goog"])
            await first

        asyncio.run(scenario())

    def test_host_metrics_carry_per_document_breakdowns(self, twin_host):
        host = twin_host
        host.execute("alpha", "client/name")
        host.execute("beta", "client/name")
        target = first_text_in(host.session("beta").fragmentation)
        host.update("beta", EditText(target.node_id, "metered"))
        payload = host.metrics.to_dict()
        assert set(payload["documents"]) == {"alpha", "beta"}
        assert payload["documents"]["beta"]["updates"] == 1
        assert payload["documents"]["alpha"]["requests"] == 1
        assert "per document" in host.metrics.summary()
        assert host.metrics.update_records[0].document == "beta"

    def test_mixed_tenant_workload_matches_solo_engines(self):
        # End to end: interleaved reads and writes across three tenants,
        # every read differentially checked against a solo engine sharing
        # the same (mutating) fragmentation.
        tenants = build_tenants(3, total_bytes=12_000, seed=9)
        host = ServiceHost(max_in_flight=8)
        solo = {}
        for tenant in tenants:
            host.register(tenant.name, tenant.fragmentation, tenant.placement)
            solo[tenant.name] = DistributedQueryEngine(
                tenant.fragmentation, placement=tenant.placement
            )
        workload = MultiDocumentWorkload(tenants, write_ratio=0.2, seed=31)
        reads = writes = 0
        for name, op in workload.ops(25):
            if op.is_write:
                host.update(name, op.mutation)
                writes += 1
            else:
                assert (
                    host.execute(name, op.query).answer_ids
                    == solo[name].execute(op.query).answer_ids
                ), (name, op.query)
                reads += 1
        assert reads and writes
        # per-document accounting adds up to the host totals
        assert (
            sum(totals.requests for totals in host.metrics.documents.values())
            == host.metrics.total_requests
        )
        assert (
            sum(slice_.hits for slice_ in host.cache.stats.documents.values())
            == host.cache.stats.hits
        )


class TestSingleDocumentFacade:
    def test_service_engine_is_a_one_document_host(self):
        service = ServiceEngine(clientele_fragmentation(), max_in_flight=4)
        assert service.host.documents() == [DEFAULT_DOCUMENT]
        assert service.document == DEFAULT_DOCUMENT
        assert service.host.session(DEFAULT_DOCUMENT) is service.session
        # both call shapes reach the same session
        facade = service.execute("client/name").answer_ids
        routed = service.host.execute(DEFAULT_DOCUMENT, "client/name").answer_ids
        assert facade and facade == routed
        assert service.host.cache.stats.hits == 1

    def test_engine_register_with_joins_a_host(self):
        engine = DistributedQueryEngine(clientele_fragmentation())
        host = ServiceHost(max_in_flight=4)
        session = engine.register_with(host, "joined")
        assert host.documents() == ["joined"]
        assert session.fragmentation is engine.fragmentation
        assert (
            host.execute("joined", "client/name").answer_ids
            == engine.execute("client/name").answer_ids
        )
