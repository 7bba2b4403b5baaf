"""The document-wide tag table under writes, pinned snapshots and tenants.

Tag ids mean the same tag in every fragment, every re-encode and every
pinned MVCC snapshot of one document, and the compiled plan tables live on
that one table.  A write that brings a never-seen tag grows the table under
tables that were compiled when it was shorter: those must be recompiled, not
indexed past their end, and a snapshot pinned before the write must keep
answering at its version next to the grown table.
"""

import asyncio

import pytest

from repro.core.common import ensure_plan
from repro.core.engine import DistributedQueryEngine
from repro.core.kernel.dispatch import KERNEL, REFERENCE, VECTOR
from repro.core.kernel.tables import plan_tables
from repro.core.pruning import build_schedule
from repro.core.vector import numpy_available
from repro.service.actors import ActorPool
from repro.service.evaluator import evaluate_query_async
from repro.service.server import ServiceHost
from repro.updates import InsertSubtree, apply_mutation
from repro.workloads.queries import (
    clientele_example_tree,
    clientele_paper_fragmentation,
)
from repro.workloads.scenarios import build_ft1
from repro.xmltree.builder import element
from repro.xpath.centralized import evaluate_centralized

ENGINES = (REFERENCE, KERNEL, VECTOR) if numpy_available() else (REFERENCE, KERNEL)
COLUMNAR = tuple(engine for engine in ENGINES if engine != REFERENCE)

#: answered by every fragment, with a qualifier, and changed by the write
QUERY = "//person[name]/emailaddress"
NEW_TAG = "never_seen_tag"
NEW_TAG_QUERY = f"//person[{NEW_TAG}]/emailaddress"


def scenario():
    return build_ft1(fragment_count=4, total_bytes=25_000, seed=7)


def insert_person_with_new_tag(fragmentation) -> InsertSubtree:
    """A person carrying a never-seen tag, into a non-root fragment."""
    fragment = fragmentation[fragmentation.fragment_ids()[2]]
    people = next(
        node for node in fragment.iter_span() if node.is_element and node.tag == "people"
    )
    person = element(
        "person",
        element("name", "Tag Table"),
        element("emailaddress", "mailto:tag@table"),
        element(NEW_TAG, "x"),
    )
    return InsertSubtree(people.node_id, person)


def centralized(fragmentation, query):
    return evaluate_centralized(fragmentation.tree, query).answer_ids


@pytest.mark.parametrize("engine", ENGINES)
def test_sync_engine_reads_across_a_write_that_adds_a_tag(engine):
    fragmentation = scenario().fragmentation
    served = DistributedQueryEngine(fragmentation, algorithm="pax2", engine=engine)

    before = served.execute(QUERY).answer_ids  # plan tables now cached
    assert before and before == centralized(fragmentation, QUERY)
    assert served.execute(NEW_TAG_QUERY).answer_ids == []

    apply_mutation(fragmentation, insert_person_with_new_tag(fragmentation))

    added = served.execute(NEW_TAG_QUERY).answer_ids
    assert len(added) == 1 and added == centralized(fragmentation, NEW_TAG_QUERY)
    after = served.execute(QUERY).answer_ids
    assert after == centralized(fragmentation, QUERY) == sorted(before + added)


@pytest.mark.parametrize("engine", COLUMNAR)
def test_service_host_reads_across_a_write_that_adds_a_tag(engine):
    ft1 = scenario()
    fragmentation = ft1.fragmentation
    host = ServiceHost(cache_capacity=0, engine=engine)
    host.register("doc", fragmentation, ft1.placement)

    async def run():
        session = host.session("doc")
        before = (await host.submit("doc", QUERY)).answer_ids
        assert before and before == centralized(fragmentation, QUERY)

        pinned = session.snapshots.pin(session.version)
        await host.apply_update("doc", insert_person_with_new_tag(fragmentation))

        added = (await host.submit("doc", NEW_TAG_QUERY)).answer_ids
        assert len(added) == 1 and added == centralized(fragmentation, NEW_TAG_QUERY)
        after = (await host.submit("doc", QUERY)).answer_ids
        assert after == centralized(fragmentation, QUERY) == sorted(before + added)

        # The pinned encodings and the grown table coexist: same table
        # object, superseded columns, and the pre-write answer.
        touched = fragmentation.fragment_ids()[2]
        assert pinned.flat(touched) is not fragmentation.flat(touched)
        assert pinned.flat(touched).tag_table is fragmentation.flat(touched).tag_table
        assert NEW_TAG in pinned.flat(touched).tags
        for query, expected in ((QUERY, before), (NEW_TAG_QUERY, [])):
            plan = ensure_plan(query)
            stats = await evaluate_query_async(
                fragmentation, session.placement, plan,
                ActorPool(session.placement.values()), pinned,
                build_schedule(fragmentation, plan, True, session.sites), engine=engine,
            )
            assert stats.answer_ids == expected
        session.snapshots.release(pinned)

    asyncio.run(run())


def test_tables_compiled_before_a_tag_arrived_are_recompiled_not_overrun():
    fragmentation = scenario().fragmentation
    plan = ensure_plan(QUERY)
    root_id, _, touched = fragmentation.fragment_ids()[:3]
    old = plan_tables(fragmentation.flat(root_id), plan)
    assert plan_tables(fragmentation.flat(touched), plan) is old  # one per document

    apply_mutation(fragmentation, insert_person_with_new_tag(fragmentation))
    fragmentation.flat(touched)  # the re-encode interns the new tag

    tags = fragmentation.flat(root_id).tags
    assert tags[-1] == NEW_TAG and len(old.head_by_tag) == len(tags) - 1
    new = plan_tables(fragmentation.flat(root_id), plan)
    assert new is not old and len(new.head_by_tag) == len(new.sel_child_ok) == len(tags)
    assert plan_tables(fragmentation.flat(touched), plan) is new


def test_two_documents_share_neither_tags_nor_tables():
    xmark = scenario().fragmentation
    clientele = clientele_paper_fragmentation(clientele_example_tree())
    DistributedQueryEngine(xmark, engine=KERNEL).execute(QUERY)

    xmark_table = xmark.flat(xmark.root_fragment_id).tag_table
    clientele_table = clientele.flat(clientele.root_fragment_id).tag_table
    assert xmark_table is not clientele_table
    assert len(xmark_table.plan_tables) == 1 and not clientele_table.plan_tables

    DistributedQueryEngine(clientele, engine=KERNEL).execute("client/name")
    for fragment_id in clientele.fragment_ids():
        assert clientele.flat(fragment_id).tag_table is clientele_table
    assert "client" in clientele_table.index and "client" not in xmark_table.index
    assert "person" in xmark_table.index and "person" not in clientele_table.index
    assert len(xmark_table.plan_tables) == len(clientele_table.plan_tables) == 1


def test_plan_tables_shared_across_spellings():
    """The PlanTables cache keys on the normalized fingerprint."""
    fragmentation = clientele_paper_fragmentation(clientele_example_tree())
    flat = fragmentation.flat(fragmentation.root_fragment_id)
    a = ensure_plan("//broker/./name")
    b = ensure_plan("//broker/name")
    assert a.fingerprint == b.fingerprint
    assert plan_tables(flat, a) is plan_tables(flat, b)
