"""Prepared queries: a document session pays for a query's text, plan and
PaX2 schedule once, and pays again only when the fragment tree changes.

The counting cases patch every binding of a function inside ``repro`` (the
function object itself, wherever a module imported it), so they count what
the service calls, not what one module happens to name.
"""

import sys
from collections import Counter

import pytest

from repro.core import pruning
from repro.fragments import annotations
from repro.fragments.fragment_tree import build_fragmentation
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import Tracer
from repro.service.server import DocumentSession, ServiceHost
from repro.updates import MixedWorkload
from repro.workloads.queries import (
    PAPER_QUERIES,
    clientele_example_tree,
    clientele_paper_fragmentation,
)
from repro.workloads.scenarios import build_ft2
from repro.xpath.centralized import evaluate_centralized
from repro.xpath.normalize import normalize
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import compile_plan

#: a qualifier query (symbolic init vectors) and a qualifier-free one
#: (concrete init vectors read off the annotations' label paths)
QUALIFIED = PAPER_QUERIES["Q3"]
LABELS_ONLY = PAPER_QUERIES["Q2"]


def count_calls(monkeypatch, *functions):
    """Count calls of each function through every ``repro`` module binding it."""
    counts = Counter()
    for function in functions:
        def counting(*args, _function=function, **kwargs):
            counts[_function.__name__] += 1
            return _function(*args, **kwargs)

        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, name, counting)
    return counts


def host_for(fragmentation, placement=None, **config):
    host = ServiceHost(**config)
    host.register("doc", fragmentation, placement)
    return host


@pytest.fixture()
def ft2():
    return build_ft2(total_bytes=40_000, seed=5)


def centralized(fragmentation, query):
    return evaluate_centralized(fragmentation.tree, query).answer_ids


class TestWhatARequestPays:
    def test_a_hit_parses_normalizes_and_compiles_nothing(self, monkeypatch, ft2):
        host = host_for(ft2.fragmentation, ft2.placement)
        first = host.execute("doc", QUALIFIED)
        counts = count_calls(monkeypatch, parse_xpath, normalize, compile_plan)
        again = host.execute("doc", QUALIFIED)
        assert again.answer_ids == first.answer_ids
        assert host.metrics.total_cache_hits == 1
        assert counts == Counter(), counts

    def test_a_recurring_miss_reuses_its_schedule(self, monkeypatch, ft2):
        host = host_for(ft2.fragmentation, ft2.placement, cache_capacity=0)
        first = {query: host.execute("doc", query) for query in (QUALIFIED, LABELS_ONLY)}
        assert all(len(r.stats.fragments_pruned) > 0 for r in first.values())
        counts = count_calls(
            monkeypatch,
            pruning.relevant_fragments, pruning.stage1_init_vector, annotations.root_label_path,
        )
        for query, result in first.items():
            again = host.execute("doc", query)
            assert again.stats is not result.stats  # evaluated again, not cached
            assert again.answer_ids == result.answer_ids == centralized(ft2.fragmentation, query)
            assert again.stats.communication_units == result.stats.communication_units
            assert again.stats.fragments_pruned == result.stats.fragments_pruned
        assert host.metrics.total_evaluated == 4
        assert counts == Counter(), counts


class TestSharing:
    def test_spelling_variants_share_plan_and_cache_entry(self, ft2):
        host = host_for(ft2.fragmentation, ft2.placement)
        tight, spaced = "//open_auction[bidder]/current", "//open_auction[ bidder ]/current"
        assert host.execute("doc", tight).answer_ids == host.execute("doc", spaced).answer_ids
        assert host.metrics.total_evaluated == 1 and host.metrics.total_cache_hits == 1
        assert len(host.cache) == 1
        prepared = host.session("doc").prepared
        assert len(prepared) == 2  # two raw texts ...
        assert prepared.lookup(tight)[0] is prepared.lookup(spaced)[0]  # ... one entry

    def test_annotations_on_and_off_keep_separate_schedules(self, ft2):
        host = host_for(ft2.fragmentation, ft2.placement, cache_capacity=0)
        on = host.execute("doc", LABELS_ONLY, use_annotations=True)
        off = host.execute("doc", LABELS_ONLY, use_annotations=False)
        assert on.answer_ids == off.answer_ids == centralized(ft2.fragmentation, LABELS_ONLY)
        assert on.stats.fragments_pruned and not off.stats.fragments_pruned
        session = host.session("doc")
        prepared, hit, _ = session.prepared.lookup(LABELS_ONLY)
        assert hit
        schedules = [
            prepared.schedule(session.fragmentation, session.sites, flag)
            for flag in (True, False)
        ]
        assert schedules[0] is not schedules[1]
        assert schedules[1].evaluated == tuple(ft2.fragmentation.fragment_ids())
        assert schedules[0].evaluated == tuple(on.stats.fragments_evaluated)


class TestWhenSchedulesChange:
    def test_writes_keep_schedules_and_answers_stay_exact(self, ft2):
        fragmentation = ft2.fragmentation
        queries = [PAPER_QUERIES[name] for name in ("Q1", "Q2", "Q3", "Q4")]
        workload = MixedWorkload(fragmentation, queries, write_ratio=0.4, seed=23)
        host = host_for(fragmentation, ft2.placement, cache_capacity=0)
        session = host.session("doc")
        schedules = {}
        writes = 0
        for op in workload.ops(80):
            if op.is_write:
                host.update("doc", op.mutation)
                writes += 1
                continue
            result = host.execute("doc", op.query)
            assert result.stats.evaluated_version == session.version
            assert result.answer_ids == centralized(fragmentation, op.query), op.query
            prepared = session.prepared.lookup(op.query)[0]
            schedule = prepared.schedule(fragmentation, session.sites, True)
            assert schedules.setdefault(op.query, schedule) is schedule
        assert writes > 10 and len(schedules) == len(queries)

    def test_re_registering_another_fragmentation_builds_fresh_schedules(
        self, monkeypatch, ft2
    ):
        host = host_for(ft2.fragmentation, ft2.placement, cache_capacity=0)
        before = host.execute("doc", LABELS_ONLY)
        coarse = build_fragmentation(
            ft2.fragmentation.tree,
            [ft2.fragmentation[fid].root.node_id for fid in ft2.fragmentation.children("F0")],
        )
        host.drop_document("doc")
        host.register("doc", coarse)
        counts = count_calls(monkeypatch, pruning.relevant_fragments)
        after = host.execute("doc", LABELS_ONLY)
        assert counts["relevant_fragments"] == 1
        assert after.answer_ids == before.answer_ids
        assert set(after.stats.fragments_evaluated) <= set(coarse.fragment_ids())
        assert len(coarse) < len(ft2.fragmentation)

    def test_an_out_of_band_rename_and_refresh_rebuild_the_schedule(self, ft2):
        fragmentation = ft2.fragmentation
        query = "/sites/site/zones/namerica/item"
        host = host_for(fragmentation, ft2.placement, cache_capacity=0)
        assert host.execute("doc", query).answer_ids == []  # schedule built here
        namerica = next(
            f for f in fragmentation if f.root.tag == "namerica"
        ).root
        namerica.parent.tag = "zones"  # an ancestor of a fragment root renamed
        host.refresh_version("doc")
        answers = host.execute("doc", query).answer_ids
        assert answers and answers == centralized(fragmentation, query)


class TestTheBound:
    def test_a_recurring_query_stays_prepared_past_the_bound(self, monkeypatch):
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        host = host_for(fragmentation, cache_capacity=0)
        session = host.session("doc")
        distinct = 5_000
        for index in range(distinct):  # what a never-seen stream leaves behind
            session.prepared.lookup(f"//client[name/text() = 'n{index}']/name")
        assert len(session.prepared) == DocumentSession.MAX_PLANS
        recurring = "//client[country/text() = 'us']/name"
        first = host.execute("doc", recurring)
        counts = count_calls(monkeypatch, compile_plan)
        again = host.execute("doc", recurring)
        assert counts == Counter(), counts
        assert again.answer_ids == first.answer_ids == centralized(fragmentation, recurring)
        assert len(session.prepared) == DocumentSession.MAX_PLANS
        assert host.metrics.document("doc").prepared_dict() == {
            "hits": 1, "misses": 1, "evictions": 1,
        }


class TestObservability:
    def test_counts_reach_summary_to_dict_and_prometheus(self, ft2):
        host = host_for(ft2.fragmentation, ft2.placement)
        for query in (QUALIFIED, QUALIFIED, LABELS_ONLY):
            host.execute("doc", query)
        assert host.metrics.to_dict()["prepared"] == {"hits": 1, "misses": 2, "evictions": 0}
        assert host.metrics.to_dict()["documents"]["doc"]["prepared"]["hits"] == 1
        assert "prepared queries : 1 hits, 2 misses, 0 evictions" in host.metrics.summary()
        exposition = render_prometheus(host)
        assert 'repro_document_prepared_total{document="doc",outcome="hits"} 1' in exposition
        assert 'repro_document_prepared_total{document="doc",outcome="misses"} 2' in exposition

    def test_the_compile_span_says_hit_or_miss(self, ft2):
        tracer = Tracer()
        host = host_for(ft2.fragmentation, ft2.placement, tracer=tracer)
        host.execute("doc", QUALIFIED)
        host.execute("doc", QUALIFIED)
        first, second = tracer.finished
        assert first.attributes["prepared"] == "miss"
        assert second.attributes["prepared"] == "hit"
        for root in (first, second):
            assert any(node.name == "plan:compile" for node in root.walk())
        assert any(node.name == "plan:schedule" for node in first.walk())
        assert not any(node.name == "plan:schedule" for node in second.walk())
