"""End-to-end integration: parse -> fragment -> place -> query -> answers.

These tests exercise the whole public API the way the examples (and a
downstream user) would, including XML round-trips and every algorithm.
"""

import pytest

from repro import (
    DistributedQueryEngine,
    build_fragmentation,
    cut_by_size,
    cut_matching,
    evaluate_centralized,
    parse_xml,
    round_robin_placement,
    serialize,
)
from repro.core.kernel.dispatch import KERNEL, REFERENCE, VECTOR
from repro.core.vector import numpy_available
from repro.workloads.xmark import SiteSpec, generate_sites_document

from tests.conftest import flat_depths


@pytest.fixture(scope="module")
def catalog_xml() -> str:
    """A small bookshop document written as raw XML text."""
    return """
    <shop>
      <department>
        <name>fiction</name>
        <book><title>Dune</title><price>9</price><stock>3</stock></book>
        <book><title>Hyperion</title><price>12</price><stock>0</stock></book>
      </department>
      <department>
        <name>science</name>
        <book><title>Cosmos</title><price>15</price><stock>7</stock></book>
        <book><title>Relativity</title><price>8</price><stock>2</stock></book>
      </department>
      <department>
        <name>history</name>
        <book><title>SPQR</title><price>14</price><stock>1</stock></book>
      </department>
    </shop>
    """


class TestBookshopWorkflow:
    def test_parse_fragment_query(self, catalog_xml):
        tree = parse_xml(catalog_xml)
        fragmentation = cut_matching(tree, "department")
        engine = DistributedQueryEngine(fragmentation)

        titles = engine.execute('//book[price < 13][stock > 0]/title')
        assert titles.texts() == ["Dune", "Relativity"]

        departments = engine.execute('department[book/price > 14]/name')
        assert departments.texts() == ["science"]

    def test_every_algorithm_gives_the_same_answer(self, catalog_xml):
        tree = parse_xml(catalog_xml)
        fragmentation = cut_by_size(tree, max_elements=8)
        engine = DistributedQueryEngine(fragmentation)
        query = "//book[stock > 0]/title"
        expected = evaluate_centralized(tree, query).answer_ids
        for algorithm in ("pax2", "pax3", "naive"):
            for use_annotations in (False, True):
                stats = engine.run(query, algorithm=algorithm, use_annotations=use_annotations)
                assert stats.answer_ids == expected

    def test_results_can_be_serialized_back_to_xml(self, catalog_xml):
        tree = parse_xml(catalog_xml)
        engine = DistributedQueryEngine(cut_matching(tree, "department"))
        snippets = engine.execute("department[name = 'fiction']/book").to_xml()
        assert len(snippets) == 2
        assert all(snippet.startswith("<book>") for snippet in snippets)

    def test_round_trip_through_text_preserves_answers(self, catalog_xml):
        tree = parse_xml(catalog_xml)
        reparsed = parse_xml(serialize(tree, pretty=True))
        query = "//book[price >= 12]/title"
        assert (
            evaluate_centralized(tree, query).answer_ids
            == evaluate_centralized(reparsed, query).answer_ids
        )


class TestXMarkWorkflow:
    def test_generated_document_through_engine(self):
        tree = generate_sites_document([SiteSpec.from_bytes(25_000)] * 2, seed=13)
        fragmentation = cut_by_size(tree, max_elements=400)
        placement = round_robin_placement(fragmentation, site_count=3)
        engine = DistributedQueryEngine(fragmentation, placement=placement)

        query = '/sites/site/people/person[address/country = "US"]/name'
        result = engine.execute(query)
        assert result.answer_ids == evaluate_centralized(tree, query).answer_ids
        assert result.stats.max_site_visits <= 2
        summary = result.summary()
        assert "PaX2" in summary

    def test_explain_before_running(self):
        tree = generate_sites_document([SiteSpec.from_bytes(15_000)], seed=3)
        fragmentation = cut_by_size(tree, max_elements=200)
        engine = DistributedQueryEngine(fragmentation)
        text = engine.explain("/sites/site/people/person")
        assert "evaluate" in text


class TestPathologicalDepth:
    def test_3000_deep_document_from_text_to_answers_on_every_engine(self):
        """Deeper than Python's call stack at every layer: parse, serialize
        (plain and pretty), re-parse, both encodings, PaX2 on each engine."""
        depth = 3000
        document = "<a>" * depth + "<b>7</b><b>x</b>" + "</a>" * depth
        tree = parse_xml(document)
        assert serialize(tree) == document
        pretty = serialize(tree, pretty=True)
        assert pretty.count("\n") == 2 * depth + 2
        tree = parse_xml(pretty)
        assert tree.size() == depth + 4

        innermost = tree.node(depth - 1)
        fragmentation = build_fragmentation(
            tree, [tree.node(depth // 3).node_id, tree.node(2 * depth // 3).node_id]
        )
        spans = [fragmentation.flat(fid) for fid in fragmentation.fragment_ids()]
        assert sum(flat.n for flat in spans) == tree.size()
        assert [flat.subtree_size[0] for flat in spans] == [flat.n for flat in spans]

        depths = [max(flat_depths(flat)) for flat in spans]
        assert depths == [depth // 3 - 1, depth // 3 - 1, depth // 3 + 1]  # <b> and its text below
        engines = [REFERENCE, KERNEL]
        if numpy_available():
            engines.append(VECTOR)
        expected = {
            "//b[val() = 7]": [innermost.children[0].node_id],
            "//a[b/text() = 'x']": [innermost.node_id],
            "/a/a//b": [child.node_id for child in innermost.children],
        }
        for query, answer in expected.items():
            assert evaluate_centralized(tree, query).answer_ids == answer
            for engine in engines:
                runner = DistributedQueryEngine(fragmentation, algorithm="pax2", engine=engine)
                assert runner.execute(query).answer_ids == answer, (query, engine)
