"""Tests for the public DistributedQueryEngine API and QueryResult."""

import pytest

from repro.core.engine import ALGORITHMS, DistributedQueryEngine
from repro.distributed.network import SiteIndex
from repro.xpath.centralized import evaluate_centralized
from repro.workloads.queries import (
    CLIENTELE_QUERIES,
    clientele_example_tree,
    clientele_paper_fragmentation,
)


@pytest.fixture(scope="module")
def tree():
    return clientele_example_tree()


@pytest.fixture(scope="module")
def engine(tree):
    return DistributedQueryEngine(clientele_paper_fragmentation(tree))


class TestEngine:
    def test_default_configuration(self, engine):
        assert engine.algorithm == "pax2"
        assert engine.use_annotations is True
        assert "pax2" in repr(engine)

    def test_unknown_algorithm_rejected(self, tree):
        with pytest.raises(ValueError):
            DistributedQueryEngine(clientele_paper_fragmentation(tree), algorithm="magic")

    @pytest.mark.parametrize("algorithm", sorted(set(ALGORITHMS) - {"parbox"}))
    def test_execute_with_each_algorithm(self, tree, engine, algorithm):
        query = CLIENTELE_QUERIES["brokers_goog"]
        result = engine.execute(query, algorithm=algorithm)
        assert result.answer_ids == evaluate_centralized(tree, query).answer_ids

    def test_parbox_reachable_through_algorithm_parameter(self, tree, engine):
        # Boolean queries run through the same execute() door as the others.
        true_query = CLIENTELE_QUERIES["boolean_goog"]
        result = engine.execute(true_query, algorithm="parbox")
        assert result.answer_ids == [tree.root.node_id]
        assert engine.execute('.[//stock/code/text() = "msft"]', algorithm="parbox").answer_ids == []
        # Engines can default to it, too.
        parbox_engine = DistributedQueryEngine(
            clientele_paper_fragmentation(tree), algorithm="parbox"
        )
        assert parbox_engine.run(true_query).algorithm == "ParBoX"

    def test_run_returns_raw_stats(self, engine):
        stats = engine.run(CLIENTELE_QUERIES["client_names"])
        assert stats.algorithm == "PaX2"
        assert stats.answer_count == 3

    def test_execute_boolean(self, engine):
        assert engine.execute_boolean(CLIENTELE_QUERIES["boolean_goog"]) is True
        assert engine.execute_boolean('.[//stock/code/text() = "msft"]') is False

    def test_execute_boolean_reuses_the_site_index(self, tree, monkeypatch):
        engine = DistributedQueryEngine(clientele_paper_fragmentation(tree))
        built = []
        original = SiteIndex.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(SiteIndex, "__init__", counting)
        for _ in range(5):
            assert engine.execute_boolean(CLIENTELE_QUERIES["boolean_goog"]) is True
        # the index built with the engine serves every call, as it does run()'s
        assert len(built) == 0

    def test_evaluate_centralized_ground_truth(self, engine):
        query = CLIENTELE_QUERIES["us_nasdaq_brokers"]
        assert engine.evaluate_centralized(query).answer_ids == engine.execute(query).answer_ids

    def test_annotation_override_per_query(self, engine):
        with_xa = engine.run(CLIENTELE_QUERIES["client_names"], use_annotations=True)
        without_xa = engine.run(CLIENTELE_QUERIES["client_names"], use_annotations=False)
        assert with_xa.answer_ids == without_xa.answer_ids
        assert with_xa.fragments_pruned and not without_xa.fragments_pruned

    def test_explain_lists_fragments_and_pruning(self, engine):
        text = engine.explain(CLIENTELE_QUERIES["client_names"])
        assert "F0" in text and "prune" in text and "selection:" in text

    def test_describe_fragmentation(self, engine):
        text = engine.describe_fragmentation()
        assert "placement:" in text and "F0 -> S0" in text


class TestQueryResult:
    def test_nodes_and_texts(self, tree, engine):
        result = engine.execute(CLIENTELE_QUERIES["client_names"])
        assert result.texts() == ["Anna", "Kim", "Lisa"]
        assert [node.tag for node in result.nodes()] == ["name", "name", "name"]
        assert len(result) == 3
        assert result.answer_ids[0] in result

    def test_iteration_yields_nodes(self, engine):
        result = engine.execute(CLIENTELE_QUERIES["client_names"])
        assert [node.text() for node in result] == ["Anna", "Kim", "Lisa"]

    def test_to_xml_snippets(self, engine):
        snippets = engine.execute(CLIENTELE_QUERIES["client_names"]).to_xml()
        assert snippets[0].strip() == "<name>Anna</name>"

    def test_summary_and_repr(self, engine):
        result = engine.execute(CLIENTELE_QUERIES["brokers_goog"])
        assert "PaX2" in result.summary()
        assert "answers" in repr(result)
