"""Tests for the ParBoX Boolean-query algorithm."""

import pytest

from repro.core.common import build_network
from repro.core.parbox import as_boolean_query, run_parbox
from repro.core.pax3 import run_pax3
from repro.xpath.centralized import evaluate_boolean_centralized
from repro.xpath.errors import XPathError
from repro.workloads.queries import clientele_example_tree, clientele_paper_fragmentation

from tests.conftest import available_engines

BOOLEAN_QUERIES = [
    ('.[//stock/code/text() = "goog"]', True),
    ('.[//stock/code/text() = "msft"]', False),
    ('.[//client/country/text() = "canada"]', True),
    ('.[//stock[buy > 400]]', False),
    ('.[//stock[buy > 380] and //client/country/text() = "canada"]', True),
    ('.[not(//broker[name/text() = "chase"])]', True),
    ('.[client/broker]', True),
]


@pytest.fixture(scope="module")
def tree():
    return clientele_example_tree()


@pytest.fixture(scope="module")
def fragmentation(tree):
    return clientele_paper_fragmentation(tree)


class TestCorrectness:
    @pytest.mark.parametrize("query,expected", BOOLEAN_QUERIES)
    def test_matches_centralized_boolean(self, tree, fragmentation, query, expected):
        assert evaluate_boolean_centralized(tree, query) is expected
        stats = run_parbox(fragmentation, query)
        assert bool(stats.answer_ids) is expected
        assert expected == (stats.notes == "boolean result: True")

    def test_rejects_data_selecting_queries(self, fragmentation):
        with pytest.raises(XPathError):
            run_parbox(fragmentation, "client/broker/name")


class TestGuarantees:
    def test_single_visit_per_site(self, fragmentation):
        for query, _ in BOOLEAN_QUERIES:
            stats = run_parbox(fragmentation, query)
            assert stats.max_site_visits == 1

    def test_communication_independent_of_answers(self, fragmentation):
        # Boolean queries ship vectors only, never data.
        stats = run_parbox(fragmentation, BOOLEAN_QUERIES[0][0])
        assert stats.answer_nodes_shipped == 0
        assert stats.communication_units > 0

    def test_single_stage(self, fragmentation):
        stats = run_parbox(fragmentation, BOOLEAN_QUERIES[0][0])
        assert [stage.name for stage in stats.stages] == ["qualifiers"]


class TestSiteState:
    @pytest.mark.parametrize("engine", available_engines())
    def test_no_qualifier_state_is_left_at_any_site(self, fragmentation, engine):
        # no selection stage follows ParBoX's qualifier stage, so a site
        # keeps nothing per element; PaX3's stage 2 reads what its kept
        network = build_network(fragmentation)
        for query, expected in BOOLEAN_QUERIES:
            stats = run_parbox(fragmentation, query, network=network, engine=engine)
            assert bool(stats.answer_ids) is expected, (engine, query)
            assert all(
                not stored for site in network.sites.values() for stored in site.storage.values()
            ), (engine, query)
        run_pax3(fragmentation, "client[broker]/name", network=network, engine=engine)
        assert any(stored for site in network.sites.values() for stored in site.storage.values())


class TestHelpers:
    def test_as_boolean_query_wraps_bare_qualifiers(self):
        assert as_boolean_query('//a/text() = "x"') == '.[//a/text() = "x"]'
        assert as_boolean_query('[//a]') == ".[//a]"

    def test_wrapped_queries_run(self, fragmentation):
        stats = run_parbox(fragmentation, as_boolean_query('//stock/code/text() = "goog"'))
        assert bool(stats.answer_ids) is True
