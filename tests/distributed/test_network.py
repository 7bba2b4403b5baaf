"""Unit tests for the simulated network and message accounting."""

import pytest

from repro.distributed.messages import MessageKind
from repro.distributed.network import Network
from repro.distributed.placement import one_site_per_fragment, round_robin_placement
from repro.workloads.queries import clientele_example_tree, clientele_paper_fragmentation


@pytest.fixture
def fragmentation():
    return clientele_paper_fragmentation(clientele_example_tree())


@pytest.fixture
def network(fragmentation):
    return Network(fragmentation, one_site_per_fragment(fragmentation))


class TestTopology:
    def test_one_site_per_fragment(self, fragmentation, network):
        assert len(network.sites) == len(fragmentation)
        for fragment_id in fragmentation.fragment_ids():
            assert network.site_of(fragment_id).holds(fragment_id)

    def test_coordinator_holds_root_fragment(self, fragmentation, network):
        assert network.coordinator.holds(fragmentation.root_fragment_id)

    def test_fragments_on_site(self, fragmentation):
        placement = round_robin_placement(fragmentation, site_count=2)
        network = Network(fragmentation, placement)
        assert len(network.sites) == 2
        total = sum(len(network.fragments_on(site_id)) for site_id in network.site_ids())
        assert total == len(fragmentation)

    def test_fragments_on_is_the_placement_scan_in_fragment_id_order(self, fragmentation):
        placement = round_robin_placement(fragmentation, site_count=2)
        network = Network(fragmentation, placement)
        for site_id in network.site_ids():
            scanned = [
                fid for fid in fragmentation.fragment_ids() if placement[fid] == site_id
            ]
            assert network.fragments_on(site_id) == scanned
            network.fragments_on(site_id).clear()  # callers get their own list
            assert network.fragments_on(site_id) == scanned
        assert network.fragments_on("no-such-site") == []

    def test_sites_holding(self, fragmentation, network):
        all_sites = network.sites_holding(fragmentation.fragment_ids())
        assert all_sites == network.site_ids()
        assert network.sites_holding(["F0"]) == [network.coordinator_id]

    def test_placement_must_cover_root(self, fragmentation):
        placement = one_site_per_fragment(fragmentation)
        placement.pop(fragmentation.root_fragment_id)
        with pytest.raises(ValueError):
            Network(fragmentation, placement)


class TestMessaging:
    def test_remote_messages_count_toward_traffic(self, network):
        network.send("S0", "S1", MessageKind.EXEC_REQUEST, units=5)
        network.send("S1", "S0", MessageKind.ANSWERS, units=3)
        assert network.communication_units() == 8
        assert network.message_count() == 2
        assert network.local_units() == 0

    def test_local_messages_are_free(self, network):
        network.send("S0", "S0", MessageKind.RESOLVED_BINDINGS, units=7)
        assert network.communication_units() == 0
        assert network.local_units() == 7
        assert network.message_count() == 0

    def test_negative_units_clamped(self, network):
        message = network.send("S0", "S1", MessageKind.ANSWERS, units=-4)
        assert message.units == 0

    def test_reset_accounting(self, network):
        network.send("S0", "S1", MessageKind.ANSWERS, units=3)
        network.sites["S1"].add_operations(10)
        network.reset_accounting()
        assert network.communication_units() == 0
        assert network.sites["S1"].operations == 0

    def test_collect_stats(self, network):
        network.send("S0", "S2", MessageKind.QUALIFIER_VECTORS, units=11)
        with network.sites["S2"].visit("stage"):
            network.sites["S2"].add_operations(100)
        stats = network.collect_stats()
        assert stats.communication_units == 11
        assert stats.sites["S2"].visits == 1
        assert stats.sites["S2"].operations == 100
        assert stats.sites["S2"].seconds >= 0.0
