"""Unit tests for the async site actors and the transport latency model."""

import asyncio

import pytest

from repro.distributed.async_transport import AsyncTransport, LatencyModel
from repro.distributed.network import Network
from repro.distributed.placement import one_site_per_fragment
from repro.service.actors import ActorPool, SiteActor
from repro.workloads.queries import clientele_example_tree, clientele_paper_fragmentation


class TestSiteActor:
    def test_parallelism_validated(self):
        with pytest.raises(ValueError):
            SiteActor("S0", parallelism=0)

    def test_parallelism_bounds_concurrency(self):
        actor = SiteActor("S0", parallelism=2)

        async def request():
            async with actor.slot("stage"):
                await asyncio.sleep(0.002)

        async def main():
            await asyncio.gather(*(request() for _ in range(10)))

        asyncio.run(main())
        assert actor.requests == 10
        assert 1 <= actor.peak_in_flight <= 2
        assert actor.busy_seconds > 0.0

    def test_unbounded_enough_parallelism_overlaps(self):
        actor = SiteActor("S0", parallelism=10)

        async def main():
            async def request():
                async with actor.slot():
                    await asyncio.sleep(0.002)

            await asyncio.gather(*(request() for _ in range(10)))

        asyncio.run(main())
        assert actor.peak_in_flight > 1

    def test_counters_reset(self):
        actor = SiteActor("S0")

        async def request():
            async with actor.slot():
                pass

        asyncio.run(request())
        actor.reset_counters()
        assert actor.requests == 0 and actor.busy_seconds == 0.0


class TestActorPool:
    def test_one_actor_per_site(self):
        pool = ActorPool(["S1", "S0", "S1"], parallelism=3)
        assert pool.site_ids() == ["S0", "S1"]
        assert pool["S0"].parallelism == 3

    def test_unknown_site_grows_pool(self):
        pool = ActorPool(["S0"])
        actor = pool["S7"]
        assert actor.site_id == "S7"
        assert "S7" in pool.site_ids()

    def test_summary_lists_sites(self):
        pool = ActorPool(["S0", "S1"])
        assert "S0" in pool.summary() and "S1" in pool.summary()


class TestAsyncTransport:
    @pytest.fixture
    def network(self):
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        return Network(fragmentation, one_site_per_fragment(fragmentation))

    def test_records_on_underlying_network(self, network):
        transport = AsyncTransport(network)

        async def main():
            await transport.send("S0", "S1", "exec_request", units=5)
            await transport.send("S1", "S1", "exec_request", units=9)  # local

        asyncio.run(main())
        assert network.communication_units() == 5
        assert network.local_units() == 9
        assert transport.sent_messages == 1

    def test_latency_charged_per_message_and_unit(self, network):
        latency = LatencyModel(base_seconds=0.001, per_unit_seconds=0.0001)
        assert latency.delay(units=10) == pytest.approx(0.002)
        transport = AsyncTransport(network, latency)

        async def main():
            await transport.send("S0", "S1", "answers", units=10)

        asyncio.run(main())
        assert transport.simulated_seconds == pytest.approx(0.002)

    def test_local_messages_are_free_and_instant(self, network):
        transport = AsyncTransport(network, LatencyModel(base_seconds=0.5))

        async def main():
            await transport.send("S0", "S0", "answers", units=100)

        asyncio.run(main())
        assert transport.simulated_seconds == 0.0

    def test_free_model_flag(self):
        assert LatencyModel().is_free
        assert not LatencyModel(base_seconds=0.1).is_free
