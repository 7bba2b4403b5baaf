"""Weighted-fair admission, overload shedding, and deadline shed boundaries.

The unit tests drive :class:`WeightedFairAdmission` directly with hand-built
waiter tasks so grant order is fully deterministic (one event-loop step per
release); the host tests check the end-to-end contracts — a shed burst on
one tenant leaves the neighbour's counters untouched, and a deadline that
dies at either admission boundary is a typed shed, never a latency sample.
"""

import asyncio

import pytest

from repro.obs.prometheus import render_prometheus
from repro.service.fairness import FairnessPolicy, WeightedFairAdmission
from repro.service.resilience import (
    DeadlineExceededError,
    ResiliencePolicy,
    ResilienceState,
)
from repro.service.server import OverloadShedError, ServiceHost
from repro.workloads.queries import (
    clientele_example_tree,
    clientele_paper_fragmentation,
)


def clientele_fragmentation():
    return clientele_paper_fragmentation(clientele_example_tree())


def run(coroutine):
    return asyncio.run(coroutine)


async def step(count=1):
    for _ in range(count):
        await asyncio.sleep(0)


async def drain(admission, documents, order):
    """One worker per (document, tag): acquire, record the grant, release.

    Releases happen one per loop turn, so each grant's dispatch sees the
    previous release applied — grant order is exactly the scheduler's.
    """

    async def worker(document, tag):
        await admission.acquire(document)
        order.append(tag)
        admission.release(document)

    return [
        asyncio.create_task(worker(document, tag)) for document, tag in documents
    ]


class TestFairnessPolicy:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            FairnessPolicy(default_weight=0)
        with pytest.raises(ValueError):
            FairnessPolicy(weights={"a": -1.0})
        with pytest.raises(ValueError):
            FairnessPolicy(slices={"a": 0})
        with pytest.raises(ValueError):
            FairnessPolicy(default_slice=0)
        with pytest.raises(ValueError):
            FairnessPolicy(max_queue_depth=-1)
        with pytest.raises(ValueError):
            FairnessPolicy(queue_time_budget_seconds=0)

    def test_lookup_defaults(self):
        policy = FairnessPolicy(weights={"a": 3.0}, slices={"a": 2})
        assert policy.weight("a") == 3.0
        assert policy.weight("b") == 1.0
        assert policy.slice_limit("a") == 2
        assert policy.slice_limit("b") is None


class TestWeightedFairAdmission:
    def test_fast_path_grants_without_queueing(self):
        async def scenario():
            admission = WeightedFairAdmission(2)
            await admission.acquire("a")
            await admission.acquire("b")
            assert admission.total_in_flight == 2
            assert admission.grants == 2 and admission.queued_grants == 0
            admission.release("a")
            admission.release("b")
            assert admission.total_in_flight == 0

        run(scenario())

    def test_equal_weights_round_robin_at_full_occupancy(self):
        # Regression: dispatch used to restart every round from the sorted
        # queue list, so with one slot freeing at a time the alphabetically
        # first backlogged document won every grant and starved the rest.
        async def scenario():
            admission = WeightedFairAdmission(1)
            await admission.acquire("a")
            order = []
            waiters = [("a", "a")] * 4 + [("b", "b")] * 4
            tasks = await drain(admission, waiters, order)
            await step()
            admission.release("a")
            await asyncio.gather(*tasks)
            assert order == ["a", "b"] * 4

        run(scenario())

    def test_weights_set_grant_shares_under_contention(self):
        async def scenario():
            policy = FairnessPolicy(weights={"a": 2.0, "b": 1.0})
            admission = WeightedFairAdmission(1, policy)
            await admission.acquire("a")
            order = []
            waiters = [("a", "a")] * 8 + [("b", "b")] * 4
            tasks = await drain(admission, waiters, order)
            await step()
            admission.release("a")
            await asyncio.gather(*tasks)
            # Deficit round robin at weight 2:1 — "a" spends a two-grant
            # quantum per round, "b" one.
            assert order == ["a", "a", "b"] * 4

        run(scenario())

    def test_sub_unit_weight_still_accrues_to_grants(self):
        async def scenario():
            policy = FairnessPolicy(weights={"slow": 0.5})
            admission = WeightedFairAdmission(1, policy)
            await admission.acquire("slow")
            order = []
            tasks = await drain(admission, [("slow", "s0"), ("slow", "s1")], order)
            await step()
            admission.release("slow")
            await asyncio.wait_for(asyncio.gather(*tasks), 1.0)
            assert order == ["s0", "s1"]

        run(scenario())

    def test_slice_caps_simultaneous_slots(self):
        async def scenario():
            policy = FairnessPolicy(slices={"capped": 1})
            admission = WeightedFairAdmission(4, policy)
            await admission.acquire("capped")
            # The second request of the capped document queues even though
            # three host slots are free...
            blocked = asyncio.create_task(admission.acquire("capped"))
            await step()
            assert not blocked.done()
            assert admission.in_flight("capped") == 1
            # ...while another document takes a free slot immediately.
            await asyncio.wait_for(admission.acquire("other"), 1.0)
            admission.release("capped")
            await asyncio.wait_for(blocked, 1.0)
            assert admission.in_flight("capped") == 1
            admission.release("capped")
            admission.release("other")

        run(scenario())

    def test_cancelled_waiter_leaves_no_residue(self):
        async def scenario():
            admission = WeightedFairAdmission(1)
            await admission.acquire("a")
            waiter = asyncio.create_task(admission.acquire("a"))
            await step()
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert admission.queue_depth("a") == 0
            admission.release("a")
            assert admission.total_in_flight == 0
            await asyncio.wait_for(admission.acquire("a"), 1.0)

        run(scenario())

    def test_grant_racing_cancellation_hands_slot_back(self):
        async def scenario():
            admission = WeightedFairAdmission(1)
            await admission.acquire("a")
            waiter = asyncio.create_task(admission.acquire("a"))
            await step()
            # release() grants the parked waiter synchronously; cancelling
            # before it resumes exercises the granted-but-dead handback.
            admission.release("a")
            assert admission.total_in_flight == 1
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert admission.total_in_flight == 0

        run(scenario())

    def test_overload_reasons(self):
        async def scenario():
            policy = FairnessPolicy(
                max_queue_depth=1,
                queue_time_budget_seconds=0.01,
                shed_min_queue_depth=1,
            )
            admission = WeightedFairAdmission(1, policy)
            assert admission.overload_reason("a") is None
            await admission.acquire("a")
            waiter = asyncio.create_task(admission.acquire("a"))
            await step()
            reason = admission.overload_reason("a")
            assert reason is not None and "queue depth" in reason
            # An idle neighbour is never shed by a's backlog.
            assert admission.overload_reason("b") is None
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            admission.release("a")

        run(scenario())

    def test_queue_time_budget_needs_real_backlog(self):
        async def scenario():
            policy = FairnessPolicy(
                queue_time_budget_seconds=0.01, shed_min_queue_depth=1
            )
            admission = WeightedFairAdmission(1, policy)
            # Seed a rolling window far over budget: with no queued request
            # the stale history must NOT shed anybody...
            from collections import deque

            admission._recent_waits["a"] = deque([0.5] * 8)
            assert admission.overload_reason("a") is None
            # ...but with a live backlog it does.
            await admission.acquire("a")
            waiter = asyncio.create_task(admission.acquire("a"))
            await step()
            reason = admission.overload_reason("a")
            assert reason is not None and "queue-time p95" in reason
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            admission.release("a")

        run(scenario())


class TestOverloadShedding:
    def host(self, **overrides):
        host = ServiceHost(
            max_in_flight=1,
            cache_capacity=0,
            coalesce=False,
            **overrides,
        )
        host.register("alpha", clientele_fragmentation())
        host.register("beta", clientele_fragmentation())
        return host

    def test_shed_burst_on_one_document_leaves_neighbour_untouched(self):
        # Satellite: per-document shed accounting.  A burst over alpha's
        # queue-depth budget sheds alpha's excess with a typed error and
        # counters on alpha only; beta's submissions all complete and its
        # totals show zero sheds.
        host = self.host(fairness=FairnessPolicy(max_queue_depth=2))

        async def scenario():
            admission = host._admission
            await admission.acquire("alpha")  # hold the only slot
            queued = [
                asyncio.create_task(host.submit("alpha", "client/name"))
                for _ in range(2)
            ]
            await step(4)  # both now parked in alpha's admission queue
            shed = []
            for _ in range(5):
                with pytest.raises(OverloadShedError) as excinfo:
                    await host.submit("alpha", "client/name")
                shed.append(excinfo.value)
            assert all("alpha" in str(error) for error in shed)
            # beta queues behind the held slot but is never shed.
            beta = asyncio.create_task(host.submit("beta", "client/name"))
            await step(4)
            admission.release("alpha")
            results = await asyncio.wait_for(
                asyncio.gather(beta, *queued), 10.0
            )
            assert all(result.answer_ids for result in results)

        run(scenario())
        alpha = host.metrics.document("alpha")
        beta = host.metrics.document("beta")
        assert alpha.shed == 5
        assert alpha.shed_by_stage == {"overload": 5}
        assert beta.shed == 0 and beta.shed_by_stage == {}
        assert beta.requests == 1
        text = render_prometheus(host)
        assert 'repro_document_shed_total{document="alpha"} 5' in text
        assert 'repro_document_shed_total{document="beta"} 0' in text
        assert (
            'repro_document_shed_by_stage_total{document="alpha",stage="overload"} 5'
            in text
        )
        assert 'shed_by_stage_total{document="beta"' not in text

    def test_default_policy_never_sheds(self):
        host = self.host()

        async def scenario():
            results = await asyncio.gather(
                *[host.submit("alpha", "client/name") for _ in range(6)]
            )
            assert all(result.answer_ids for result in results)

        run(scenario())
        assert host.metrics.total_shed == 0


class FlipDeadline:
    """Deadline stub: alive at the submit-time check, dead right after the
    admission grant — the exact boundary the satellite test pins."""

    def __init__(self):
        self.checks = 0

    def remaining(self):
        return 1.0

    def expired(self):
        self.checks += 1
        return self.checks > 1


class TestDeadlineShedBoundaries:
    def host(self):
        host = ServiceHost(max_in_flight=1, cache_capacity=0, coalesce=False)
        host.register("alpha", clientele_fragmentation())
        return host

    def test_expired_at_submit_sheds_before_admission_and_pin(self):
        host = self.host()

        async def scenario():
            # 1ns budget: dead by the time the submit-time check runs, so
            # the request must be shed before touching the queue or pinning.
            with pytest.raises(DeadlineExceededError) as excinfo:
                await host.submit("alpha", "client/name", deadline=1e-9)
            assert excinfo.value.stage == "queued"
            admission = host._admission
            assert admission.grants == 0 and admission.total_in_flight == 0
            assert host.session("alpha").snapshots.stats.pins == 0

        run(scenario())
        assert host._pending_evaluations == 0
        alpha = host.metrics.document("alpha")
        assert alpha.shed == 1
        assert alpha.shed_by_stage == {"submit": 1}
        assert alpha.requests == 0  # a shed is never a latency sample

    def test_expiry_between_admission_grant_and_evaluation(self):
        host = self.host()

        async def scenario():
            session = host.session("alpha")
            prepared, _, _ = session.prepared.lookup("client/name")
            resilience = ResilienceState(ResiliencePolicy()).for_request(
                FlipDeadline()
            )
            with pytest.raises(DeadlineExceededError) as excinfo:
                await host._admit_and_evaluate(session, prepared, False, resilience)
            assert excinfo.value.stage == "queued"
            assert "between admission grant and evaluation" in str(excinfo.value)
            # The granted slot was handed back, nothing evaluated.
            admission = host._admission
            assert admission.total_in_flight == 0

        run(scenario())
        assert host._pending_evaluations == 0
        alpha = host.metrics.document("alpha")
        assert alpha.shed == 1
        assert alpha.shed_by_stage == {"admission": 1}
        assert host.metrics.total_evaluated == 0


class TestFairShareAsCompletionOrder:
    """An antagonist's 96 queued reads against a victim's 24 on two slots,
    the victim's submitted last: weighted-fair admission serves the victim
    at its weight share from the moment it arrives, where one FIFO would
    have made it wait out the whole herd (completions 97–120).  The loop is
    single-threaded, so the completion order is exact."""

    WEIGHTS = {"victim": 2.0, "antagonist": 1.0}

    def victim_positions(self, fairness):
        host = ServiceHost(max_in_flight=2, cache_capacity=0, coalesce=False, fairness=fairness)
        host.register("antagonist", clientele_fragmentation())
        host.register("victim", clientele_fragmentation())
        completed = []

        async def read(document):
            await host.submit(document, "client/name")
            completed.append(document)

        async def scenario():
            await asyncio.gather(
                *[read("antagonist") for _ in range(96)],
                *[read("victim") for _ in range(24)],
            )

        run(scenario())
        assert len(completed) == 120
        return [place for place, document in enumerate(completed, 1) if document == "victim"]

    def test_weighted_victim_is_served_at_its_share_and_never_starved(self):
        places = self.victim_positions(FairnessPolicy(weights=self.WEIGHTS))
        # Three antagonist reads were admitted before the victim's arrived;
        # from then on every round grants victim, victim, antagonist — its
        # 2:1 weight exactly, so it completes 24 of the first 38 and at most
        # one antagonist read completes between two of its own.
        assert places == [place for place in range(4, 39) if place % 3]
