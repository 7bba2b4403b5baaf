"""Deadlines, retries, breakers, shedding and partial-answer degradation."""

import asyncio
import random
import time

import pytest

from repro.core.engine import DistributedQueryEngine
from repro.core.results import PartialAnswer
from repro.distributed.async_transport import LatencyModel
from repro.distributed.faults import FaultInjector, FaultPolicy, SiteFaultProfile
from repro.service.resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceededError,
    ResiliencePolicy,
    ResilienceState,
    RetryPolicy,
)
from repro.service.server import AdmissionError, ServiceEngine, ServiceHost
from repro.workloads.multidoc import MultiDocumentWorkload, build_tenants
from repro.workloads.queries import clientele_example_tree, clientele_paper_fragmentation


QUERY = "//client/name"


def clientele_fragmentation():
    return clientele_paper_fragmentation(clientele_example_tree())


def fast_policy(**overrides):
    """A resilience policy whose waits are test-friendly (no real backoff)."""
    defaults = dict(
        retry=RetryPolicy(backoff_seconds=0.0, jitter=0.0),
        breaker_reset_seconds=0.02,
    )
    defaults.update(overrides)
    return ResiliencePolicy(**defaults)


class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline.after(0.0)

    def test_remaining_counts_down_and_expires(self):
        deadline = Deadline.after(0.05)
        assert 0.0 < deadline.remaining() <= 0.05
        assert not deadline.expired()
        time.sleep(0.06)
        assert deadline.expired()
        assert deadline.remaining() <= 0.0


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_seconds": -1.0},
            {"backoff_multiplier": 0.5},
            {"jitter": 1.5},
            {"hedge_after_seconds": -0.1},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            backoff_seconds=0.01,
            backoff_multiplier=2.0,
            backoff_max_seconds=0.05,
            jitter=0.0,
        )
        rng = random.Random(0)
        waits = [policy.backoff_for(attempt, rng) for attempt in (1, 2, 3, 10)]
        assert waits[0] == pytest.approx(0.01)
        assert waits[1] == pytest.approx(0.02)
        assert waits[2] == pytest.approx(0.04)
        assert waits[3] == pytest.approx(0.05)  # capped

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(backoff_seconds=0.01, jitter=0.5)
        rng = random.Random(42)
        for _ in range(100):
            wait = policy.backoff_for(1, rng)
            assert 0.005 <= wait <= 0.015


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_seconds=60.0)
        assert breaker.allow()
        assert not breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.record_failure()  # this one trips it
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.rejections == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_seconds=60.0)
        breaker.record_failure()
        breaker.record_success()
        assert not breaker.record_failure()  # streak restarted
        assert breaker.state == "closed"

    def test_half_open_probe_recloses_on_success(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=0.02)
        breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.03)
        assert breaker.allow()  # the probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=0.02)
        breaker.record_failure()
        time.sleep(0.03)
        assert breaker.allow()
        assert breaker.record_failure()  # the probe failed: re-open
        assert breaker.state == "open"
        assert breaker.trips == 2

    def test_state_board_autocreates_per_site(self):
        state = ResilienceState(fast_policy())
        breaker = state.breaker("S1")
        assert state.breaker("S1") is breaker
        assert set(state.breakers()) == {"S1"}
        context = state.for_request(Deadline.after(1.0))
        assert context.breaker("S1") is breaker
        assert context.deadline_remaining() is not None


class TestParity:
    """With no faults injected, the resilience layer must be invisible."""

    def test_resilience_layer_changes_nothing_without_faults(self):
        plain = ServiceEngine(clientele_fragmentation())
        armored = ServiceEngine(
            clientele_fragmentation(), resilience=fast_policy()
        )
        baseline = plain.execute(QUERY)
        result = armored.execute(QUERY)
        assert result.answer_ids == baseline.answer_ids
        assert not result.is_partial
        assert result.stats.communication_units == baseline.stats.communication_units
        assert result.stats.message_count == baseline.stats.message_count
        assert result.stats.local_units == baseline.stats.local_units
        assert armored.host.resilience.stats.retries == 0
        assert armored.host.resilience.stats.degraded_answers == 0

    def test_disabled_injector_is_bit_identical(self):
        plain = ServiceEngine(clientele_fragmentation())
        injector = FaultInjector(
            FaultPolicy(default=SiteFaultProfile(drop_probability=1.0)),
            enabled=False,
        )
        chaos = ServiceEngine(
            clientele_fragmentation(),
            resilience=fast_policy(),
            fault_injector=injector,
        )
        baseline = plain.execute(QUERY)
        result = chaos.execute(QUERY)
        assert result.answer_ids == baseline.answer_ids
        assert result.stats.communication_units == baseline.stats.communication_units
        assert result.stats.message_count == baseline.stats.message_count
        assert injector.stats.decisions == 0


class TestRetryAccounting:
    """The satellite: a retried round must not double-count traffic."""

    def test_retried_round_commits_exactly_once(self):
        baseline = ServiceEngine(clientele_fragmentation()).execute(QUERY)
        # S1 goes dark for its first two messages only: the first stage-1
        # round attempt fails, the retry sails through.
        injector = FaultInjector(
            FaultPolicy(
                sites={"S1": SiteFaultProfile(blackout_period=10_000, blackout_length=2)}
            )
        )
        engine = ServiceEngine(
            clientele_fragmentation(),
            resilience=fast_policy(),
            fault_injector=injector,
        )
        result = engine.execute(QUERY)
        assert not result.is_partial
        assert result.answer_ids == baseline.answer_ids
        assert engine.host.resilience.stats.retries >= 1
        assert engine.host.resilience.stats.retries_by_site.get("S1", 0) >= 1
        assert injector.stats.blackout_drops >= 1
        # Exactly-once accounting: the failed attempt's staged messages and
        # site counters rolled back, so the differential is zero.
        assert result.stats.communication_units == baseline.stats.communication_units
        assert result.stats.message_count == baseline.stats.message_count
        assert result.stats.local_units == baseline.stats.local_units

    def test_site_visit_counters_roll_back_with_the_attempt(self):
        baseline = ServiceEngine(clientele_fragmentation()).execute(QUERY)
        injector = FaultInjector(
            FaultPolicy(
                sites={"S2": SiteFaultProfile(blackout_period=10_000, blackout_length=1)}
            )
        )
        engine = ServiceEngine(
            clientele_fragmentation(),
            resilience=fast_policy(),
            fault_injector=injector,
        )
        result = engine.execute(QUERY)
        assert not result.is_partial
        baseline_visits = {
            site_id: site.visits for site_id, site in baseline.stats.sites.items()
        }
        visits = {site_id: site.visits for site_id, site in result.stats.sites.items()}
        assert visits == baseline_visits


class TestDegradation:
    def downed_engine(self, **overrides):
        injector = FaultInjector(
            FaultPolicy(sites={"S1": SiteFaultProfile(drop_probability=1.0)})
        )
        policy = fast_policy(
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0, jitter=0.0),
            breaker_failure_threshold=2,
        )
        engine = ServiceEngine(
            clientele_fragmentation(),
            resilience=policy,
            fault_injector=injector,
            **overrides,
        )
        return engine, injector

    def test_dead_site_degrades_to_a_flagged_subset(self):
        # //name has answers on every site, S1's fragment included — the
        # degraded answer must lose exactly the unreachable ones.
        baseline = ServiceEngine(clientele_fragmentation()).execute("//name")
        engine, _ = self.downed_engine()
        result = engine.execute("//name")
        assert isinstance(result, PartialAnswer)
        assert result.is_partial and result.stats.incomplete
        assert result.stats.missing_sites == ["S1"]
        assert result.stats.missing_fragments  # the site's fragments listed
        # Soundness: every returned answer is in the complete answer.
        assert set(result.answer_ids) <= set(baseline.answer_ids)
        assert len(result.answer_ids) < len(baseline.answer_ids)
        assert engine.host.resilience.stats.degraded_answers == 1
        assert engine.host.metrics.total_degraded == 1

    def test_partial_answers_are_never_cached(self):
        engine, injector = self.downed_engine()
        first = engine.execute("//name")
        assert first.is_partial
        assert len(engine.host.cache) == 0
        # The fault clears; the same query must re-evaluate and come back
        # complete — a cached partial would have been served as truth.
        injector.enabled = False
        time.sleep(0.03)  # past breaker_reset_seconds so S1's probe is let in
        second = engine.execute("//name")
        assert not second.is_partial
        assert set(first.answer_ids) < set(second.answer_ids)
        assert engine.host.metrics.total_evaluated == 2

    def test_breaker_trips_and_recovers(self):
        engine, injector = self.downed_engine()
        engine.execute(QUERY)
        breaker = engine.host.resilience.breaker("S1")
        assert engine.host.resilience.stats.breaker_trips >= 1
        assert breaker.state == "open"
        injector.enabled = False
        time.sleep(0.03)  # past breaker_reset_seconds: probe allowed
        result = engine.execute(QUERY)
        assert not result.is_partial
        assert breaker.state == "closed"
        assert engine.host.resilience.stats.breaker_probes >= 1

    def test_summary_surfaces_resilience_and_fault_lines(self):
        engine, _ = self.downed_engine()
        engine.execute(QUERY)
        text = engine.host.summary()
        assert "resilience:" in text
        assert "faults:" in text
        assert "degradation" in text


class TestShedding:
    """Deadline expiry while queued: shed, release the slot, no latency sample."""

    def run(self, coroutine):
        return asyncio.run(coroutine)

    def test_deadline_expired_in_admission_queue_sheds(self):
        engine = ServiceEngine(
            clientele_fragmentation(),
            max_in_flight=1,
            latency=LatencyModel(base_seconds=0.08),
            coalesce=False,
        )

        async def scenario():
            slow = asyncio.create_task(engine.submit(QUERY))
            await asyncio.sleep(0.02)  # the slow query now holds the permit
            with pytest.raises(DeadlineExceededError) as excinfo:
                await engine.submit("//client/account", deadline=0.02)
            assert excinfo.value.stage == "queued"
            return await slow

        result = self.run(scenario())
        assert not result.is_partial  # the victim of the queue, not the shed
        assert engine.host.metrics.total_shed == 1
        assert engine.host.metrics.shed_by_stage == {"admission": 1}
        assert engine.host.resilience.stats.shed_requests == 1
        # A shed is never a latency sample: only the slow query was recorded.
        assert engine.host.metrics.total_requests == 1
        # The pending slot was released with the shed.
        assert engine.host._pending_evaluations == 0

    def test_shed_request_releases_its_pending_slot(self):
        engine = ServiceEngine(
            clientele_fragmentation(),
            max_in_flight=1,
            max_pending=1,
            latency=LatencyModel(base_seconds=0.08),
            coalesce=False,
        )

        async def scenario():
            slow = asyncio.create_task(engine.submit(QUERY))
            await asyncio.sleep(0.02)
            with pytest.raises(DeadlineExceededError):
                await engine.submit("//client/account", deadline=0.02)
            # The shed's pending slot is free again: a new request queues
            # without tripping AdmissionError, and completes once the slow
            # query drains.
            result = await engine.submit("//client/email")
            return await slow, result

        self.run(scenario())
        assert engine.host.metrics.total_shed == 1
        assert engine.host.metrics.total_requests == 2

    def test_deadline_expired_awaiting_coalesced_leader_sheds(self):
        engine = ServiceEngine(
            clientele_fragmentation(),
            latency=LatencyModel(base_seconds=0.08),
        )

        async def scenario():
            leader = asyncio.create_task(engine.submit(QUERY))
            await asyncio.sleep(0.02)  # leader in flight; next joins it
            with pytest.raises(DeadlineExceededError):
                await engine.submit(QUERY, deadline=0.02)
            return await leader

        result = self.run(scenario())
        assert not result.is_partial  # the leader is unaffected by the shed
        assert engine.host.metrics.shed_by_stage == {"coalesced": 1}
        assert engine.host.metrics.total_requests == 1

    def test_generous_deadline_serves_normally(self):
        engine = ServiceEngine(clientele_fragmentation())
        baseline = engine.execute(QUERY)
        result = engine.execute("//client/account", deadline=5.0)
        assert not result.is_partial
        assert engine.host.metrics.total_shed == 0
        assert baseline.answer_ids  # both served

    def test_default_deadline_from_policy(self):
        engine = ServiceEngine(
            clientele_fragmentation(),
            resilience=fast_policy(default_deadline_seconds=5.0),
        )
        result = engine.execute(QUERY)
        assert not result.is_partial
        assert engine.host.metrics.total_shed == 0


class TestAdmissionPressure:
    def test_overflow_still_raises_admission_error_with_deadlines(self):
        engine = ServiceEngine(
            clientele_fragmentation(),
            max_in_flight=1,
            max_pending=0,
            latency=LatencyModel(base_seconds=0.08),
            coalesce=False,
        )

        async def scenario():
            slow = asyncio.create_task(engine.submit(QUERY))
            await asyncio.sleep(0.02)
            with pytest.raises(AdmissionError):
                await engine.submit("//client/account", deadline=1.0)
            return await slow

        asyncio.run(scenario())
        # An AdmissionError is an explicit rejection, not a shed.
        assert engine.host.metrics.total_shed == 0


class TestChaosSchedule:
    """Three tenants under the standing fault schedule: tenant 0's sites drop
    5% of their messages and its middle site flaps (4 lost in every 8),
    tenant 1's middle site is a 2 ms straggler, tenant 2 is left alone."""

    OPS_PER_DOCUMENT = 24

    def chaos_run(self):
        tenants = build_tenants(3, total_bytes=10_000, seed=11)
        dropping = sorted(set(tenants[0].placement.values()))
        straggling = sorted(set(tenants[1].placement.values()))
        sites = {site: SiteFaultProfile(drop_probability=0.05) for site in dropping}
        sites[dropping[len(dropping) // 2]] = SiteFaultProfile(
            drop_probability=0.05, blackout_period=8, blackout_length=4
        )
        sites[straggling[len(straggling) // 2]] = SiteFaultProfile(
            extra_seconds_per_message=0.002
        )
        host = ServiceHost(
            resilience=ResiliencePolicy(
                retry=RetryPolicy(
                    max_attempts=3, backoff_seconds=0.001, backoff_max_seconds=0.01
                ),
                breaker_failure_threshold=3,
                breaker_reset_seconds=0.05,
            ),
            fault_injector=FaultInjector(FaultPolicy(sites=sites, seed=23)),
        )
        for tenant in tenants:
            host.register(tenant.name, tenant.fragmentation, tenant.placement)
        return tenants, host, MultiDocumentWorkload(tenants, write_ratio=0.1, seed=42)

    def test_complete_reads_exact_degraded_reads_flagged_subsets(self):
        tenants, host, workload = self.chaos_run()
        # The solo engines share each tenant's fragmentation, so they see
        # the writes the host applies.
        solo = {
            tenant.name: DistributedQueryEngine(tenant.fragmentation, placement=tenant.placement)
            for tenant in tenants
        }
        complete = degraded = 0
        for document, op in workload.ops(self.OPS_PER_DOCUMENT):
            if op.is_write:
                host.update(document, op.mutation)
                continue
            served = host.execute(document, op.query, deadline=5.0)
            expected = solo[document].execute(op.query).answer_ids
            if served.is_partial:
                degraded += 1
                assert isinstance(served, PartialAnswer)
                assert set(served.answer_ids) <= set(expected), (document, op.query)
                assert served.stats.missing_sites
            else:
                complete += 1
                assert served.answer_ids == expected, (document, op.query)
        assert complete and degraded  # the schedule must actually bite
        assert host.cache is not None and len(host.cache) > 0
        assert not any(stats.incomplete for stats in host.cache._entries.values())

    def test_concurrent_requests_end_in_a_result_or_a_typed_shed(self):
        tenants, host, workload = self.chaos_run()

        async def drive(document, stream):
            reads = []
            for _ in range(self.OPS_PER_DOCUMENT):
                op = stream.next_op()
                if op.is_write:
                    await host.apply_update(document, op.mutation)
                else:
                    reads.append(asyncio.create_task(host.submit(document, op.query, deadline=5.0)))
            return await asyncio.gather(*reads, return_exceptions=True)

        async def scenario():
            return await asyncio.gather(
                *(drive(tenant.name, workload.stream(tenant.name)) for tenant in tenants)
            )

        outcomes = [outcome for stream in asyncio.run(scenario()) for outcome in stream]
        assert len(outcomes) >= 2 * self.OPS_PER_DOCUMENT
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                assert isinstance(outcome, (DeadlineExceededError, AdmissionError)), repr(outcome)
            else:
                assert outcome.is_partial == bool(outcome.stats.missing_sites)
