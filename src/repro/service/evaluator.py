"""The service's async driver of the one PaX2 coordinator.

PaX2 is the only algorithm the service runs, and it is written once, as
:func:`repro.core.pax2.pax2_coordinator` (pruning, init vectors, both
unifications, candidate resolution, degradation, answer accounting).
:func:`evaluate_query_async` only decides how each of its site rounds
reaches its site: as its own task through the shared
:class:`~repro.service.actors.ActorPool`, so the rounds of *different*
in-flight queries — and documents — interleave on the same sites subject
to each site's parallelism limit; over an
:class:`~repro.distributed.async_transport.AsyncTransport`, so simulated
message latency overlaps across sites and queries; with stage-1 passes
parked in the session's :class:`~repro.service.actors.FragmentWaveBatcher`
when it has one; and reading the frozen flats of a pinned
:class:`~repro.fragments.snapshots.VersionSnapshot`.

Each query run gets its own :class:`~repro.distributed.network.Network`
(sites are lightweight accounting objects), so the per-run
:class:`~repro.distributed.stats.RunStats` are exactly what the sync driver
would produce; the actor pool carries the cross-query machine-level
counters instead.

With a :class:`~repro.service.resilience.ResilienceContext` attached, every
site round becomes a *retryable unit* (:func:`_resilient_round`): its sends
are staged in a transport round buffer and its site counters snapshotted,
so a failed attempt (an injected drop, a blackout, a deadline-capped wire
wait) rolls back without a trace and the bounded retry re-runs the
idempotent round from scratch — accounting is exactly-once whatever
happened on the way.  A round that stays lost past the retry budget (or
behind an open circuit breaker) is reported to the coordinator as its
:class:`~repro.distributed.faults.TransportError`, and the coordinator
degrades the query to a sound partial answer instead of failing it.
"""

from __future__ import annotations

import asyncio
import time
from typing import Mapping, Optional

from repro.core.kernel.dispatch import FragmentEngine, resolve_engine
from repro.core.pax2 import COMBINED, pax2_coordinator
from repro.core.pruning import Schedule
from repro.core.rounds import Coordinator, SiteRound, record_site_times
from repro.distributed.async_transport import AsyncTransport, LatencyModel, RoundBuffer
from repro.distributed.faults import FaultInjector, TransportError
from repro.distributed.network import Network
from repro.distributed.stats import RunStats
from repro.fragments.fragment_tree import Fragmentation
from repro.fragments.snapshots import VersionSnapshot
from repro.obs.trace import add_span, event, span as trace_span
from repro.service.actors import ActorPool, FragmentWaveBatcher
from repro.service.resilience import ResilienceContext
from repro.xpath.plan import QueryPlan

__all__ = ["evaluate_query_async"]


async def evaluate_query_async(
    fragmentation: Fragmentation,
    placement: Mapping[str, str],
    plan: QueryPlan,
    actors: ActorPool,
    snapshot: VersionSnapshot,
    schedule: Schedule,
    latency: Optional[LatencyModel] = None,
    engine: Optional[FragmentEngine] = None,
    batcher: Optional[FragmentWaveBatcher] = None,
    injector: Optional[FaultInjector] = None,
    resilience: Optional[ResilienceContext] = None,
) -> RunStats:
    """Evaluate one query with PaX2 through the actor pool; return its RunStats.

    ``snapshot`` is the pinned version every pass and the answer accounting
    read, so the run is exact at that version regardless of concurrent
    writes.  ``schedule`` is the run's :class:`~repro.core.pruning.Schedule`,
    prepared for this fragment tree (its ``use_annotations`` labels the
    stats).  ``engine`` is the passes' columnar tier (``None``: the process
    default).  ``batcher`` routes stage-1 passes through the batcher,
    which runs identical concurrent passes once (outputs and accounting
    unchanged).  ``injector`` makes
    the wire unreliable; ``resilience`` adds the per-round
    retry/breaker/deadline machinery and degradation to partial answers —
    without either, a lost round fails the query.
    """
    engine = resolve_engine(engine)
    with trace_span("network:setup", stage="compile"):
        network = Network(fragmentation, placement, schedule.sites)
    transport = AsyncTransport(
        network,
        latency,
        injector=injector,
        deadline=resilience.deadline if resilience is not None else None,
        hedge_after_seconds=(
            resilience.retry.hedge_after_seconds if resilience is not None else None
        ),
        hedge_counter=resilience.stats if resilience is not None else None,
    )
    coordinator_id = network.coordinator_id

    async def run_site_round(site_round: SiteRound, number: int):
        site_id, fragment_ids, run_pass = (
            site_round.site_id, site_round.fragment_ids, site_round.run_pass
        )
        site = network.sites[site_id]
        batched = batcher is not None and site_round.stage == COMBINED

        async def attempt(buffer: Optional[RoundBuffer]):
            for kind, units, description in site_round.requests:
                await transport.send(
                    coordinator_id, site_id, kind, units, description, buffer=buffer
                )
            with site.visit(site_round.stage):
                if batched:
                    # The batcher records each pass's window and kernel
                    # spans itself.
                    outputs = await asyncio.gather(*(
                        batcher.combined(fid, *run_pass.scan(fid)) for fid in fragment_ids
                    ))
                with trace_span(
                    "kernel:" + site_round.stage.partition(":")[2], stage="kernel",
                    site=site_id, fragments=len(fragment_ids), engine=engine.name,
                ):
                    if not batched:
                        outputs = [run_pass(site, fid) for fid in fragment_ids]
                    replies = site_round.collect(site, fragment_ids, outputs)
            for kind, units, description in replies:
                await transport.send(
                    site_id, coordinator_id, kind, units, description, buffer=buffer
                )
            return outputs

        with trace_span(
            f"site:stage{number}", stage="queue", site=site_id, fragments=len(fragment_ids)
        ):
            async with actors[site_id].slot(site_round.stage):
                return await _resilient_round(
                    resilience, network, transport, site_id, attempt
                )

    coordinator = Coordinator(
        pax2_coordinator(fragmentation, plan, schedule, snapshot.flat, engine)
    )
    stage, number = coordinator.advance(), 1
    while stage is not None:
        results = await asyncio.gather(
            *(run_site_round(site_round, number) for site_round in stage.rounds),
            return_exceptions=resilience is not None,
        )
        for result in results:
            if isinstance(result, BaseException) and not isinstance(result, TransportError):
                raise result
        record_site_times(network, stage)
        stage, number = coordinator.advance(results), number + 1
    stats = network.collect_stats(coordinator.stats)
    if stats.incomplete and resilience is not None:
        resilience.stats.degraded_answers += 1
    return stats


async def _resilient_round(
    resilience: Optional[ResilienceContext],
    network: Network,
    transport: AsyncTransport,
    site_id: str,
    attempt_body,
):
    """Run one idempotent site round, retried and exactly-once-accounted.

    *attempt_body* is an async callable taking a
    :class:`~repro.distributed.async_transport.RoundBuffer` (or ``None``
    when no resilience is configured — the direct-accounting fast path) and
    performing every send of the round through it.  Each attempt runs with
    fresh staged accounting and a snapshot of the site's counters; only a
    successful attempt commits either.  Failures surface as
    :class:`TransportError` — retried with exponential backoff + jitter up
    to the policy's budget, except deadline failures (no budget left to
    retry in) and open-breaker rejections (the site is known down), which
    fail the round immediately so the caller can degrade.
    """
    if resilience is None:
        return await attempt_body(None)
    site = network.sites[site_id]
    retry = resilience.retry
    breaker = resilience.breaker(site_id)
    attempt = 0
    while True:
        attempt += 1
        if resilience.deadline_expired():
            resilience.stats.deadline_failures += 1
            raise TransportError(site_id, site_id, "round", site_id, "deadline")
        was_open = breaker.state == "open"
        if not breaker.allow():
            resilience.stats.breaker_rejections += 1
            event("breaker:rejected", site=site_id)
            raise TransportError(site_id, site_id, "round", site_id, "breaker-open")
        if was_open and breaker.state == "half_open":
            resilience.stats.breaker_probes += 1
            event("breaker:probe", site=site_id)
        buffer = transport.begin_round()
        snapshot = site.snapshot_counters()
        try:
            result = await attempt_body(buffer)
        except TransportError as error:
            site.restore_counters(snapshot)
            if breaker.record_failure():
                resilience.stats.breaker_trips += 1
                event("breaker:open", site=site_id, reason=error.reason)
            if error.reason == "deadline":
                resilience.stats.deadline_failures += 1
                raise
            if attempt >= retry.max_attempts:
                raise
            resilience.stats.note_retry(site_id)
            event("retry", site=site_id, attempt=attempt, reason=error.reason)
            backoff = retry.backoff_for(attempt, resilience.rng)
            remaining = resilience.deadline_remaining()
            if remaining is not None:
                backoff = min(backoff, max(0.0, remaining))
            if backoff > 0.0:
                backoff_started = time.perf_counter()
                await asyncio.sleep(backoff)
                add_span(
                    "retry:backoff", "retry", backoff_started, time.perf_counter(),
                    site=site_id, attempt=attempt,
                )
            continue
        except BaseException:
            # Cancellation or an unexpected error: this attempt's accounting
            # must not outlive it.
            site.restore_counters(snapshot)
            raise
        transport.commit_round(buffer)
        breaker.record_success()
        return result
