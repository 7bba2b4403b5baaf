"""Asynchronous query evaluation for the service layer.

:func:`evaluate_query_async` is the service-side counterpart of the
synchronous :func:`repro.core.pax2.run_pax2`.  PaX2 is the paper's best
algorithm and the only one the service runs, natively asynchronous against
a pinned version snapshot: every per-site round — the combined
qualifier/selection pass of Stage 1, the answer resolution of Stage 2 — is
dispatched as its own task through the shared
:class:`~repro.service.actors.ActorPool`, so the rounds of *different*
in-flight queries interleave on the same sites subject to each site's
parallelism limit, and simulated message latency overlaps across sites and
queries.

Each query run gets its own :class:`~repro.distributed.network.Network`
(sites are lightweight accounting objects), so the per-run
:class:`~repro.distributed.stats.RunStats` are exactly what the synchronous
path would produce; the actor pool carries the cross-query machine-level
counters instead.  The evaluator is document-agnostic: the fragmentation,
placement and batcher all arrive per call, so one shared
:class:`~repro.service.actors.ActorPool` serves every
:class:`~repro.service.server.DocumentSession` of a multi-document host —
rounds of different queries *and* different documents interleave on the
same sites.

With a :class:`~repro.service.resilience.ResilienceContext` attached, every
per-site round becomes a *retryable unit*: its sends are staged in a
transport round buffer and its site counters snapshotted, so a failed
attempt (an injected drop, a blackout, a deadline-capped wire wait) rolls
back without a trace and the bounded retry re-runs the idempotent round
from scratch — accounting is exactly-once whatever happened on the way.  A
site that stays down past the retry budget (or behind an open circuit
breaker) *degrades* the query instead of failing it: stage-1 definite
answers of the reachable fragments are certain regardless of the missing
ones (they depend only on their own fragment plus coordinator-computed
initialization), so the run returns them with ``stats.incomplete`` set and
the missing sites/fragments listed — a sound subset of the complete answer.

PaX3, ParBoX and the naive baseline stay in the synchronous
:class:`~repro.core.engine.DistributedQueryEngine`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.booleans.formula import FormulaLike
from repro.core.combined import FragmentCombinedOutput
from repro.core.kernel.dispatch import combined_pass, fragment_engine
from repro.core.pax2 import _answer_bindings, _output_units, _unify_outputs
from repro.core.common import account_answers, plan_units, stage_site_times, stage_timer
from repro.core.pruning import relevant_fragments, stage1_init_vector
from repro.core.unify import resolve_candidates
from repro.distributed.async_transport import AsyncTransport, LatencyModel, RoundBuffer
from repro.distributed.faults import FaultInjector, TransportError
from repro.distributed.messages import MessageKind
from repro.distributed.network import Network
from repro.distributed.stats import RunStats, StageStats
from repro.fragments.fragment_tree import Fragmentation
from repro.fragments.snapshots import VersionSnapshot
from repro.obs.trace import (
    NEGLIGIBLE_WAIT_SECONDS,
    add_span,
    event,
    set_attributes,
    span as trace_span,
)
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
    use_annotations: bool = True,
    latency: Optional[LatencyModel] = None,
    engine: Optional[str] = None,
    batcher: Optional[FragmentWaveBatcher] = None,
    injector: Optional[FaultInjector] = None,
    resilience: Optional[ResilienceContext] = None,
) -> RunStats:
    """Evaluate one query with PaX2 through the actor pool; return its RunStats.

    ``snapshot`` is a pinned
    :class:`~repro.fragments.snapshots.VersionSnapshot`: every per-fragment
    scan and the answer accounting read its frozen flats instead of the
    live encodings, so the evaluation is exact at the pinned version
    regardless of concurrent writes.  ``engine`` selects the columnar
    per-fragment pass (``kernel`` or ``vector``, see
    :mod:`repro.core.kernel.dispatch`).  ``batcher`` routes the stage-1
    per-fragment combined passes through the service's fused-scan batching
    window, so concurrent queries reaching the same fragment round share one
    walk of its flat arrays; per-query results and accounting are
    unchanged.  ``injector`` makes the wire unreliable; ``resilience`` adds
    the per-round retry/breaker/deadline machinery and graceful degradation
    to partial answers.  Without an injector and without resilience the
    behaviour is bit-identical to the plain path.
    """
    with trace_span("network:setup", stage="compile"):
        network = Network(fragmentation, placement)
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
    return await _run_pax2_async(
        fragmentation, plan, network, transport, actors, snapshot, use_annotations,
        engine, batcher, resilience,
    )


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


async def _run_pax2_async(
    fragmentation: Fragmentation,
    plan: QueryPlan,
    network: Network,
    transport: AsyncTransport,
    actors: ActorPool,
    snapshot: VersionSnapshot,
    use_annotations: bool,
    engine: Optional[str] = None,
    batcher: Optional[FragmentWaveBatcher] = None,
    resilience: Optional[ResilienceContext] = None,
) -> RunStats:
    """PaX2 with each per-site round scheduled as an actor task.

    The algorithmic content — initialization vectors, the combined pass, the
    two unifications, candidate resolution — is identical to
    :func:`repro.core.pax2.run_pax2`; only the orchestration differs.
    """
    coordinator_id = network.coordinator_id
    root_fragment_id = fragmentation.root_fragment_id
    stats = RunStats(algorithm="PaX2", query=plan.source, use_annotations=use_annotations)

    if use_annotations:
        with trace_span("prune:annotations", stage="compile"):
            decision = relevant_fragments(fragmentation, plan)
            evaluated = [fid for fid in fragmentation.fragment_ids() if decision.keeps(fid)]
            stats.fragments_pruned = sorted(decision.pruned)
    else:
        evaluated = fragmentation.fragment_ids()
    stats.fragments_evaluated = list(evaluated)
    evaluated_set = set(evaluated)

    # ------------------------------------------------------------------ stage 1
    stage1 = StageStats(name="combined")
    stage1_sites = network.sites_holding(evaluated)

    async def stage1_round(site_id: str) -> Tuple[str, Dict[str, FragmentCombinedOutput]]:
        site = network.sites[site_id]
        fragment_ids = [fid for fid in network.fragments_on(site_id) if fid in evaluated_set]

        async def attempt(buffer: Optional[RoundBuffer]):
            await transport.send(
                coordinator_id, site_id, MessageKind.EXEC_REQUEST,
                units=plan_units(plan) * len(fragment_ids),
                description="stage 1: combined qualifier + selection pass",
                buffer=buffer,
            )
            site_outputs: Dict[str, FragmentCombinedOutput] = {}
            site_answers: List[int] = []
            site_units = 0
            with site.visit("pax2:combined"):
                # kernel:init / kernel:collect are per-fragment micro-work
                # (microseconds); timing them with a perf_counter pair and
                # recording a span only when they actually cost something
                # keeps the traced hot path allocation-light.
                init_started = time.perf_counter()
                init_vectors: List[Sequence[FormulaLike]] = [
                    stage1_init_vector(
                        fragmentation, plan, fragment_id, use_annotations
                    )
                    for fragment_id in fragment_ids
                ]
                init_ended = time.perf_counter()
                if init_ended - init_started >= NEGLIGIBLE_WAIT_SECONDS:
                    add_span(
                        "kernel:init", "kernel", init_started, init_ended,
                        site=site_id,
                    )
                if batcher is not None:
                    # Fused path: park all of this site's fragment rounds
                    # in the batching window at once — one window per
                    # site, and concurrent queries on the same fragments
                    # share one scan; outputs are bit-identical to
                    # combined_pass.  The batcher records the window and
                    # fused-kernel spans per fragment, so no staged span
                    # wraps the awaits here.
                    outputs = await asyncio.gather(
                        *(
                            batcher.combined(
                                fragment_id, plan, init_vector,
                                is_root_fragment=(fragment_id == root_fragment_id),
                                flat=snapshot.flat(fragment_id),
                            )
                            for fragment_id, init_vector in zip(
                                fragment_ids, init_vectors
                            )
                        )
                    )
                else:
                    with trace_span(
                        "kernel:combined", stage="kernel",
                        site=site_id, fragments=len(fragment_ids),
                        engine=engine or fragment_engine(),
                    ):
                        outputs = [
                            combined_pass(
                                fragmentation,
                                fragment_id,
                                plan,
                                init_vector,
                                is_root_fragment=(fragment_id == root_fragment_id),
                                engine=engine,
                                flat=snapshot.flat(fragment_id),
                            )
                            for fragment_id, init_vector in zip(
                                fragment_ids, init_vectors
                            )
                        ]
                collect_started = time.perf_counter()
                for fragment_id, output in zip(fragment_ids, outputs):
                    site_outputs[fragment_id] = output
                    site.add_operations(output.operations)
                    site_answers.extend(output.answers)
                    if output.candidates:
                        site.storage[fragment_id]["candidates"] = output.candidates
                    site_units += _output_units(plan, output)
                collect_ended = time.perf_counter()
                if collect_ended - collect_started >= NEGLIGIBLE_WAIT_SECONDS:
                    add_span(
                        "kernel:collect", "kernel", collect_started, collect_ended,
                        site=site_id,
                    )
            if site_units:
                await transport.send(
                    site_id, coordinator_id, MessageKind.SELECTION_VECTORS, site_units,
                    description="stage 1: root qualifier vectors and virtual-node vectors",
                    buffer=buffer,
                )
            if site_answers:
                await transport.send(
                    site_id, coordinator_id, MessageKind.ANSWERS, len(site_answers),
                    description="stage 1: definite answers",
                    buffer=buffer,
                )
            return site_outputs

        with trace_span(
            "site:stage1", stage="queue", site=site_id, fragments=len(fragment_ids)
        ):
            async with actors[site_id].slot("pax2:combined"):
                site_outputs = await _resilient_round(
                    resilience, network, transport, site_id, attempt
                )
        return site_id, site_outputs

    round_results = await asyncio.gather(
        *(stage1_round(site_id) for site_id in stage1_sites),
        return_exceptions=resilience is not None,
    )
    rounds: List[Tuple[str, Dict[str, FragmentCombinedOutput]]] = []
    failed_sites: List[str] = []
    for site_id, result in zip(stage1_sites, round_results):
        if isinstance(result, BaseException):
            if not isinstance(result, TransportError):
                raise result
            failed_sites.append(site_id)
            event("degrade:site", site=site_id, stage="combined", reason=result.reason)
        else:
            rounds.append(result)
    rounds.sort(key=lambda r: r[0])
    outputs = {fid: out for _, site_outputs in rounds for fid, out in site_outputs.items()}
    # (fragment id, answer ids it produced): the answers and their accounting
    answered: List[Tuple[str, List[int]]] = [
        (fid, out.answers) for fid, out in outputs.items()
    ]

    def reassemble(**attributes) -> RunStats:
        with trace_span("reassembly", stage="reassembly"):
            stats.answer_ids = sorted({node_id for _, ids in answered for node_id in ids})
            stats.answer_nodes_shipped = account_answers(answered, snapshot.flat)
            network.collect_stats(stats)
            set_attributes(answers=len(stats.answer_ids), **attributes)
        return stats

    if failed_sites:
        # Graceful degradation: some site stayed unreachable past its
        # budget.  The definite stage-1 answers of the reached fragments are
        # certain (each depends only on its own fragment plus the
        # coordinator-computed initialization vector), so return them as a
        # sound partial answer; unification and stage 2 need every
        # fragment's vectors, so candidate resolution is skipped wholesale.
        if resilience is not None:
            resilience.stats.degraded_answers += 1
        missing = {
            fid
            for site_id in failed_sites
            for fid in network.fragments_on(site_id)
            if fid in evaluated_set
        }
        stats.incomplete = True
        stats.missing_sites = sorted(failed_sites)
        stats.missing_fragments = sorted(missing)
        stats.fragments_evaluated = [fid for fid in evaluated if fid not in missing]
        stats.notes = (
            f"partial answer: sites {', '.join(sorted(failed_sites))} unreachable;"
            " stage-1 definite answers over reached fragments only"
        )
        reached_sites = [sid for sid in stage1_sites if sid not in failed_sites]
        stage1.parallel_seconds, stage1.total_seconds = stage_site_times(
            network, reached_sites, "pax2:combined"
        )
        stage1.sites_involved = len(reached_sites)
        stats.stages.append(stage1)
        return reassemble(incomplete=True)

    candidate_sites: Dict[str, List[str]] = {}
    for site_id, site_outputs in rounds:
        for fragment_id, output in site_outputs.items():
            if output.candidates:
                candidate_sites.setdefault(site_id, []).append(fragment_id)

    stage1.parallel_seconds, stage1.total_seconds = stage_site_times(
        network, stage1_sites, "pax2:combined"
    )
    stage1.sites_involved = len(stage1_sites)
    with trace_span("unify", stage="kernel"):
        with stage_timer(stage1):
            environment = _unify_outputs(fragmentation, plan, outputs)
    stats.stages.append(stage1)

    # ------------------------------------------------------------------ stage 2
    if candidate_sites:
        stage2 = StageStats(name="answers")

        async def stage2_round(
            site_id: str, fragment_ids: List[str]
        ) -> List[Tuple[str, List[int]]]:
            site = network.sites[site_id]
            with trace_span(
                "site:stage2", stage="queue", site=site_id, fragments=len(fragment_ids)
            ):
                with trace_span("kernel:bindings", stage="kernel", site=site_id):
                    bindings = {
                        fid: _answer_bindings(fragmentation, plan, fid, environment)
                        for fid in fragment_ids
                    }

                async def attempt(
                    buffer: Optional[RoundBuffer],
                ) -> List[Tuple[str, List[int]]]:
                    await transport.send(
                        coordinator_id, site_id, MessageKind.RESOLVED_BINDINGS,
                        sum(map(len, bindings.values())),
                        description="stage 2: resolved initialization and qualifier values",
                        buffer=buffer,
                    )
                    with site.visit("pax2:answers"):
                        with trace_span("kernel:answers", stage="kernel", site=site_id):
                            resolved = [
                                (fragment_id, resolve_candidates(
                                    site.storage[fragment_id].get("candidates", {}),
                                    bindings[fragment_id],
                                    fragment_id,
                                ))
                                for fragment_id in fragment_ids
                            ]
                    count = sum(len(ids) for _, ids in resolved)
                    if count:
                        await transport.send(
                            site_id, coordinator_id, MessageKind.ANSWERS, count,
                            description="stage 2: resolved candidate answers",
                            buffer=buffer,
                        )
                    return resolved

                async with actors[site_id].slot("pax2:answers"):
                    return await _resilient_round(
                        resilience, network, transport, site_id, attempt
                    )

        candidate_site_ids = sorted(candidate_sites)
        stage2_results = await asyncio.gather(
            *(
                stage2_round(site_id, candidate_sites[site_id])
                for site_id in candidate_site_ids
            ),
            return_exceptions=resilience is not None,
        )
        failed_stage2: List[str] = []
        for site_id, result in zip(candidate_site_ids, stage2_results):
            if isinstance(result, BaseException):
                if not isinstance(result, TransportError):
                    raise result
                failed_stage2.append(site_id)
                event("degrade:site", site=site_id, stage="answers", reason=result.reason)
            else:
                answered.extend(result)
        if failed_stage2:
            # Stage 1 completed everywhere, so the environment was exact and
            # every answer collected so far is certain; only the failed
            # sites' candidate resolutions are missing.
            if resilience is not None:
                resilience.stats.degraded_answers += 1
            stats.incomplete = True
            stats.missing_sites = sorted(failed_stage2)
            stats.missing_fragments = sorted(
                fid for site_id in failed_stage2 for fid in candidate_sites[site_id]
            )
            stats.notes = (
                f"partial answer: sites {', '.join(sorted(failed_stage2))} lost"
                " before candidate resolution; their candidate answers are absent"
            )
        stage2.parallel_seconds, stage2.total_seconds = stage_site_times(
            network, candidate_site_ids, "pax2:answers"
        )
        stage2.sites_involved = len(candidate_site_ids) - len(failed_stage2)
        stats.stages.append(stage2)

    # ------------------------------------------------------------------ results
    return reassemble()
