"""Algorithm PaX2 over a *wave* of queries: shared site rounds, fused scans.

:func:`run_pax2` evaluates one query; under many in-flight queries every
site re-walks the same fragments once per query.  :func:`run_pax2_batch`
is the *wave driver* of the one PaX2 coordinator
(:func:`repro.core.pax2.pax2_coordinator`): it steps one coordinator per
query in lockstep, and runs their stage-1 rounds together — each site is
visited once per query in one shared wave round, and inside it each
fragment is scanned **once** by the fused batch kernel
(:func:`repro.core.kernel.dispatch.combined_pass_batch`), with exact-duplicate
plans (same normalized fingerprint) deduplicated to a single kernel slot
before fusion.  Stage 2 goes through the sync round path of
:func:`repro.core.rounds.drive`.

Accounting stays strictly per query: every query gets its own simulated
:class:`~repro.distributed.network.Network`, records exactly the messages,
units, visits and operation counts its solo :func:`run_pax2` run would
record, and returns its own :class:`~repro.distributed.stats.RunStats` — the
differential tests pin the batch path, the single-query kernel and the
object-tree reference to identical answers *and* identical traffic
accounting.  What the wave shares is the physical work: one walk of each
fragment's flat arrays per round, regardless of how many queries are in
flight.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.common import QueryInput, ensure_plan
from repro.core.kernel.dispatch import combined_pass_batch, prewarm_fragments
from repro.core.pax2 import COMBINED, CombinedPass, pax2_coordinator, pax2_schedule
from repro.core.rounds import Coordinator, SiteRound, Stage, drive, record_site_times
from repro.distributed.network import Network, SiteIndex
from repro.distributed.placement import one_site_per_fragment
from repro.distributed.stats import RunStats
from repro.fragments.fragment_tree import Fragmentation
from repro.xpath.plan import QueryPlan

__all__ = ["run_pax2_batch", "dedup_slots"]


def dedup_slots(plans: Sequence[QueryPlan]) -> tuple[List[int], List[QueryPlan]]:
    """Collapse a wave to its distinct plans.

    Returns ``(slot_of, slot_plans)``: ``slot_of[i]`` is the kernel slot of
    query ``i``, and ``slot_plans`` the representative plan per slot, in
    first-appearance order.  Two queries share a slot exactly when their
    normalized fingerprints agree, i.e. when they are the same query no
    matter how they were spelled.
    """
    slot_of: List[int] = []
    slot_plans: List[QueryPlan] = []
    by_fingerprint: Dict[str, int] = {}
    for plan in plans:
        key = plan.fingerprint
        slot = by_fingerprint.get(key)
        if slot is None:
            slot = len(slot_plans)
            by_fingerprint[key] = slot
            slot_plans.append(plan)
        slot_of.append(slot)
    return slot_of, slot_plans


def run_pax2_batch(
    fragmentation: Fragmentation,
    queries: Sequence[QueryInput],
    placement: Optional[Mapping[str, str]] = None,
    use_annotations: bool = False,
    engine: Optional[str] = None,
    sites: Optional[SiteIndex] = None,
) -> List[RunStats]:
    """Evaluate a wave of queries with PaX2, one fused scan per fragment.

    Returns one :class:`RunStats` per query, index-aligned with *queries*;
    each is identical (answers and traffic accounting) to what
    :func:`repro.core.pax2.run_pax2` would return for that query alone.
    ``engine`` selects the per-fragment pass implementation; the fused scan
    requires a columnar engine, the reference engine evaluates the wave
    plan-by-plan (see :func:`repro.core.kernel.dispatch.combined_pass_batch`).
    ``sites`` is the caller's :class:`SiteIndex` of the placement, reused
    while it is current.
    """
    plans = [ensure_plan(query) for query in queries]
    if not plans:
        return []
    slot_of, slot_plans = dedup_slots(plans)
    if placement is None:
        placement = one_site_per_fragment(fragmentation)
    if sites is None:
        sites = SiteIndex(fragmentation, placement)
    else:
        sites = sites.refreshed(fragmentation, placement)
    schedules = [
        pax2_schedule(fragmentation, plan, use_annotations, sites) for plan in slot_plans
    ]
    prewarm_fragments(
        fragmentation,
        sorted({fid for schedule in schedules for fid in schedule.evaluated}),
        engine=engine,
    )
    networks = [Network(fragmentation, placement, sites) for _ in plans]
    coordinators = [
        Coordinator(pax2_coordinator(fragmentation, plan, schedules[slot], engine=engine))
        for plan, slot in zip(plans, slot_of)
    ]
    stages = [coordinator.advance() for coordinator in coordinators]
    results = _fused_stage(fragmentation, networks, stages, slot_of, engine)
    wave: List[RunStats] = []
    for coordinator, network, stage, stage_results in zip(
        coordinators, networks, stages, results
    ):
        record_site_times(network, stage)
        wave.append(drive(coordinator, network, coordinator.advance(stage_results)))
    return wave


def _fused_stage(
    fragmentation: Fragmentation,
    networks: List[Network],
    stages: List[Stage],
    slot_of: List[int],
    engine: Optional[str],
) -> List[List[Any]]:
    """Every query's stage-1 rounds, one wave round per site: each query
    records its own messages and visit, while each fragment is scanned once
    for the distinct slots that reach it."""
    results: List[List[Any]] = [[None] * len(stage.rounds) for stage in stages]
    by_site: Dict[str, List[Tuple[int, int, SiteRound]]] = {}
    for index, stage in enumerate(stages):
        for position, site_round in enumerate(stage.rounds):
            by_site.setdefault(site_round.site_id, []).append((index, position, site_round))
    coordinator_id = networks[0].coordinator_id
    for site_id, members in sorted(by_site.items()):
        fused: Dict[str, Dict[int, CombinedPass]] = {}
        for index, _, site_round in members:
            for kind, units, description in site_round.requests:
                networks[index].send(coordinator_id, site_id, kind, units, description)
            for fid in site_round.fragment_ids:
                fused.setdefault(fid, {}).setdefault(slot_of[index], site_round.run_pass)
        replies = []
        with ExitStack() as stack:
            visited = [
                stack.enter_context(networks[index].sites[site_id].visit(COMBINED))
                for index, _, _ in members
            ]
            outputs: Dict[Tuple[int, str], Any] = {}
            for fragment_id, passes in fused.items():
                scans = [run.scan(fragment_id) for run in passes.values()]
                scans = combined_pass_batch(
                    fragmentation, fragment_id,
                    [scan[0] for scan in scans], [scan[1] for scan in scans],
                    is_root_fragment=scans[0][2], engine=engine,
                )
                outputs.update(zip([(slot, fragment_id) for slot in passes], scans))
            for site, (index, position, site_round) in zip(visited, members):
                site_outputs = [outputs[slot_of[index], fid] for fid in site_round.fragment_ids]
                results[index][position] = site_outputs
                replies.append(site_round.collect(site, site_round.fragment_ids, site_outputs))
        for (index, _, _), messages in zip(members, replies):
            for kind, units, description in messages:
                networks[index].send(site_id, coordinator_id, kind, units, description)
    return results
