"""Algorithm PaX2 over a *wave* of queries: shared site rounds, fused scans.

:func:`run_pax2` evaluates one query; under many in-flight queries every
site re-walks the same fragments once per query.  :func:`run_pax2_batch`
evaluates a whole list of queries in shared site rounds instead: stage 1
visits each participating site once for the wave, and inside that visit each
fragment is scanned **once** by the fused batch kernel
(:func:`repro.core.kernel.batch.evaluate_fragment_combined_batch`), with
exact-duplicate plans (same normalized fingerprint) deduplicated to a single
kernel slot before fusion.

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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.combined import FragmentCombinedOutput
from repro.core.common import (
    QueryInput,
    account_answers,
    ensure_plan,
    plan_units,
    stage_site_times,
    stage_timer,
)
from repro.core.kernel.dispatch import combined_pass_batch, prewarm_fragments
from repro.core.pax2 import _output_units, _retrieve_answers, _unify_outputs, pax2_schedule
from repro.distributed.messages import MessageKind
from repro.distributed.network import Network, SiteIndex
from repro.distributed.placement import one_site_per_fragment
from repro.distributed.stats import RunStats, StageStats
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
) -> List[RunStats]:
    """Evaluate a wave of queries with PaX2, one fused scan per fragment.

    Returns one :class:`RunStats` per query, index-aligned with *queries*;
    each is identical (answers and traffic accounting) to what
    :func:`repro.core.pax2.run_pax2` would return for that query alone.
    ``engine`` selects the per-fragment pass implementation; the fused scan
    requires the kernel engine, the reference engine evaluates the wave
    plan-by-plan (see :func:`repro.core.kernel.dispatch.combined_pass_batch`).
    """
    plans = [ensure_plan(query) for query in queries]
    n_queries = len(plans)
    if n_queries == 0:
        return []
    slot_of, slot_plans = dedup_slots(plans)

    if placement is None:
        placement = one_site_per_fragment(fragmentation)
    sites = SiteIndex(fragmentation, placement)
    networks = [Network(fragmentation, placement, sites) for _ in plans]
    coordinator_id = networks[0].coordinator_id
    root_fragment_id = fragmentation.root_fragment_id

    stats_list = [
        RunStats(algorithm="PaX2", query=plan.source, use_annotations=use_annotations)
        for plan in plans
    ]

    # ---------------------------------------------------------------- pruning
    schedules = [
        pax2_schedule(fragmentation, plan, use_annotations, sites)
        for plan in slot_plans
    ]
    slot_evaluated = [schedule.evaluated for schedule in schedules]
    slot_eval_set = [set(evaluated) for evaluated in slot_evaluated]
    for index in range(n_queries):
        schedule = schedules[slot_of[index]]
        stats_list[index].fragments_pruned = list(schedule.pruned)
        stats_list[index].fragments_evaluated = list(schedule.evaluated)

    # per query: (fragment id, answer ids it produced): the answers and their accounting
    answered: List[List[Tuple[str, List[int]]]] = [[] for _ in plans]
    prewarm_fragments(
        fragmentation,
        sorted({fid for evaluated in slot_evaluated for fid in evaluated}),
        engine=engine,
    )

    # ---------------------------------------------------------------- stage 1
    # One wave round per site: every participating query records its own
    # EXEC_REQUEST / visit / result messages, but the per-fragment scans run
    # once per distinct plan slot.
    per_query_sites = [
        networks[index].sites_holding(slot_evaluated[slot_of[index]])
        for index in range(n_queries)
    ]
    per_query_site_sets = [set(sites) for sites in per_query_sites]
    wave_sites = sorted({site_id for sites in per_query_sites for site_id in sites})
    slot_outputs: List[Dict[str, FragmentCombinedOutput]] = [{} for _ in slot_plans]
    candidate_sites: List[Dict[str, List[str]]] = [{} for _ in plans]

    for site_id in wave_sites:
        participating = [
            index for index in range(n_queries) if site_id in per_query_site_sets[index]
        ]
        fragment_lists: Dict[int, List[str]] = {}
        for index in participating:
            slot = slot_of[index]
            fragment_ids = [
                fid
                for fid in networks[index].fragments_on(site_id)
                if fid in slot_eval_set[slot]
            ]
            fragment_lists[index] = fragment_ids
            networks[index].send(
                coordinator_id, site_id, MessageKind.EXEC_REQUEST,
                units=plan_units(plans[index]) * len(fragment_ids),
                description="stage 1: combined qualifier + selection pass",
            )
        site_slots: List[int] = []
        for index in participating:
            slot = slot_of[index]
            if slot not in site_slots:
                site_slots.append(slot)
        with ExitStack() as stack:
            for index in participating:
                stack.enter_context(networks[index].sites[site_id].visit("pax2:combined"))
            for fragment_id in networks[participating[0]].fragments_on(site_id):
                wave_slots = [
                    slot for slot in site_slots if fragment_id in slot_eval_set[slot]
                ]
                if not wave_slots:
                    continue
                outputs = combined_pass_batch(
                    fragmentation,
                    fragment_id,
                    [slot_plans[slot] for slot in wave_slots],
                    [schedules[slot].init_vectors[fragment_id] for slot in wave_slots],
                    is_root_fragment=(fragment_id == root_fragment_id),
                    engine=engine,
                )
                for slot, output in zip(wave_slots, outputs):
                    slot_outputs[slot][fragment_id] = output
            for index in participating:
                site = networks[index].sites[site_id]
                outputs = slot_outputs[slot_of[index]]
                for fragment_id in fragment_lists[index]:
                    output = outputs[fragment_id]
                    site.add_operations(output.operations)
                    if output.candidates:
                        site.storage[fragment_id]["candidates"] = output.candidates
                        candidate_sites[index].setdefault(site_id, []).append(fragment_id)
        for index in participating:
            outputs = slot_outputs[slot_of[index]]
            site_answers: List[int] = []
            site_units = 0
            for fragment_id in fragment_lists[index]:
                output = outputs[fragment_id]
                site_answers.extend(output.answers)
                answered[index].append((fragment_id, output.answers))
                site_units += _output_units(plans[index], output)
            if site_units:
                networks[index].send(
                    site_id, coordinator_id, MessageKind.SELECTION_VECTORS, site_units,
                    description="stage 1: root qualifier vectors and virtual-node vectors",
                )
            if site_answers:
                networks[index].send(
                    site_id, coordinator_id, MessageKind.ANSWERS, len(site_answers),
                    description="stage 1: definite answers",
                )

    # ------------------------------------------- coordinator unification
    # Unification and candidate resolution are coordinator-bound
    # bookkeeping, so they stay per query (the fused work — the scans — is
    # behind us).
    for index in range(n_queries):
        stage1 = StageStats(name="combined")
        stage1.parallel_seconds, stage1.total_seconds = stage_site_times(
            networks[index], per_query_sites[index], "pax2:combined"
        )
        stage1.sites_involved = len(per_query_sites[index])
        with stage_timer(stage1):
            environment = _unify_outputs(
                fragmentation, plans[index], slot_outputs[slot_of[index]]
            )
        stats_list[index].stages.append(stage1)

        # ------------------------------------------------------------ stage 2
        if candidate_sites[index]:
            stats_list[index].stages.append(_retrieve_answers(
                fragmentation, plans[index], networks[index], environment,
                candidate_sites[index], answered[index],
            ))

    # ---------------------------------------------------------------- results
    for index in range(n_queries):
        stats = stats_list[index]
        stats.answer_ids = sorted({node_id for _, ids in answered[index] for node_id in ids})
        stats.answer_nodes_shipped = account_answers(answered[index], fragmentation.flat)
        networks[index].collect_stats(stats)
    return stats_list
