"""Algorithm PaX2 (Section 4 of the paper).

PaX2 folds the qualifier stage and the selection stage of PaX3 into one
combined pre/post-order pass per fragment, so every participating site is
visited at most twice:

1. **Combined pass** — every site runs the pre/post-order traversal of
   :func:`repro.core.combined.evaluate_fragment_combined` over each of its
   fragments; the coordinator unifies qualifier vectors bottom-up and
   selection vectors top-down over the fragment tree.
2. **Answer retrieval** — sites holding candidates receive the resolved
   bindings (their own initialization variables plus the qualifier values of
   their sub-fragments), decide the candidates and ship the answers.

With XPath-annotations the combined pass is only executed over fragments
that can matter for the query (the pruner is conservative with respect to
both answers and qualifier scopes), and for qualifier-free queries the
initialization is concrete so the second visit disappears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.booleans.env import Environment
from repro.booleans.formula import FormulaLike, formula_size
from repro.core.combined import FragmentCombinedOutput
from repro.core.kernel.dispatch import combined_pass, prewarm_fragments
from repro.core.common import (
    QueryInput,
    account_answers,
    build_network,
    ensure_plan,
    plan_units,
    stage_site_times,
    stage_timer,
)
from repro.core.pruning import relevant_fragments, stage1_init_vector
from repro.core.unify import (
    resolve_candidates,
    resolved_child_qualifier_bindings,
    resolved_init_bindings,
    unify_qualifier_vectors,
    unify_selection_vectors,
)
from repro.distributed.messages import MessageKind
from repro.distributed.network import Network, SiteIndex
from repro.distributed.stats import RunStats, StageStats
from repro.fragments.fragment_tree import Fragmentation
from repro.xpath.plan import QueryPlan

__all__ = ["Pax2Schedule", "pax2_schedule", "run_pax2"]


@dataclass(frozen=True, eq=False)
class Pax2Schedule:
    """The request-invariant half of a PaX2 run: what the coordinator
    decides from the plan and the fragment tree before any site works.

    It reads the plan, the site index and the label paths down to the
    fragment roots (paper Section 5), never fragment content, so it holds
    across every write through :mod:`repro.updates` and changes only with
    the fragment tree — when *sites* stops being current (see
    :attr:`~repro.fragments.fragment_tree.Fragmentation.structure_version`).
    """

    #: the site index the stage-1 sites were read from
    sites: SiteIndex
    #: fragments stage 1 evaluates, in fragment-id order
    evaluated: Tuple[str, ...]
    #: fragments the annotations pruned, sorted (empty without annotations)
    pruned: Tuple[str, ...]
    #: (site id, the evaluated fragments it holds), by site id
    stage1: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: fragment id -> the initialization vector its stage-1 pass starts from
    init_vectors: Mapping[str, Tuple[FormulaLike, ...]]


def pax2_schedule(
    fragmentation: Fragmentation,
    plan: QueryPlan,
    use_annotations: bool,
    sites: SiteIndex,
) -> Pax2Schedule:
    """Prune, group the evaluated fragments by site and build their init
    vectors — the one schedule builder of the sync and the service runs."""
    if use_annotations:
        decision = relevant_fragments(fragmentation, plan)
        evaluated = tuple(fid for fid in fragmentation.fragment_ids() if decision.keeps(fid))
        pruned = tuple(sorted(decision.pruned))
    else:
        evaluated = tuple(fragmentation.fragment_ids())
        pruned = ()
    kept = set(evaluated)
    stage1 = []
    for site_id in sorted({sites.placement[fid] for fid in evaluated}):
        held = sites.fragments_on[site_id]
        stage1.append((site_id, tuple(fid for fid in held if fid in kept)))
    # Qualifier-free annotated vectors repeat across fragments: share them.
    distinct: Dict[Tuple[FormulaLike, ...], Tuple[FormulaLike, ...]] = {}
    init_vectors = {}
    for fid in evaluated:
        vector = tuple(stage1_init_vector(fragmentation, plan, fid, use_annotations))
        init_vectors[fid] = distinct.setdefault(vector, vector)
    return Pax2Schedule(sites, evaluated, pruned, tuple(stage1), init_vectors)


def _output_units(plan: QueryPlan, output: FragmentCombinedOutput) -> int:
    # formula_size reads the memoized size of the (hash-consed) entries, so
    # re-accounting the same residual vector in a later stage is O(1) per item.
    units = 0
    for item_id in plan.head_item_ids:
        units += formula_size(output.root_head[item_id])
    for item_id in plan.desc_item_ids:
        units += formula_size(output.root_desc[item_id])
    for vector in output.virtual_parent_vectors.values():
        units += sum(formula_size(entry) for entry in vector)
    return units


def _unify_outputs(
    fragmentation: Fragmentation,
    plan: QueryPlan,
    outputs: Mapping[str, FragmentCombinedOutput],
) -> Environment:
    """``evalFT`` over the combined outputs: qualifier variables bottom-up,
    then selection variables top-down."""
    environment = Environment()
    if plan.has_qualifiers:
        environment = unify_qualifier_vectors(
            fragmentation,
            plan,
            {fid: (out.root_head, out.root_desc) for fid, out in outputs.items()},
            environment,
        )
    return unify_selection_vectors(
        fragmentation,
        plan,
        {fid: out.virtual_parent_vectors for fid, out in outputs.items()},
        environment,
    )


def _answer_bindings(
    fragmentation: Fragmentation, plan: QueryPlan, fragment_id: str, environment: Environment
) -> Dict[str, bool]:
    """What stage 2 ships one fragment: its resolved initialization values
    plus its sub-fragments' qualifier values."""
    bindings = resolved_init_bindings(plan, fragment_id, environment)
    if plan.has_qualifiers:
        bindings.update(
            resolved_child_qualifier_bindings(fragmentation, plan, fragment_id, environment)
        )
    return bindings


def _retrieve_answers(
    fragmentation: Fragmentation,
    plan: QueryPlan,
    network: Network,
    environment: Environment,
    candidate_sites: Mapping[str, List[str]],
    answered: List[Tuple[str, List[int]]],
) -> StageStats:
    """Stage 2: every candidate site gets its bindings, decides its
    candidates and ships the answers, appended per fragment to *answered*."""
    stage2 = StageStats(name="answers")
    coordinator_id = network.coordinator_id
    for site_id, fragment_ids in sorted(candidate_sites.items()):
        site = network.sites[site_id]
        bindings = {
            fid: _answer_bindings(fragmentation, plan, fid, environment) for fid in fragment_ids
        }
        network.send(
            coordinator_id, site_id, MessageKind.RESOLVED_BINDINGS,
            sum(map(len, bindings.values())),
            description="stage 2: resolved initialization and qualifier values",
        )
        found = 0
        with site.visit("pax2:answers"):
            for fragment_id in fragment_ids:
                resolved = resolve_candidates(
                    site.storage[fragment_id].get("candidates", {}),
                    bindings[fragment_id],
                    fragment_id,
                )
                answered.append((fragment_id, resolved))
                found += len(resolved)
        if found:
            network.send(
                site_id, coordinator_id, MessageKind.ANSWERS, found,
                description="stage 2: resolved candidate answers",
            )
    candidate_site_ids = sorted(candidate_sites)
    stage2.parallel_seconds, stage2.total_seconds = stage_site_times(
        network, candidate_site_ids, "pax2:answers"
    )
    stage2.sites_involved = len(candidate_site_ids)
    return stage2


def run_pax2(
    fragmentation: Fragmentation,
    query: QueryInput,
    placement: Optional[Mapping[str, str]] = None,
    use_annotations: bool = False,
    network: Optional[Network] = None,
    engine: Optional[str] = None,
) -> RunStats:
    """Evaluate *query* over a fragmented tree with algorithm PaX2.

    ``engine`` selects the per-fragment pass implementation (``"kernel"``
    columnar arrays, ``"reference"`` object-tree traversal; ``None`` uses
    the process default — see :mod:`repro.core.kernel.dispatch`).
    """
    plan = ensure_plan(query)
    if network is None:
        network = build_network(fragmentation, placement)
    coordinator_id = network.coordinator_id
    root_fragment_id = fragmentation.root_fragment_id

    stats = RunStats(algorithm="PaX2", query=plan.source, use_annotations=use_annotations)
    schedule = pax2_schedule(fragmentation, plan, use_annotations, network.index)
    stats.fragments_evaluated = list(schedule.evaluated)
    stats.fragments_pruned = list(schedule.pruned)

    # (fragment id, answer ids it produced): the answers and their accounting
    answered: List[Tuple[str, List[int]]] = []
    prewarm_fragments(fragmentation, schedule.evaluated, engine=engine)

    # ------------------------------------------------------------------ stage 1
    stage1 = StageStats(name="combined")
    stage1_sites = [site_id for site_id, _ in schedule.stage1]
    outputs: Dict[str, FragmentCombinedOutput] = {}
    candidate_sites: Dict[str, List[str]] = {}

    for site_id, fragment_ids in schedule.stage1:
        site = network.sites[site_id]
        network.send(
            coordinator_id, site_id, MessageKind.EXEC_REQUEST,
            units=plan_units(plan) * len(fragment_ids),
            description="stage 1: combined qualifier + selection pass",
        )
        site_answers: List[int] = []
        site_units = 0
        with site.visit("pax2:combined"):
            for fragment_id in fragment_ids:
                output = combined_pass(
                    fragmentation,
                    fragment_id,
                    plan,
                    schedule.init_vectors[fragment_id],
                    is_root_fragment=(fragment_id == root_fragment_id),
                    engine=engine,
                )
                outputs[fragment_id] = output
                site.add_operations(output.operations)
                site_answers.extend(output.answers)
                answered.append((fragment_id, output.answers))
                if output.candidates:
                    site.storage[fragment_id]["candidates"] = output.candidates
                    candidate_sites.setdefault(site_id, []).append(fragment_id)
                site_units += _output_units(plan, output)
        if site_units:
            network.send(
                site_id, coordinator_id, MessageKind.SELECTION_VECTORS, site_units,
                description="stage 1: root qualifier vectors and virtual-node vectors",
            )
        if site_answers:
            network.send(
                site_id, coordinator_id, MessageKind.ANSWERS, len(site_answers),
                description="stage 1: definite answers",
            )

    stage1.parallel_seconds, stage1.total_seconds = stage_site_times(
        network, stage1_sites, "pax2:combined"
    )
    stage1.sites_involved = len(stage1_sites)
    with stage_timer(stage1):
        environment = _unify_outputs(fragmentation, plan, outputs)
    stats.stages.append(stage1)

    # ------------------------------------------------------------------ stage 2
    if candidate_sites:
        stats.stages.append(_retrieve_answers(
            fragmentation, plan, network, environment, candidate_sites, answered
        ))

    # ------------------------------------------------------------------ results
    stats.answer_ids = sorted({node_id for _, ids in answered for node_id in ids})
    stats.answer_nodes_shipped = account_answers(answered, fragmentation.flat)
    network.collect_stats(stats)
    return stats
