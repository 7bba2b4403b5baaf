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

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
from repro.distributed.network import Network
from repro.distributed.stats import RunStats, StageStats
from repro.fragments.fragment_tree import Fragmentation
from repro.xpath.plan import QueryPlan

__all__ = ["run_pax2"]


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

    if use_annotations:
        decision = relevant_fragments(fragmentation, plan)
        evaluated = [fid for fid in fragmentation.fragment_ids() if decision.keeps(fid)]
        stats.fragments_pruned = sorted(decision.pruned)
    else:
        evaluated = fragmentation.fragment_ids()
    stats.fragments_evaluated = list(evaluated)
    evaluated_set = set(evaluated)

    # (fragment id, answer ids it produced): the answers and their accounting
    answered: List[Tuple[str, List[int]]] = []
    prewarm_fragments(fragmentation, evaluated, engine=engine)

    # ------------------------------------------------------------------ stage 1
    stage1 = StageStats(name="combined")
    stage1_sites = network.sites_holding(evaluated)
    outputs: Dict[str, FragmentCombinedOutput] = {}
    candidate_sites: Dict[str, List[str]] = {}

    for site_id in stage1_sites:
        site = network.sites[site_id]
        fragment_ids = [fid for fid in network.fragments_on(site_id) if fid in evaluated_set]
        network.send(
            coordinator_id, site_id, MessageKind.EXEC_REQUEST,
            units=plan_units(plan) * len(fragment_ids),
            description="stage 1: combined qualifier + selection pass",
        )
        site_answers: List[int] = []
        site_units = 0
        with site.visit("pax2:combined"):
            for fragment_id in fragment_ids:
                init_vector: Sequence[FormulaLike] = stage1_init_vector(
                    fragmentation, plan, fragment_id, use_annotations
                )
                output = combined_pass(
                    fragmentation,
                    fragment_id,
                    plan,
                    init_vector,
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
