"""Algorithm PaX3 (Section 3 of the paper).

Three stages, each visiting a participating site at most once:

1. **Qualifier evaluation** — every site partially evaluates the qualifiers
   of the query over each of its fragments, bottom-up and in parallel; the
   coordinator unifies the resulting vectors over the fragment tree
   (``evalFT``).  Skipped entirely when the query has no qualifiers.
2. **Selection-path evaluation** — the coordinator ships the resolved
   qualifier values of each sub-fragment back to the owning site; every site
   partially evaluates the selection path top-down; definite answers are
   shipped immediately, undecided nodes become candidates kept at the site,
   and the vectors computed at virtual nodes return to the coordinator,
   which resolves the initialization variables top-down.
3. **Answer retrieval** — only sites holding candidates are visited again:
   they receive the resolved initialization values, decide their candidates
   and ship the remaining answers.

With XPath-annotations (``use_annotations=True``), fragments that can neither
contain answers nor fall inside a qualifier scope are excluded from stages 2
and 3, and — when the query has no qualifiers — the selection stack is
initialized with concrete values so stage 3 vanishes.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.booleans.env import Environment
from repro.booleans.formula import FormulaLike, formula_size
from repro.core.common import (
    QueryInput,
    account_answers,
    build_network,
    ensure_plan,
    plan_units,
    stage_site_times,
    stage_timer,
)
from repro.core.kernel.dispatch import prewarm_fragments, qualifier_pass, selection_pass
from repro.core.pruning import annotation_init_vector, relevant_fragments
from repro.core.qualifiers import FragmentQualifierOutput
from repro.core.selection import concrete_root_init_vector, variable_init_vector
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

__all__ = ["run_pax3"]


def _root_vector_units(plan: QueryPlan, output: FragmentQualifierOutput) -> int:
    # formula_size reads the memoized size of the (hash-consed) entries, so
    # re-accounting the same residual vector in a later stage is O(1) per item.
    units = 0
    for item_id in plan.head_item_ids:
        units += formula_size(output.root_head[item_id])
    for item_id in plan.desc_item_ids:
        units += formula_size(output.root_desc[item_id])
    return units


def _virtual_vector_units(vectors: Mapping[str, Sequence[FormulaLike]]) -> int:
    return sum(formula_size(entry) for vector in vectors.values() for entry in vector)


def run_pax3(
    fragmentation: Fragmentation,
    query: QueryInput,
    placement: Optional[Mapping[str, str]] = None,
    use_annotations: bool = False,
    network: Optional[Network] = None,
    engine: Optional[str] = None,
) -> RunStats:
    """Evaluate *query* over a fragmented tree with algorithm PaX3.

    ``engine`` selects the per-fragment pass implementation (``"kernel"``
    columnar arrays, ``"reference"`` object-tree traversal; ``None`` uses
    the process default — see :mod:`repro.core.kernel.dispatch`).
    """
    plan = ensure_plan(query)
    if network is None:
        network = build_network(fragmentation, placement)
    coordinator_id = network.coordinator_id
    root_fragment_id = fragmentation.root_fragment_id

    stats = RunStats(algorithm="PaX3", query=plan.source, use_annotations=use_annotations)

    # Annotation-based pruning applies to the selection stages only; the
    # qualifier stage must see every fragment (a qualifier may look anywhere
    # below the node it is attached to).
    if use_annotations:
        decision = relevant_fragments(fragmentation, plan)
        selection_fragments = [
            fid for fid in fragmentation.fragment_ids() if decision.keeps(fid)
        ]
        stats.fragments_pruned = sorted(decision.pruned)
    else:
        selection_fragments = fragmentation.fragment_ids()
    stats.fragments_evaluated = list(selection_fragments)
    selection_set = set(selection_fragments)

    # (fragment id, answer ids it produced): the answers and their accounting
    answered: List[Tuple[str, List[int]]] = []
    qual_env = Environment()
    prewarm_fragments(fragmentation, engine=engine)

    # ------------------------------------------------------------------ stage 1
    if plan.has_qualifiers:
        stage1 = StageStats(name="qualifiers")
        qual_outputs: Dict[str, FragmentQualifierOutput] = {}
        stage1_sites = network.sites_holding(fragmentation.fragment_ids())
        for site_id in stage1_sites:
            site = network.sites[site_id]
            fragment_ids = network.fragments_on(site_id)
            network.send(
                coordinator_id, site_id, MessageKind.EXEC_REQUEST,
                units=plan_units(plan) * len(fragment_ids),
                description="stage 1: evaluate qualifiers",
            )
            with site.visit("pax3:qualifiers"):
                for fragment_id in fragment_ids:
                    output = qualifier_pass(fragmentation, fragment_id, plan, engine=engine)
                    qual_outputs[fragment_id] = output
                    site.storage[fragment_id]["qual_values"] = output.qual_values
                    site.add_operations(output.operations)
            units = sum(_root_vector_units(plan, qual_outputs[fid]) for fid in fragment_ids)
            network.send(
                site_id, coordinator_id, MessageKind.QUALIFIER_VECTORS, units,
                description="stage 1: root qualifier vectors",
            )
        stage1.parallel_seconds, stage1.total_seconds = stage_site_times(
            network, stage1_sites, "pax3:qualifiers"
        )
        stage1.sites_involved = len(stage1_sites)
        with stage_timer(stage1):
            qual_env = unify_qualifier_vectors(
                fragmentation,
                plan,
                {fid: (out.root_head, out.root_desc) for fid, out in qual_outputs.items()},
            )
        stats.stages.append(stage1)

    # ------------------------------------------------------------------ stage 2
    stage2 = StageStats(name="selection")
    stage2_sites = network.sites_holding(selection_fragments)
    virtual_vectors: Dict[str, Dict[str, List[FormulaLike]]] = {}
    candidate_sites: Dict[str, List[str]] = {}

    for site_id in stage2_sites:
        site = network.sites[site_id]
        fragment_ids = [fid for fid in network.fragments_on(site_id) if fid in selection_set]
        network.send(
            coordinator_id, site_id, MessageKind.EXEC_REQUEST,
            units=plan_units(plan) * len(fragment_ids),
            description="stage 2: evaluate selection path",
        )
        per_fragment_bindings: Dict[str, Dict[str, bool]] = {}
        if plan.has_qualifiers:
            for fragment_id in fragment_ids:
                bindings = resolved_child_qualifier_bindings(
                    fragmentation, plan, fragment_id, qual_env
                )
                per_fragment_bindings[fragment_id] = bindings
            total_binding_units = sum(len(b) for b in per_fragment_bindings.values())
            if total_binding_units:
                network.send(
                    coordinator_id, site_id, MessageKind.RESOLVED_BINDINGS, total_binding_units,
                    description="stage 2: resolved sub-fragment qualifier values",
                )

        site_answers: List[int] = []
        site_vector_units = 0
        with site.visit("pax3:selection"):
            for fragment_id in fragment_ids:
                provider = None
                if plan.has_qualifiers:
                    stored = site.storage[fragment_id].get("qual_values", {})
                    fragment_env = Environment(per_fragment_bindings.get(fragment_id, {}))

                    def provider(node_id, stored=stored, fragment_env=fragment_env):
                        values = stored.get(node_id, ())
                        return [fragment_env.resolve(value) for value in values]

                if fragment_id == root_fragment_id:
                    init_vector: Sequence[FormulaLike] = concrete_root_init_vector(plan)
                elif use_annotations and not plan.has_qualifiers:
                    init_vector = annotation_init_vector(fragmentation, plan, fragment_id)
                else:
                    init_vector = variable_init_vector(plan, fragment_id)

                output = selection_pass(
                    fragmentation,
                    fragment_id,
                    plan,
                    provider,
                    init_vector,
                    is_root_fragment=(fragment_id == root_fragment_id),
                    engine=engine,
                )
                site.add_operations(output.operations)
                site_answers.extend(output.answers)
                answered.append((fragment_id, output.answers))
                if output.candidates:
                    site.storage[fragment_id]["candidates"] = output.candidates
                    candidate_sites.setdefault(site_id, []).append(fragment_id)
                virtual_vectors[fragment_id] = output.virtual_parent_vectors
                site_vector_units += _virtual_vector_units(output.virtual_parent_vectors)

        if site_vector_units:
            network.send(
                site_id, coordinator_id, MessageKind.SELECTION_VECTORS, site_vector_units,
                description="stage 2: vectors at virtual nodes",
            )
        if site_answers:
            network.send(
                site_id, coordinator_id, MessageKind.ANSWERS, len(site_answers),
                description="stage 2: definite answers",
            )

    stage2.parallel_seconds, stage2.total_seconds = stage_site_times(
        network, stage2_sites, "pax3:selection"
    )
    stage2.sites_involved = len(stage2_sites)
    with stage_timer(stage2):
        selection_env = unify_selection_vectors(fragmentation, plan, virtual_vectors, qual_env)
    stats.stages.append(stage2)

    # ------------------------------------------------------------------ stage 3
    if candidate_sites:
        stage3 = StageStats(name="answers")
        for site_id, fragment_ids in sorted(candidate_sites.items()):
            site = network.sites[site_id]
            all_bindings: Dict[str, Dict[str, bool]] = {}
            total_units = 0
            for fragment_id in fragment_ids:
                bindings = resolved_init_bindings(plan, fragment_id, selection_env)
                all_bindings[fragment_id] = bindings
                total_units += len(bindings)
            network.send(
                coordinator_id, site_id, MessageKind.RESOLVED_BINDINGS, total_units,
                description="stage 3: resolved initialization vectors",
            )
            resolved_answers: List[int] = []
            with site.visit("pax3:answers"):
                for fragment_id in fragment_ids:
                    resolved = resolve_candidates(
                        site.storage[fragment_id].get("candidates", {}),
                        all_bindings[fragment_id],
                        fragment_id,
                    )
                    answered.append((fragment_id, resolved))
                    resolved_answers.extend(resolved)
            if resolved_answers:
                network.send(
                    site_id, coordinator_id, MessageKind.ANSWERS, len(resolved_answers),
                    description="stage 3: resolved candidate answers",
                )
        candidate_site_ids = sorted(candidate_sites)
        stage3.parallel_seconds, stage3.total_seconds = stage_site_times(
            network, candidate_site_ids, "pax3:answers"
        )
        stage3.sites_involved = len(candidate_site_ids)
        stats.stages.append(stage3)

    # ------------------------------------------------------------------ results
    stats.answer_ids = sorted({node_id for _, ids in answered for node_id in ids})
    stats.answer_nodes_shipped = account_answers(answered, fragmentation.flat)
    network.collect_stats(stats)
    return stats
