"""Algorithm PaX3 (Section 3 of the paper).

Three stages, each visiting a participating site at most once:

1. **Qualifier evaluation** — every site partially evaluates the qualifiers
   of the query over each of its fragments, bottom-up and in parallel; the
   coordinator unifies the resulting vectors over the fragment tree
   (``evalFT``).  Skipped entirely when the query has no qualifiers.
2. **Selection-path evaluation** — the coordinator ships the resolved
   qualifier values of each sub-fragment back to the owning site; every site
   partially evaluates the selection path top-down over the qualifier state
   it kept from stage 1; definite answers are shipped immediately, undecided
   nodes become candidates kept at the site, and the vectors computed at
   virtual nodes return to the coordinator, which resolves the
   initialization variables top-down.
3. **Answer retrieval** — only sites holding candidates are visited again:
   they receive the resolved initialization values, decide their candidates
   and ship the remaining answers.

Stages 2 and 3 read their fragments, sites and init vectors off the same
:class:`~repro.core.pruning.Schedule` as PaX2's stage 1, built before any
site works.  With XPath-annotations (``use_annotations=True``), fragments
that can neither contain answers nor fall inside a qualifier scope are
excluded from stages 2 and 3, and — when the query has no qualifiers — the
selection stack is initialized with concrete values so stage 3 vanishes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Mapping, Optional, Sequence

from repro.booleans.env import Environment
from repro.core.common import (
    QueryInput,
    account_answers,
    build_network,
    ensure_plan,
    plan_units,
    vector_units,
)
from repro.core.kernel.dispatch import (
    FragmentEngine, prewarm_fragments, qualifier_pass, resolve_engine, selection_pass,
)
from repro.core.pax2 import _answer_rounds, _gather
from repro.core.pruning import Schedule, build_schedule
from repro.core.qualifiers import FragmentQualifierOutput
from repro.core.rounds import Envelope, SiteRound, Stage, outputs_by_fragment, run_inline
from repro.core.unify import (
    resolved_child_qualifier_bindings,
    resolved_init_bindings,
    unify_qualifier_vectors,
    unify_selection_vectors,
)
from repro.distributed.messages import MessageKind
from repro.distributed.network import Network, SiteIndex
from repro.distributed.site import Site
from repro.distributed.stats import RunStats, StageStats
from repro.fragments.fragment_tree import Fragmentation
from repro.xpath.plan import QueryPlan

__all__ = ["pax3_coordinator", "qualifier_stage", "unify_qualifier_stage", "run_pax3"]


def qualifier_stage(
    fragmentation: Fragmentation,
    plan: QueryPlan,
    sites: SiteIndex,
    engine: FragmentEngine,
    stage: str,
    label: str,
    units_of: Callable[[FragmentQualifierOutput], int],
    keep_state: bool,
) -> Stage:
    """The bottom-up qualifier pass at every site (PaX3 stage 1, ParBoX).

    Each site ships its root vectors, *units_of* traffic units per fragment,
    and with *keep_state* keeps the pass's state for a selection stage
    (without it, the pass computes no state).
    """
    units = plan_units(plan)

    def qualifiers(site: Site, fragment_id: str) -> FragmentQualifierOutput:
        return qualifier_pass(
            fragmentation, fragment_id, plan, engine=engine, keep_state=keep_state
        )

    def collect(site: Site, fragment_ids: Sequence[str], outputs) -> List[Envelope]:
        for fragment_id, output in zip(fragment_ids, outputs):
            if keep_state:
                site.storage[fragment_id]["qualifiers"] = output.state
            site.add_operations(output.operations)
        return [(
            MessageKind.QUALIFIER_VECTORS, sum(map(units_of, outputs)),
            f"{label}: root qualifier vectors",
        )]

    return Stage(stage, StageStats(name="qualifiers"), [
        SiteRound(
            stage, site_id, fragment_ids,
            [(
                MessageKind.EXEC_REQUEST, units * len(fragment_ids),
                f"{label}: evaluate qualifiers",
            )],
            qualifiers,
            collect,
        )
        for site_id, fragment_ids in sorted(sites.fragments_on.items())
    ])


def unify_qualifier_stage(
    fragmentation: Fragmentation, plan: QueryPlan, stage: Stage, results: List[Any]
) -> Environment:
    """``evalFT`` over a qualifier stage's root vectors, bottom-up."""
    stage.stats.sites_involved = len(stage.rounds)
    return unify_qualifier_vectors(
        fragmentation,
        plan,
        {
            fid: (out.root_head, out.root_desc)
            for fid, out in outputs_by_fragment(stage.rounds, results).items()
        },
    )


def pax3_coordinator(
    fragmentation: Fragmentation,
    plan: QueryPlan,
    schedule: Schedule,
    engine: Optional[FragmentEngine] = None,
) -> Generator[Stage, List[Any], RunStats]:
    """PaX3's coordinator over *schedule*: yields the qualifier stage (when
    the query has qualifiers), the selection stage and — when some fragment
    kept candidates — the answers stage; see :mod:`repro.core.rounds`."""
    engine = resolve_engine(engine)
    stats = RunStats(algorithm="PaX3", query=plan.source, use_annotations=schedule.use_annotations)
    # Annotation-based pruning applies to the selection stages only; the
    # qualifier stage must see every fragment (a qualifier may look anywhere
    # below the node it is attached to).
    stats.fragments_evaluated = list(schedule.evaluated)
    stats.fragments_pruned = list(schedule.pruned)
    root_fragment_id = fragmentation.root_fragment_id
    request_units = plan_units(plan)

    # ------------------------------------------------------------------ stage 1
    qual_env = Environment()
    if plan.has_qualifiers:
        stage = qualifier_stage(
            fragmentation, plan, schedule.sites, engine, "pax3:qualifiers", "stage 1",
            lambda output: vector_units((
                map(output.root_head.__getitem__, plan.head_item_ids),
                map(output.root_desc.__getitem__, plan.desc_item_ids),
            )),
            keep_state=True,
        )
        results = yield stage
        qual_env = unify_qualifier_stage(fragmentation, plan, stage, results)
        stats.stages.append(stage.stats)

    # ------------------------------------------------------------------ stage 2
    # fragment id -> its sub-fragments' resolved qualifier values
    bindings: Dict[str, Dict[str, bool]] = {}

    def select(site: Site, fragment_id: str):
        return selection_pass(
            fragmentation, fragment_id, plan, site.storage[fragment_id].get("qualifiers"),
            bindings.get(fragment_id), schedule.init_vectors[fragment_id],
            is_root_fragment=(fragment_id == root_fragment_id), engine=engine,
        )

    def collect_selection(site: Site, fragment_ids: Sequence[str], outputs) -> List[Envelope]:
        units = answers = 0
        for fragment_id, output in zip(fragment_ids, outputs):
            site.add_operations(output.operations)
            answers += len(output.answers)
            if output.candidates:
                site.storage[fragment_id]["candidates"] = output.candidates
            units += vector_units(output.virtual_parent_vectors.values())
        replies = [
            (MessageKind.SELECTION_VECTORS, units, "stage 2: vectors at virtual nodes"),
            (MessageKind.ANSWERS, answers, "stage 2: definite answers"),
        ]
        return [reply for reply in replies if reply[1]]

    rounds = []
    for site_id, fragment_ids in schedule.stage1:
        requests = [(
            MessageKind.EXEC_REQUEST, request_units * len(fragment_ids),
            "stage 2: evaluate selection path",
        )]
        if plan.has_qualifiers:
            for fragment_id in fragment_ids:
                bindings[fragment_id] = resolved_child_qualifier_bindings(
                    fragmentation, plan, fragment_id, qual_env
                )
            binding_units = sum(len(bindings[fid]) for fid in fragment_ids)
            if binding_units:
                requests.append((
                    MessageKind.RESOLVED_BINDINGS, binding_units,
                    "stage 2: resolved sub-fragment qualifier values",
                ))
        rounds.append(SiteRound(
            "pax3:selection", site_id, fragment_ids, requests,
            select,
            collect_selection,
        ))
    stage = Stage("pax3:selection", StageStats(name="selection"), rounds)
    results = yield stage
    stage.stats.sites_involved = len(rounds)
    # answered: (fragment id, answer ids it produced), the answers and their accounting
    outputs, answered, candidates = _gather(rounds, results)
    selection_env = unify_selection_vectors(
        fragmentation,
        plan,
        {fid: output.virtual_parent_vectors for fid, output in outputs.items()},
        qual_env,
    )
    stats.stages.append(stage.stats)

    # ------------------------------------------------------------------ stage 3
    if candidates:
        rounds = _answer_rounds(
            "pax3:answers", candidates,
            [
                [resolved_init_bindings(plan, fid, selection_env) for fid in fragment_ids]
                for _, fragment_ids in candidates
            ],
            "stage 3: resolved initialization vectors",
            "stage 3: resolved candidate answers",
        )
        stage = Stage("pax3:answers", StageStats(name="answers"), rounds)
        results = yield stage
        stage.stats.sites_involved = len(rounds)
        answered.extend(outputs_by_fragment(rounds, results).items())
        stats.stages.append(stage.stats)

    # ------------------------------------------------------------------ results
    stats.answer_ids = sorted({node_id for _, ids in answered for node_id in ids})
    stats.answer_nodes_shipped = account_answers(answered, fragmentation.flat)
    return stats


def run_pax3(
    fragmentation: Fragmentation,
    query: QueryInput,
    placement: Optional[Mapping[str, str]] = None,
    use_annotations: bool = False,
    network: Optional[Network] = None,
    engine: Optional[str] = None,
) -> RunStats:
    """Evaluate *query* over a fragmented tree with algorithm PaX3.

    ``engine`` names the per-fragment passes' tier in the engine table of
    :mod:`repro.core.kernel.dispatch` (``None``: the process default).
    """
    plan = ensure_plan(query)
    engine = resolve_engine(engine)
    if network is None:
        network = build_network(fragmentation, placement)
    schedule = build_schedule(fragmentation, plan, use_annotations, network.index)
    prewarm_fragments(fragmentation, engine=engine)
    return run_inline(pax3_coordinator(fragmentation, plan, schedule, engine), network)
