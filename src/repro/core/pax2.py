"""Algorithm PaX2 (Section 4 of the paper).

PaX2 folds the qualifier stage and the selection stage of PaX3 into one
combined pre/post-order pass per fragment, so every participating site is
visited at most twice:

1. **Combined pass** — every site runs the pre/post-order pass
   (:func:`repro.core.kernel.dispatch.combined_pass`, on the run's engine
   tier) over each of its fragments; the coordinator unifies qualifier
   vectors bottom-up and selection vectors top-down over the fragment tree.
2. **Answer retrieval** — sites holding candidates receive the resolved
   bindings (their own initialization variables plus the qualifier values of
   their sub-fragments), decide the candidates and ship the answers.

The coordinator reads which fragments stage 1 evaluates, their sites and
their init vectors off a :class:`~repro.core.pruning.Schedule` built before
any site works.  With XPath-annotations the schedule keeps only fragments
that can matter for the query (the pruner is conservative with respect to
both answers and qualifier scopes), and for qualifier-free queries the
initialization is concrete so the second visit disappears.

The algorithm is written once, as :func:`pax2_coordinator`; its two
drivers, the sync :func:`run_pax2` and the service's
:func:`repro.service.evaluator.evaluate_query_async`, only drive its site
rounds (see :mod:`repro.core.rounds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Mapping, Optional, Sequence, Tuple

from repro.booleans.env import Environment
from repro.booleans.formula import FormulaLike, formula_size
from repro.core.combined import FragmentCombinedOutput
from repro.core.kernel.dispatch import (
    FragmentEngine, combined_pass, prewarm_fragments, resolve_engine,
)
from repro.core.common import QueryInput, account_answers, build_network, ensure_plan, plan_units
from repro.core.pruning import Schedule, build_schedule
from repro.core.rounds import Envelope, SiteRound, Stage, outputs_by_fragment, run_inline
from repro.core.unify import (
    resolve_candidates,
    resolved_child_qualifier_bindings,
    resolved_init_bindings,
    unify_qualifier_vectors,
    unify_selection_vectors,
)
from repro.distributed.messages import MessageKind
from repro.distributed.network import Network
from repro.distributed.site import Site
from repro.distributed.stats import RunStats, StageStats
from repro.fragments.fragment_tree import Fragmentation
from repro.obs.trace import event, set_attributes, span as trace_span
from repro.xmltree.flat import FlatFragment
from repro.xpath.plan import QueryPlan

__all__ = [
    "COMBINED",
    "ANSWERS",
    "CombinedPass",
    "pax2_coordinator",
    "run_pax2",
]

#: the stage keys of PaX2's two site visits
COMBINED = "pax2:combined"
ANSWERS = "pax2:answers"


@dataclass(slots=True, eq=False)
class CombinedPass:
    """A run's stage-1 pass over any of its fragments: called by a driver
    per fragment, or read through :meth:`scan` by the service's batcher."""

    fragmentation: Fragmentation
    plan: QueryPlan
    init_vectors: Mapping[str, Tuple[FormulaLike, ...]]
    engine: FragmentEngine
    #: fragment id -> the pinned encoding the pass reads (``None``: the live ones)
    flat_of: Optional[Callable[[str], FlatFragment]]

    def scan(self, fragment_id: str) -> Tuple[QueryPlan, Tuple[FormulaLike, ...], bool, Any]:
        """``(plan, init vector, is_root_fragment, flat)`` of one fragment's pass."""
        return (
            self.plan,
            self.init_vectors[fragment_id],
            fragment_id == self.fragmentation.root_fragment_id,
            None if self.flat_of is None else self.flat_of(fragment_id),
        )

    def __call__(self, site: Site, fragment_id: str) -> FragmentCombinedOutput:
        return combined_pass(
            self.fragmentation, fragment_id, self.plan, self.init_vectors[fragment_id],
            is_root_fragment=fragment_id == self.fragmentation.root_fragment_id,
            engine=self.engine,
            flat=None if self.flat_of is None else self.flat_of(fragment_id),
        )


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


def _resolve(bindings: Mapping[str, Dict[str, bool]], site: Site, fragment_id: str) -> List[int]:
    """Answer retrieval at the site: decide the fragment's stored candidates."""
    return resolve_candidates(
        site.storage[fragment_id].get("candidates", {}), bindings[fragment_id], fragment_id
    )


def _collect_answers(
    description: str, site: Site, fragment_ids: Sequence[str], resolved: List[List[int]]
) -> List[Envelope]:
    found = sum(map(len, resolved))
    return [(MessageKind.ANSWERS, found, description)] if found else []


def _answer_rounds(
    stage: str,
    candidates: Sequence[Tuple[str, List[str]]],
    bindings: Sequence[Sequence[Dict[str, bool]]],
    request: str,
    reply: str,
) -> List[SiteRound]:
    """The answer-retrieval rounds (PaX2 stage 2, PaX3 stage 3): ship each
    candidate fragment its bindings, resolve its candidates at its site."""
    collect = partial(_collect_answers, reply)
    resolve = partial(_resolve, {
        fid: values
        for (_, fragment_ids), site_bindings in zip(candidates, bindings)
        for fid, values in zip(fragment_ids, site_bindings)
    })
    return [
        SiteRound(
            stage, site_id, fragment_ids,
            [(MessageKind.RESOLVED_BINDINGS, sum(map(len, site_bindings)), request)],
            resolve,
            collect,
        )
        for (site_id, fragment_ids), site_bindings in zip(candidates, bindings)
    ]


def _gather(rounds: Sequence[SiteRound], results: Sequence[Any]):
    """Over the rounds that came back: fragment id -> pass output, the
    (fragment id, definite answers) pairs, and (site id, its fragments that
    kept candidates) per site that has any."""
    outputs: Dict[str, Any] = {}
    answered: List[Tuple[str, List[int]]] = []
    candidates: List[Tuple[str, List[str]]] = []
    for site_round, result in zip(rounds, results):
        if isinstance(result, BaseException):
            continue
        held = []
        for fragment_id, output in zip(site_round.fragment_ids, result):
            outputs[fragment_id] = output
            answered.append((fragment_id, output.answers))
            if output.candidates:
                held.append(fragment_id)
        if held:
            candidates.append((site_round.site_id, held))
    return outputs, answered, candidates


def _degrade(stats: RunStats, stage: Stage, results: Sequence[Any], why: str) -> bool:
    """Whether some round came back as an exception (its site is lost); if
    so, mark *stats* a sound partial answer missing those sites' fragments."""
    lost = [
        (site_round, error) for site_round, error in zip(stage.rounds, results)
        if isinstance(error, BaseException)
    ]
    stage.stats.sites_involved = len(stage.rounds) - len(lost)
    for site_round, error in lost:
        event("degrade:site", site=site_round.site_id, stage=stage.stats.name,
              reason=getattr(error, "reason", repr(error)))
    if lost:
        stats.incomplete = True
        stats.missing_sites = sorted(site_round.site_id for site_round, _ in lost)
        stats.missing_fragments = sorted(
            fid for site_round, _ in lost for fid in site_round.fragment_ids
        )
        stats.notes = f"partial answer: sites {', '.join(stats.missing_sites)} {why}"
    return bool(lost)


def pax2_coordinator(
    fragmentation: Fragmentation,
    plan: QueryPlan,
    schedule: Schedule,
    flat_of: Optional[Callable[[str], FlatFragment]] = None,
    engine: Optional[FragmentEngine] = None,
) -> Generator[Stage, List[Any], RunStats]:
    """PaX2's coordinator over *schedule*: yields the combined stage, then
    the answers stage when some fragment kept candidates; returns the run's
    :class:`RunStats` without the per-site accounting its driver adds.

    ``flat_of`` maps a fragment id to the encoding the passes read and the
    answers are accounted on — a pinned snapshot's; ``None`` reads the live
    encodings.  ``engine`` is the per-fragment pass's tier (``None``: the
    process default; see :mod:`repro.core.kernel.dispatch`).

    A round result that is an exception marks its site lost, and the run
    degrades to a sound partial answer instead of failing.  Lost in stage
    1: the definite answers of the reached fragments are certain (each
    depends only on its own fragment and its init vector), while
    unification needs every fragment's vectors, so resolution is skipped.
    Lost in stage 2: the environment was exact, so only the lost sites'
    candidate answers are missing.
    """
    stats = RunStats(algorithm="PaX2", query=plan.source, use_annotations=schedule.use_annotations)
    stats.fragments_evaluated = list(schedule.evaluated)
    stats.fragments_pruned = list(schedule.pruned)
    request_units = plan_units(plan)

    def collect_combined(site: Site, fragment_ids: Sequence[str], outputs):
        units = answers = 0
        for fragment_id, output in zip(fragment_ids, outputs):
            site.add_operations(output.operations)
            answers += len(output.answers)
            if output.candidates:
                site.storage[fragment_id]["candidates"] = output.candidates
            units += _output_units(plan, output)
        replies = []
        if units:
            replies.append((
                MessageKind.SELECTION_VECTORS, units,
                "stage 1: root qualifier vectors and virtual-node vectors",
            ))
        if answers:
            replies.append((MessageKind.ANSWERS, answers, "stage 1: definite answers"))
        return replies

    run_pass = CombinedPass(
        fragmentation, plan, schedule.init_vectors, resolve_engine(engine), flat_of
    )
    rounds = [
        SiteRound(
            COMBINED, site_id, fragment_ids,
            [(
                MessageKind.EXEC_REQUEST, request_units * len(fragment_ids),
                "stage 1: combined qualifier + selection pass",
            )],
            run_pass,
            collect_combined,
        )
        for site_id, fragment_ids in schedule.stage1
    ]
    stage = Stage(COMBINED, StageStats(name="combined"), rounds)
    results = yield stage
    # answered: (fragment id, answer ids it produced), the answers and their accounting
    outputs, answered, candidates = _gather(rounds, results)
    stats.stages.append(stage.stats)
    if _degrade(
        stats, stage, results, "unreachable; stage-1 definite answers over reached fragments only"
    ):
        stats.fragments_evaluated = [fid for fid in schedule.evaluated if fid in outputs]
        candidates = []
    else:
        with trace_span("unify", stage="kernel"):
            environment = _unify_outputs(fragmentation, plan, outputs)

    if candidates:
        with trace_span("kernel:bindings", stage="kernel", sites=len(candidates)):
            # each fragment's init values, plus its sub-fragments' qualifier values
            bindings = [
                [resolved_init_bindings(plan, fid, environment) for fid in fragment_ids]
                for _, fragment_ids in candidates
            ]
            if plan.has_qualifiers:
                for (_, fragment_ids), site_bindings in zip(candidates, bindings):
                    for fid, values in zip(fragment_ids, site_bindings):
                        values.update(resolved_child_qualifier_bindings(
                            fragmentation, plan, fid, environment
                        ))
        rounds = _answer_rounds(
            ANSWERS, candidates, bindings,
            "stage 2: resolved initialization and qualifier values",
            "stage 2: resolved candidate answers",
        )
        stage = Stage(ANSWERS, StageStats(name="answers"), rounds)
        results = yield stage
        answered.extend(outputs_by_fragment(rounds, results).items())
        stats.stages.append(stage.stats)
        _degrade(
            stats, stage, results,
            "lost before candidate resolution; their candidate answers are absent",
        )

    with trace_span("reassembly", stage="reassembly"):
        stats.answer_ids = sorted({node_id for _, ids in answered for node_id in ids})
        stats.answer_nodes_shipped = account_answers(
            answered, flat_of if flat_of is not None else fragmentation.flat
        )
        set_attributes(answers=len(stats.answer_ids), incomplete=stats.incomplete)
    return stats


def run_pax2(
    fragmentation: Fragmentation,
    query: QueryInput,
    placement: Optional[Mapping[str, str]] = None,
    use_annotations: bool = False,
    network: Optional[Network] = None,
    engine: Optional[str] = None,
) -> RunStats:
    """Evaluate *query* over a fragmented tree with algorithm PaX2.

    ``engine`` names the per-fragment pass's tier in the engine table of
    :mod:`repro.core.kernel.dispatch` (``None``: the process default).
    """
    plan = ensure_plan(query)
    engine = resolve_engine(engine)
    if network is None:
        network = build_network(fragmentation, placement)
    schedule = build_schedule(fragmentation, plan, use_annotations, network.index)
    prewarm_fragments(fragmentation, schedule.evaluated, engine)
    return run_inline(pax2_coordinator(fragmentation, plan, schedule, engine=engine), network)
