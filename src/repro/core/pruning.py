"""The coordinator's schedule: the XPath-annotation optimization (Section 5
of the paper) and the stage-1 plan every coordinator reads.

Given an annotated fragment tree, the coordinator knows — for every fragment
— the label path from the document root down to the fragment's root.  Two
uses are made of that information:

1. **Pruning**: a fragment is skipped entirely when (a) no match of the
   selection path can lie in its subtree *and* (b) no node carrying a
   qualifier can be an ancestor-or-self of its root.  Both conditions are
   decided conservatively by simulating the selection prefix automaton along
   the label path with qualifiers assumed true, so pruning never changes the
   answer.  Ancestors of kept fragments are also kept so the coordinator can
   still resolve initialization variables along the fragment tree.

2. **Concrete initialization**: when the query has no qualifiers, the prefix
   vector of a fragment root's parent is fully determined by the label path,
   so the selection stack can be initialized with concrete values instead of
   variables — every answer is then identified with certainty and the final
   answer-retrieval stage is skipped (the paper's Experiment 1/2 effect).

Both come from one walk over the fragment tree, parents before children,
that advances the automaton once per edge label from the vector it reached
at the parent fragment's root (:func:`_walk`).  :func:`build_schedule` turns
the walk into the :class:`Schedule` PaX2, PaX3 and the service's prepared
queries read: the evaluated and pruned fragments, their grouping by site and
every stage-1 init vector.  :func:`relevant_fragments` (with the reason for
each decision) and :func:`stage1_init_vector` (one fragment, walking only its
ancestors) read the same walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.booleans.formula import FormulaLike
from repro.core.selection import concrete_root_init_vector, variable_init_vector
from repro.distributed.network import SiteIndex
from repro.fragments.annotations import edge_annotation
from repro.fragments.fragment_tree import Fragmentation
from repro.xpath.plan import CHILD, DESC, SELFQUAL, QueryPlan
from repro.xpath.runtime import root_context_init_vector

__all__ = [
    "Schedule",
    "build_schedule",
    "relevant_fragments",
    "stage1_init_vector",
    "PruningDecision",
]

#: what the walk reaches at a fragment's root: the vector of the root's
#: parent (its concrete init vector), the vector at the root, and whether a
#: qualifier scope was entered on the way down from the document root
_Point = Tuple[List[bool], List[bool], bool]


def _advance(
    plan: QueryPlan, previous: Sequence[bool], label: str, is_relative_context: bool
) -> List[bool]:
    """One step of the prefix automaton along a label chain, qualifiers
    assumed true (exact for qualifier-free plans).

    ``previous`` is the vector of the node's parent (or the document-node
    vector for the root element of an absolute plan); ``is_relative_context``
    marks the root element of a relative plan, which *is* the query context.
    """
    vector: List[bool] = [False] * (plan.n_steps + 1)
    vector[0] = is_relative_context
    for position, step in enumerate(plan.selection, start=1):
        if step.kind == CHILD:
            matches = step.tag is None or step.tag == label
            vector[position] = bool(previous[position - 1]) and matches
        elif step.kind == DESC:
            vector[position] = bool(previous[position]) or vector[position - 1]
        elif step.kind == SELFQUAL:
            vector[position] = vector[position - 1]
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown selection step kind {step.kind!r}")
    return vector


def _walk(
    fragmentation: Fragmentation, plan: QueryPlan, fragment_ids: Iterable[str]
) -> Dict[str, _Point]:
    """The automaton along the annotated fragment tree: one step per edge
    label (and one for the root element), each fragment starting from the
    vector its parent's root reached.  *fragment_ids* lists parents before
    children, as :meth:`~repro.fragments.fragment_tree.Fragmentation.fragment_ids`
    and a reversed ancestor chain do."""
    scopes = [
        position - 1
        for position, step in enumerate(plan.selection, start=1)
        if step.kind == SELFQUAL
    ]
    points: Dict[str, _Point] = {}
    for fragment_id in fragment_ids:
        parent_id = fragmentation.parent(fragment_id)
        if parent_id is None:
            vector = [bool(value) for value in root_context_init_vector(plan)]
            scoped = False
            labels = [fragmentation.tree.root.label]
        else:
            _, vector, scoped = points[parent_id]
            labels = edge_annotation(fragmentation, fragment_id)
        is_relative_context = parent_id is None and not plan.absolute
        for label in labels:
            init, vector = vector, _advance(plan, vector, label, is_relative_context)
            scoped = scoped or any(vector[prefix] for prefix in scopes)
        points[fragment_id] = (init, vector, scoped)
    return points


class PruningDecision:
    """Outcome of the annotation-based pruning for one fragmentation/query."""

    def __init__(self, kept: Set[str], pruned: Set[str], reasons: Dict[str, str]):
        self.kept = kept
        self.pruned = pruned
        self.reasons = reasons

    def keeps(self, fragment_id: str) -> bool:
        return fragment_id in self.kept

    def __repr__(self) -> str:
        return f"<PruningDecision kept={sorted(self.kept)} pruned={sorted(self.pruned)}>"


def _prune(fragmentation: Fragmentation, points: Mapping[str, _Point]) -> PruningDecision:
    """Keep what the walk reached with a live prefix or inside a qualifier
    scope, then every ancestor of a kept fragment in one reverse pass."""
    reasons: Dict[str, str] = {}
    for fragment_id, (_, vector, scoped) in points.items():
        if fragment_id == fragmentation.root_fragment_id:
            reasons[fragment_id] = "root fragment"
        elif any(vector):
            reasons[fragment_id] = "may contain selection matches"
        elif scoped:
            reasons[fragment_id] = "inside the scope of a qualifier"
    # Keep fragment-tree ancestors of every kept fragment so initialization
    # variables can be resolved along an unbroken chain.  (A live prefix at
    # a fragment root implies one at its parent's root, so today this only
    # guards that invariant.)  Children come after their parents in
    # *points*, so reversed it reaches them first.
    for fragment_id in reversed(list(points)):
        parent_id = fragmentation.parent(fragment_id)
        if parent_id is not None and fragment_id in reasons:
            reasons.setdefault(parent_id, "ancestor of a relevant fragment")
    kept = set(reasons)
    pruned = set(points) - kept
    for fragment_id in pruned:
        reasons[fragment_id] = "no selection match or qualifier scope can reach it"
    return PruningDecision(kept, pruned, reasons)


def _init_vector(
    fragmentation: Fragmentation,
    plan: QueryPlan,
    fragment_id: str,
    points: Optional[Mapping[str, _Point]],
) -> List[FormulaLike]:
    """The initialization vector a stage-1 pass starts *fragment_id* with:
    the concrete context vector for the root fragment, the walk's vector
    for a qualifier-free plan the annotations walked (*points*), per-fragment
    ``sv:`` variables otherwise."""
    if fragment_id == fragmentation.root_fragment_id:
        return concrete_root_init_vector(plan)
    if points is not None and not plan.has_qualifiers:
        return points[fragment_id][0]
    return variable_init_vector(plan, fragment_id)


def relevant_fragments(fragmentation: Fragmentation, plan: QueryPlan) -> PruningDecision:
    """Decide which fragments must participate in the evaluation of *plan*."""
    return _prune(fragmentation, _walk(fragmentation, plan, fragmentation.fragment_ids()))


def stage1_init_vector(
    fragmentation: Fragmentation,
    plan: QueryPlan,
    fragment_id: str,
    use_annotations: bool,
) -> List[FormulaLike]:
    """The initialization vector a stage-1 pass starts *fragment_id* with,
    as :func:`build_schedule` builds it, walking only the fragment's
    fragment-tree ancestors."""
    points = None
    if use_annotations and not plan.has_qualifiers:
        chain = [fragment_id] + fragmentation.ancestors(fragment_id)
        points = _walk(fragmentation, plan, reversed(chain))
    return _init_vector(fragmentation, plan, fragment_id, points)


@dataclass(frozen=True, eq=False)
class Schedule:
    """The request-invariant half of a PaX2 or PaX3 run: what the
    coordinator decides from the plan and the fragment tree before any site
    works.

    It reads the plan, the site index and the label paths down to the
    fragment roots (paper Section 5), never fragment content, so it holds
    across every write through :mod:`repro.updates` and changes only with
    the fragment tree — when *sites* stops being current (see
    :attr:`~repro.fragments.fragment_tree.Fragmentation.structure_version`).
    """

    #: the site index the stage-1 sites were read from
    sites: SiteIndex
    #: whether the annotations pruned and initialized this schedule
    use_annotations: bool
    #: fragments stage 1 evaluates, in fragment-id order
    evaluated: Tuple[str, ...]
    #: fragments the annotations pruned, sorted (empty without annotations)
    pruned: Tuple[str, ...]
    #: (site id, the evaluated fragments it holds), by site id
    stage1: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: fragment id -> the initialization vector its stage-1 pass starts from
    init_vectors: Mapping[str, Tuple[FormulaLike, ...]]


def build_schedule(
    fragmentation: Fragmentation,
    plan: QueryPlan,
    use_annotations: bool,
    sites: SiteIndex,
) -> Schedule:
    """Prune, group the evaluated fragments by site and build their init
    vectors from one walk — the one schedule builder of every coordinator."""
    fragment_ids = fragmentation.fragment_ids()
    points = None
    if use_annotations:
        points = _walk(fragmentation, plan, fragment_ids)
        decision = _prune(fragmentation, points)
        evaluated = tuple(fid for fid in fragment_ids if decision.keeps(fid))
        pruned = tuple(sorted(decision.pruned))
    else:
        evaluated = tuple(fragment_ids)
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
        vector = tuple(_init_vector(fragmentation, plan, fid, points))
        init_vectors[fid] = distinct.setdefault(vector, vector)
    return Schedule(sites, use_annotations, evaluated, pruned, tuple(stage1), init_vectors)
