"""Stage 1 of PaX3: partial evaluation of qualifiers over one fragment.

This is the paper's extension of ParBoX (Section 3.1): a single bottom-up
pass over the fragment computes, for every element node, the values of the
qualifier sub-queries; at virtual nodes the unknown values of the missing
sub-fragment are replaced by fresh Boolean variables, so the results are
residual formulas rather than constants.

The output of the pass is

* the HEAD/DESC vectors of the fragment's root — these are what the
  coordinator unifies bottom-up over the fragment tree (``evalFT``),
* the selection-step qualifier values at the root — all ParBoX reads, and
* the tier's own per-element state, which the same tier's selection pass
  reads at the site in Stage 2: here node id -> those values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.booleans.formula import FormulaLike
from repro.core.variables import desc_var, head_var
from repro.fragments.fragment import Fragment
from repro.xmltree.nodes import NodeId, XMLNode
from repro.xpath.plan import QueryPlan
from repro.xpath.runtime import (
    QualAggregate,
    compute_qualifier_vectors,
    qualifier_values_for_selection,
)

__all__ = ["FragmentQualifierOutput", "evaluate_fragment_qualifiers", "virtual_qualifier_vectors"]


@dataclass
class FragmentQualifierOutput:
    """Result of the qualifier pass over one fragment."""

    fragment_id: str
    #: HEAD vector of the fragment root (indexed by item id)
    root_head: List[FormulaLike] = field(default_factory=list)
    #: DESC vector of the fragment root (indexed by item id)
    root_desc: List[FormulaLike] = field(default_factory=list)
    #: values of the SELFQUAL selection-step qualifiers at the fragment root
    root_values: Tuple[FormulaLike, ...] = ()
    #: per-element state for the same tier's selection pass; ``None`` without
    #: qualifiers or when no selection pass follows (``keep_state=False``)
    state: Optional[object] = None
    #: coarse operation count (elements processed x plan width)
    operations: int = 0
    #: number of traffic units if the root vectors were sent as-is
    root_vector_units: int = 0


def virtual_qualifier_vectors(
    plan: QueryPlan, child_fragment_id: str
) -> tuple[List[FormulaLike], List[FormulaLike]]:
    """The HEAD/DESC vectors standing in for an unevaluated sub-fragment.

    Each exchanged entry becomes a fresh variable named after the
    sub-fragment; entries never exchanged stay ``False`` (they are not read).
    """
    head: List[FormulaLike] = [False] * plan.n_items
    desc: List[FormulaLike] = [False] * plan.n_items
    for item_id in plan.head_item_ids:
        head[item_id] = head_var(child_fragment_id, item_id)
    for item_id in plan.desc_item_ids:
        desc[item_id] = desc_var(child_fragment_id, item_id)
    return head, desc


def evaluate_fragment_qualifiers(
    fragment: Fragment, plan: QueryPlan, keep_state: bool = True
) -> FragmentQualifierOutput:
    """Bottom-up partial evaluation of the qualifiers over *fragment*.

    The traversal is iterative (explicit stack) and visits every element of
    the fragment span exactly once, performing ``O(|Q|)`` work per node.
    Without *keep_state* only the root's selection-qualifier values are
    evaluated.
    """
    output = FragmentQualifierOutput(fragment_id=fragment.fragment_id)
    if not plan.has_qualifiers:
        output.root_head = [False] * plan.n_items
        output.root_desc = [False] * plan.n_items
        return output

    def new_aggregate(node: XMLNode) -> QualAggregate:
        """Aggregate seeded with the virtual children's variable vectors."""
        aggregate = QualAggregate(plan)
        for virtual in fragment.virtual_children_of(node):
            head, desc = virtual_qualifier_vectors(plan, virtual.fragment_id)
            aggregate.add_child(plan, head, desc)
        return aggregate

    root = fragment.root
    values: Dict[NodeId, Tuple[FormulaLike, ...]] = {}
    elements_processed = 0
    stack: list[tuple[XMLNode, object, QualAggregate]] = [
        (root, iter(fragment.real_element_children(root)), new_aggregate(root))
    ]
    root_vectors: tuple[List[FormulaLike], List[FormulaLike]] | None = None

    while stack:
        node, children_iter, aggregate = stack[-1]
        pushed = False
        for child in children_iter:
            stack.append(
                (child, iter(fragment.real_element_children(child)), new_aggregate(child))
            )
            pushed = True
            break
        if pushed:
            continue
        stack.pop()
        ex, head, desc = compute_qualifier_vectors(plan, node, aggregate)
        if keep_state or not stack:
            values[node.node_id] = qualifier_values_for_selection(plan, ex)
        elements_processed += 1
        if stack:
            stack[-1][2].add_child(plan, head, desc)
        else:
            root_vectors = (head, desc)

    assert root_vectors is not None
    output.root_head, output.root_desc = root_vectors
    output.root_values = values[root.node_id]
    output.state = values if keep_state else None
    output.operations = elements_processed * max(1, plan.n_items)
    output.root_vector_units = len(plan.head_item_ids) + len(plan.desc_item_ids)
    return output
