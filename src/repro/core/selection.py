"""Stage 2 of PaX3: partial evaluation of the selection path over one fragment.

A single top-down pass over the fragment computes the selection prefix
vector of every element node (Procedure ``topDown`` of the paper).  A
non-root fragment does not know the vector of its root's parent, so the
traversal stack is initialized with fresh ``sv:`` variables (or, when
XPath-annotations are available and the query has no qualifiers, with the
concrete vector derived from the annotation path).

Each tier's selection pass reads the state its own qualifier pass left at
the site in Stage 1 (here a node id -> values dict) and resolves only the
values that mention a sub-fragment variable, against the bindings the
coordinator ships back (:func:`resolved_qualifier_values`).

The pass classifies nodes into definite answers (final entry ``True``),
candidate answers (final entry is a residual formula) and non-answers, and
records — for every virtual node — the vector of its parent, which is what
the coordinator needs to resolve the ``sv:`` variables of the corresponding
sub-fragment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.booleans.env import Environment
from repro.booleans.formula import FormulaLike, is_concrete, is_false, is_true
from repro.core.variables import selection_var
from repro.fragments.fragment import Fragment
from repro.xmltree.nodes import NodeId, XMLNode
from repro.xpath.plan import QueryPlan
from repro.xpath.runtime import root_context_init_vector, selection_vector

__all__ = [
    "FragmentSelectionOutput",
    "evaluate_fragment_selection",
    "resolved_qualifier_values",
    "variable_init_vector",
]

@dataclass
class FragmentSelectionOutput:
    """Result of the selection pass over one fragment."""

    fragment_id: str
    #: node ids whose final prefix entry is concretely true
    answers: List[NodeId] = field(default_factory=list)
    #: node id -> residual formula, for nodes whose membership is undecided
    candidates: Dict[NodeId, FormulaLike] = field(default_factory=dict)
    #: sub-fragment id -> selection vector of the parent of that sub-fragment's root
    virtual_parent_vectors: Dict[str, List[FormulaLike]] = field(default_factory=dict)
    #: coarse operation count
    operations: int = 0


def variable_init_vector(plan: QueryPlan, fragment_id: str) -> List[FormulaLike]:
    """The all-variables initialization vector of a non-root fragment."""
    return [selection_var(fragment_id, entry) for entry in range(plan.n_steps + 1)]


def concrete_root_init_vector(plan: QueryPlan) -> List[FormulaLike]:
    """The initialization vector of the root fragment.

    For absolute plans this is the document node's prefix vector; for
    relative plans everything above the root element is false (the root
    element itself is the context).
    """
    return root_context_init_vector(plan)


def resolved_qualifier_values(
    values: Tuple[FormulaLike, ...], environment: Optional[Environment]
) -> Tuple[FormulaLike, ...]:
    """*values* with *environment* substituted into each one that mentions a
    variable (only values at the ancestors of virtual nodes can)."""
    if environment is None or all(map(is_concrete, values)):
        return values
    return tuple(
        value if is_concrete(value) else environment.resolve(value) for value in values
    )


def evaluate_fragment_selection(
    fragment: Fragment,
    plan: QueryPlan,
    qualifiers: Optional[Dict[NodeId, Tuple[FormulaLike, ...]]],
    bindings: Optional[Mapping[str, bool]],
    init_vector: Sequence[FormulaLike],
    is_root_fragment: bool,
) -> FragmentSelectionOutput:
    """Top-down partial evaluation of the selection path over *fragment*.

    ``qualifiers`` is this tier's qualifier state for the fragment (node id
    -> SELFQUAL values), ``None`` for a qualifier-free plan; ``bindings``
    are the resolved values of its sub-fragments' qualifier variables.
    ``init_vector`` is the vector of the fragment root's parent — concrete
    for the root fragment or under XPath-annotations, variables otherwise.
    """
    output = FragmentSelectionOutput(fragment_id=fragment.fragment_id)
    n_steps = plan.n_steps
    environment = Environment(bindings) if bindings else None
    elements_processed = 0

    stack: list[tuple[XMLNode, Sequence[FormulaLike]]] = [(fragment.root, list(init_vector))]
    while stack:
        node, parent_vector = stack.pop()
        elements_processed += 1
        qual_values = () if qualifiers is None else resolved_qualifier_values(
            qualifiers[node.node_id], environment
        )
        vector = selection_vector(
            plan,
            node,
            parent_vector,
            is_context_root=(
                is_root_fragment and not plan.absolute and node is fragment.root
            ),
            qual_values=qual_values,
        )
        final = vector[n_steps]
        if is_true(final):
            output.answers.append(node.node_id)
        elif not is_false(final):
            output.candidates[node.node_id] = final

        for virtual in fragment.virtual_children_of(node):
            output.virtual_parent_vectors[virtual.fragment_id] = list(vector)

        for child in reversed(fragment.real_element_children(node)):
            stack.append((child, vector))

    output.operations = elements_processed * (n_steps + 1)
    return output
