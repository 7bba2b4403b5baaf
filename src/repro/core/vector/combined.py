"""Vectorized combined pass (PaX2 Stage 1): the vector tier's two passes, composed.

The kernel's combined pass runs the selection half first and parks ``qz:``
placeholders wherever a qualifier value is consulted, binding and resolving
them after its reverse walk.  The vector pass flips the order: it is the
qualifier pass (:mod:`repro.core.vector.qualifier`, column at a time)
followed by the selection pass (:mod:`repro.core.vector.selection`) over
its state with no bindings, so the sparse selection walk conjoins the
*actual* qualifier values directly and no placeholder environment is
needed.  Both schemes produce structurally identical formulas (the
hash-consed connectives of :mod:`repro.booleans.formula` flatten n-ary
combinations the same way regardless of fold staging), and the two passes'
operations add up to the kernel's ``n_elements * (n_items + n_steps + 1)``.
"""

from __future__ import annotations

from typing import Sequence

from repro.booleans.formula import FormulaLike
from repro.core.combined import FragmentCombinedOutput
from repro.core.vector.qualifier import evaluate_fragment_qualifiers_vector
from repro.core.vector.selection import evaluate_fragment_selection_vector
from repro.fragments.fragment import Fragment
from repro.xmltree.flat import FlatFragment
from repro.xpath.plan import QueryPlan

__all__ = ["evaluate_fragment_combined_vector"]


def evaluate_fragment_combined_vector(
    fragment: Fragment,
    flat: FlatFragment,
    plan: QueryPlan,
    init_vector: Sequence[FormulaLike],
    is_root_fragment: bool,
) -> FragmentCombinedOutput:
    """Combined qualifier+selection pass over the window encoding."""
    qualifiers = evaluate_fragment_qualifiers_vector(fragment, flat, plan)
    selection = evaluate_fragment_selection_vector(
        fragment, flat, plan, qualifiers.state, None, init_vector, is_root_fragment
    )
    return FragmentCombinedOutput(
        fragment_id=fragment.fragment_id,
        root_head=qualifiers.root_head,
        root_desc=qualifiers.root_desc,
        answers=selection.answers,
        candidates=selection.candidates,
        virtual_parent_vectors=selection.virtual_parent_vectors,
        operations=qualifiers.operations + selection.operations,
        root_vector_units=qualifiers.root_vector_units,
    )
