"""Vectorized selection pass (Stage 2 of PaX3).

The qualifier values arrive from outside (the stage-1 fixpoint), so this
is the pure top-down half: encode the provided per-element values into
code columns once, run the sparse selection walk
(:mod:`repro.core.vector.walk`, which gathers those codes only at the rows
a qualifier step reads), decode the final column.  Operation accounting
matches the kernel, which charges skipped (concretely dead) elements too —
both engines report ``n_elements * (n_steps + 1)``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.booleans.formula import FormulaLike
from repro.core.kernel.tables import plan_tables
from repro.core.selection import FragmentSelectionOutput
from repro.core.vector.algebra import CodeSpace
from repro.core.vector.encode import vector_fragment
from repro.core.vector.walk import (
    emit_finals,
    emit_virtual_vectors,
    selection_code_columns,
)
from repro.fragments.fragment import Fragment
from repro.xmltree.flat import FlatFragment
from repro.xmltree.nodes import NodeId
from repro.xpath.plan import QueryPlan

__all__ = ["evaluate_fragment_selection_vector"]


def evaluate_fragment_selection_vector(
    fragment: Fragment,
    flat: FlatFragment,
    plan: QueryPlan,
    qual_provider: Optional[Callable[[NodeId], Sequence[FormulaLike]]],
    init_vector: Sequence[FormulaLike],
    is_root_fragment: bool,
) -> FragmentSelectionOutput:
    """Top-down selection pass over the window encoding."""
    output = FragmentSelectionOutput(fragment_id=fragment.fragment_id)
    vf = vector_fragment(flat)
    np = vf.np
    tables = plan_tables(flat, plan)
    n_steps = plan.n_steps
    space = CodeSpace(np)

    n_quals = len(tables.sel_quals)
    qual_cols = [np.zeros(vf.n, dtype=np.int64) for _ in range(n_quals)]
    if n_quals and qual_provider is not None:
        node_ids = flat.node_ids
        for index in vf.elem_idx.tolist():
            values = qual_provider(node_ids[index])
            for slot, value in enumerate(values):
                if slot >= n_quals:  # pragma: no cover - defensive
                    break
                qual_cols[slot][index] = space.encode(value)

    cols = selection_code_columns(
        vf,
        space,
        plan,
        tables,
        init_vector,
        is_root_fragment and not plan.absolute,
        qual_cols,
    )

    emit_finals(vf, space, cols[n_steps], flat.node_ids, output.answers, output.candidates)
    emit_virtual_vectors(space, cols, flat, output.virtual_parent_vectors)

    output.operations = flat.n_elements * (n_steps + 1)
    return output
