"""Vectorized combined pass (PaX2 Stage 1).

The kernel's combined pass runs the selection half first and parks ``qz:``
placeholders wherever a qualifier value is consulted, binding and resolving
them after its reverse walk.  The vector pass flips the order: the
qualifier analysis runs first (column at a time), so the sparse selection
walk (:mod:`repro.core.vector.walk`) conjoins the *actual* qualifier
values directly and no placeholder environment is needed.  It reads them
only at the rows a qualifier step can select: the concrete boolean masks
are gathered there, and the exact values of the symbolic rows (ancestors
of virtual cut points) are patched in by one probe.

Both schemes produce structurally identical formulas: the bindings are
placeholder-free, so resolution is a single substitution, and the
hash-consed connectives flatten n-ary combinations the same way
regardless of fold staging (see
:mod:`repro.booleans.formula`).  Answers, candidates, the root HEAD/DESC
vectors, the virtual parent vectors and the operation accounting all come
out bit-identical to both other engines.
"""

from __future__ import annotations

from typing import Sequence

from repro.booleans.formula import FormulaLike
from repro.core.combined import FragmentCombinedOutput
from repro.core.kernel.tables import plan_tables
from repro.core.vector.algebra import CodeSpace
from repro.core.vector.encode import vector_fragment
from repro.core.vector.quals import qualifier_analysis
from repro.core.vector.walk import (
    emit_finals,
    emit_virtual_vectors,
    selection_code_columns,
)
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
    output = FragmentCombinedOutput(fragment_id=fragment.fragment_id)
    vf = vector_fragment(flat)
    np = vf.np
    tables = plan_tables(flat, plan)
    n_items = plan.n_items
    n_steps = plan.n_steps
    space = CodeSpace(np)

    qual_cols = []
    qual_patches = None
    if plan.has_qualifiers:
        analysis = qualifier_analysis(vf, flat, plan, tables)
        # The walk gathers the concrete masks at the rows a SELFQUAL step
        # reads; symbolic rows get their exact values interned, as patches.
        qual_cols = analysis.sel_qual_cols
        sym_values = analysis.sym_qual_values
        if sym_values and qual_cols:
            sym_rows = vf.anc_idx[::-1]  # the symbolic rows, ascending
            qual_patches = (sym_rows, np.array(
                [[space.encode(sym_values[row][slot]) for row in sym_rows.tolist()]
                 for slot in range(len(qual_cols))],
                dtype=np.int64,
            ))
        output.root_head = analysis.root_head
        output.root_desc = analysis.root_desc
    else:
        output.root_head = [False] * n_items
        output.root_desc = [False] * n_items

    cols = selection_code_columns(
        vf,
        space,
        plan,
        tables,
        init_vector,
        is_root_fragment and not plan.absolute,
        qual_cols,
        qual_patches,
    )

    emit_finals(vf, space, cols[n_steps], flat.node_ids, output.answers, output.candidates)
    emit_virtual_vectors(space, cols, flat, output.virtual_parent_vectors)

    output.operations = flat.n_elements * max(1, n_items + n_steps + 1)
    output.root_vector_units = len(plan.head_item_ids) + len(plan.desc_item_ids)
    return output
