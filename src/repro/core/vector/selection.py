"""Vectorized selection pass (Stage 2 of PaX3).

The qualifier values are the vector qualifier pass's own output, kept at
the site since stage 1 (:class:`~repro.core.vector.quals.QualAnalysis`):
its boolean selection-qualifier columns go straight into the sparse
selection walk (:mod:`repro.core.vector.walk`), which gathers them only at
the rows a qualifier step reads, and the symbolic rows — the only ones
whose values can mention a sub-fragment variable — are patched in with
their exact values, resolved against the coordinator's bindings, by one
probe.  Then the final column is decoded.  PaX2's combined pass
(:mod:`repro.core.vector.combined`) is the qualifier pass followed by this
one with no bindings.  Operation accounting matches the kernel, which
charges skipped (concretely dead) elements too — both engines report
``n_elements * (n_steps + 1)``.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.booleans.env import Environment
from repro.booleans.formula import FormulaLike
from repro.core.kernel.tables import plan_tables
from repro.core.selection import FragmentSelectionOutput, resolved_qualifier_values
from repro.core.vector.algebra import CodeSpace
from repro.core.vector.encode import vector_fragment
from repro.core.vector.quals import QualAnalysis
from repro.core.vector.walk import (
    emit_finals,
    emit_virtual_vectors,
    selection_code_columns,
)
from repro.fragments.fragment import Fragment
from repro.xmltree.flat import FlatFragment
from repro.xpath.plan import QueryPlan

__all__ = ["evaluate_fragment_selection_vector"]


def evaluate_fragment_selection_vector(
    fragment: Fragment,
    flat: FlatFragment,
    plan: QueryPlan,
    qualifiers: Optional[QualAnalysis],
    bindings: Optional[Mapping[str, bool]],
    init_vector: Sequence[FormulaLike],
    is_root_fragment: bool,
) -> FragmentSelectionOutput:
    """Top-down selection pass over the window encoding.

    ``qualifiers`` is the vector qualifier pass's state, ``None`` for a
    qualifier-free plan; *bindings* resolve the values at the symbolic rows.
    """
    output = FragmentSelectionOutput(fragment_id=fragment.fragment_id)
    vf = vector_fragment(flat)
    np = vf.np
    space = CodeSpace(np)

    qual_cols = []
    qual_patches = None
    if qualifiers is not None:
        qual_cols = qualifiers.sel_qual_cols
        sym_values = qualifiers.sym_qual_values
        if sym_values and qual_cols:
            environment = Environment(bindings) if bindings else None
            rows = vf.anc_idx[::-1]  # the symbolic rows, ascending
            codes = [
                list(map(space.encode, resolved_qualifier_values(sym_values[row], environment)))
                for row in rows.tolist()
            ]
            qual_patches = (rows, np.array(codes, dtype=np.int64).T)  # codes[slot][k]

    cols = selection_code_columns(
        vf,
        space,
        plan,
        plan_tables(flat, plan),
        init_vector,
        is_root_fragment and not plan.absolute,
        qual_cols,
        qual_patches,
    )
    emit_finals(vf, space, cols[plan.n_steps], flat.node_ids, output.answers, output.candidates)
    emit_virtual_vectors(space, cols, flat, output.virtual_parent_vectors)
    output.operations = flat.n_elements * (plan.n_steps + 1)
    return output
