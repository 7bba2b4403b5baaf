"""Vectorized qualifier pass (Stage 1 of PaX3 / ParBoX).

Semantically identical to the kernel and reference passes: the column
analysis (:mod:`repro.core.vector.quals`) computes every item's EX column
in topological item order, and the root HEAD/DESC vectors and qualifier
values are the root's rows.  The per-element state it leaves at the site is
that :class:`~repro.core.vector.quals.QualAnalysis` itself — the boolean
selection-qualifier columns plus the exact values at the symbolic rows —
which the vector selection pass (:mod:`repro.core.vector.selection`) feeds
straight into its walk; nothing is decoded per element.
"""

from __future__ import annotations

from repro.core.kernel.tables import plan_tables
from repro.core.qualifiers import FragmentQualifierOutput
from repro.core.vector.encode import vector_fragment
from repro.core.vector.quals import qualifier_analysis
from repro.fragments.fragment import Fragment
from repro.xmltree.flat import FlatFragment
from repro.xpath.plan import QueryPlan

__all__ = ["evaluate_fragment_qualifiers_vector"]


def evaluate_fragment_qualifiers_vector(
    fragment: Fragment, flat: FlatFragment, plan: QueryPlan, keep_state: bool = True
) -> FragmentQualifierOutput:
    """Column-at-a-time qualifier pass over the window encoding; the columns
    are computed whole, so without *keep_state* only the state is dropped."""
    output = FragmentQualifierOutput(fragment_id=fragment.fragment_id)
    n_items = plan.n_items
    if not plan.has_qualifiers:
        # Same early-out as the kernel: no qualifier work, no operation
        # charge (the accounting fingerprints must match bit for bit).
        output.root_head = [False] * n_items
        output.root_desc = [False] * n_items
        return output

    vf = vector_fragment(flat)
    tables = plan_tables(flat, plan)
    analysis = qualifier_analysis(vf, flat, plan, tables)
    if keep_state:
        output.state = analysis
    output.root_head = analysis.root_head
    output.root_desc = analysis.root_desc
    # bool() materializes Python bools (numpy bool_ must never leave the columns)
    output.root_values = analysis.sym_qual_values.get(0) or tuple(
        bool(col[0]) for col in analysis.sel_qual_cols
    )
    output.operations = flat.n_elements * max(1, n_items)
    output.root_vector_units = len(tables.head_item_ids) + len(tables.desc_item_ids)
    return output
