"""Columnar per-fragment evaluation kernels.

The modules in this package rewrite the three hot per-fragment passes
(qualifier, selection, combined) as iterative walks over the flat pre-order
arrays of :class:`repro.xmltree.flat.FlatFragment`, with per-tag dispatch
tables precompiled from the :class:`~repro.xpath.plan.QueryPlan`
(:mod:`repro.core.kernel.tables`).  :mod:`repro.core.kernel.dispatch`
selects between these kernels, the numpy vector passes
(:mod:`repro.core.vector`) and the object-tree reference passes.
"""

from repro.core.kernel.combined import evaluate_fragment_combined_flat
from repro.core.kernel.dispatch import (
    ENGINES,
    KERNEL,
    REFERENCE,
    combined_pass,
    fragment_engine,
    qualifier_pass,
    selection_pass,
    set_fragment_engine,
    use_fragment_engine,
)
from repro.core.kernel.qualifier import evaluate_fragment_qualifiers_flat
from repro.core.kernel.selection import evaluate_fragment_selection_flat
from repro.core.kernel.tables import PlanTables, plan_tables

__all__ = [
    "ENGINES",
    "KERNEL",
    "REFERENCE",
    "combined_pass",
    "fragment_engine",
    "qualifier_pass",
    "selection_pass",
    "set_fragment_engine",
    "use_fragment_engine",
    "evaluate_fragment_combined_flat",
    "evaluate_fragment_qualifiers_flat",
    "evaluate_fragment_selection_flat",
    "PlanTables",
    "plan_tables",
]
