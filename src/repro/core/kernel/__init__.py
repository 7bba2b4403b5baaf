"""Columnar per-fragment evaluation kernels: two walks over the flat
pre-order arrays of :class:`repro.xmltree.flat.FlatFragment`, driven by
tables precompiled per plan (:mod:`~repro.core.kernel.tables`).  PaX3 runs
the forward selection walk (:mod:`~repro.core.kernel.selection`) and the
reverse qualifier walk (:mod:`~repro.core.kernel.qualifier`) in two site
visits; PaX2's combined pass (:mod:`~repro.core.kernel.combined`) runs both
in one.  These passes are the ``kernel`` record of the engine table in
:mod:`~repro.core.kernel.dispatch`, next to the numpy ``vector`` tier
(:mod:`repro.core.vector`) and the object-tree ``reference``; every
orchestrator reaches them through that table.
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
