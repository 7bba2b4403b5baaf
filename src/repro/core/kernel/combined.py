"""The PaX2 combined pass on the kernel: the forward walk, then the reverse.

Semantically identical to
:func:`repro.core.combined.evaluate_fragment_combined`, and built from the
two walks PaX3 runs in separate site visits.  The forward walk
(:mod:`~repro.core.kernel.selection`) parks a lazy ``qz:`` placeholder
wherever a prefix consults a qualifier; the reverse walk
(:mod:`~repro.core.kernel.qualifier`) returns the root's HEAD/DESC rows and
the qualifier values of just those rows.  They are bound in one local
environment that resolves the finals and the virtual parent vectors, so no
``qz:`` variable leaves the site.

The vector tier flips the order (qualifiers first, then a selection walk
over concrete values).  Here that costs more: it computes every element's
qualifier values, while a placeholder costs only on the selection path.
Qualifiers first against this order, seed 97, 15 s alternating pairs of
``perf/run.py``, this order won every pair: ``ft1_fanout_fresh`` qps
83.9 vs 66.7, ``ft2_sync`` query p95 55.9 vs 132.2 ms, ``svc_mixed_rw``
query p95 34.1 vs 51.5 ms.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.booleans.env import Environment
from repro.booleans.formula import FormulaLike, is_false, is_true
from repro.core.combined import FragmentCombinedOutput, _LazyPlaceholders
from repro.core.kernel.qualifier import qualifier_walk
from repro.core.kernel.selection import selection_walk
from repro.core.kernel.tables import plan_tables
from repro.fragments.fragment import Fragment
from repro.xmltree.flat import FlatFragment
from repro.xpath.plan import QueryPlan

__all__ = ["evaluate_fragment_combined_flat"]


def evaluate_fragment_combined_flat(
    fragment: Fragment,
    flat: FlatFragment,
    plan: QueryPlan,
    init_vector: Sequence[FormulaLike],
    is_root_fragment: bool,
) -> FragmentCombinedOutput:
    """Combined pre/post-order pass over the columnar encoding of *fragment*."""
    output = FragmentCombinedOutput(fragment_id=fragment.fragment_id)
    tables = plan_tables(flat, plan)
    has_quals = plan.has_qualifiers
    node_ids = flat.node_ids
    parked: Dict[int, _LazyPlaceholders] = {}

    def placeholders(row: int) -> _LazyPlaceholders:
        lazy = parked[row] = _LazyPlaceholders(node_ids[row])
        return lazy

    finals = selection_walk(
        flat, plan, tables, placeholders if has_quals else None, init_vector,
        is_root_fragment, output.virtual_parent_vectors,
    )
    consulted = {row: lazy for row, lazy in parked.items() if lazy.created}
    output.root_head, output.root_desc, values = qualifier_walk(
        flat, plan, tables, consulted
    )

    # Eliminate qz: placeholders from everything that leaves the site.
    local_env = Environment()
    for row, lazy in consulted.items():
        row_values = values[row]
        for slot, variable in lazy.created.items():
            local_env.bind(variable.name, row_values[slot])
    for node_id, final in finals:
        resolved = local_env.resolve(final) if has_quals else final
        if is_true(resolved):
            output.answers.append(node_id)
        elif not is_false(resolved):
            output.candidates[node_id] = resolved
    if has_quals:
        vectors = output.virtual_parent_vectors
        for child_fragment_id, vector in vectors.items():
            vectors[child_fragment_id] = local_env.resolve_vector(vector)

    output.operations = flat.n_elements * max(1, plan.n_items + plan.n_steps + 1)
    output.root_vector_units = len(plan.head_item_ids) + len(plan.desc_item_ids)
    return output
