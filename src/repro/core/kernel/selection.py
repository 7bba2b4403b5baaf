"""The kernel's forward walk: selection prefix vectors, parents first.

Semantically identical to
:func:`repro.core.selection.evaluate_fragment_selection`.  A node's parent
precedes it in pre-order, so ``vectors[parent[i]]`` is ready when ``i`` is
reached.  PaX3's selection pass and PaX2's combined pass
(:mod:`repro.core.kernel.combined`) both run this walk and differ only in
their qualifier source: PaX3's reads the row-indexed values the qualifier
pass left at the site.  Two output-preserving optimizations:

* per-tag step gates: whether a CHILD step can match is a precomputed
  boolean lookup (``sel_child_ok``) instead of a per-node tag comparison;
* dead-subtree skip: once a node's prefix vector is concretely all-false,
  so is every descendant's (nothing below re-anchors the path or consults
  a qualifier), and the walk jumps ``subtree_size`` ahead, emitting
  all-false vectors at any virtual nodes it skips.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.booleans.env import Environment
from repro.booleans.formula import FormulaLike, conj, disj, is_false, is_true
from repro.core.kernel.tables import SEL_CHILD, SEL_DESC, PlanTables, plan_tables
from repro.core.selection import FragmentSelectionOutput, resolved_qualifier_values
from repro.fragments.fragment import Fragment
from repro.xmltree.flat import KIND_ELEMENT, FlatFragment
from repro.xmltree.nodes import NodeId
from repro.xpath.plan import QueryPlan

__all__ = ["evaluate_fragment_selection_flat", "selection_walk"]


def selection_walk(
    flat: FlatFragment,
    plan: QueryPlan,
    tables: PlanTables,
    qual_source: Optional[Callable[[int], Sequence[FormulaLike]]],
    init_vector: Sequence[FormulaLike],
    is_root_fragment: bool,
    virtual_parent_vectors: Dict[str, List[FormulaLike]],
) -> List[Tuple[NodeId, FormulaLike]]:
    """Every element's prefix vector; the finals that are not concretely false.

    ``qual_source(row)`` gives a row's SELFQUAL values; it is asked once per
    element the walk computes, not for skipped dead subtrees.  Each virtual
    node's parent vector goes into *virtual_parent_vectors*; the
    ``(node id, final)`` pairs come back in document order.
    """
    sel_prog = tables.sel_prog
    sel_child_ok = tables.sel_child_ok

    n = flat.n
    n_steps = plan.n_steps
    vec_len = n_steps + 1
    kind = flat.kind
    tag_ids = flat.tag_id
    parent = flat.parent
    subtree_size = flat.subtree_size
    node_ids = flat.node_ids
    virtual_at = flat.virtual_at
    has_virtuals = bool(virtual_at)

    anchor_at_root = is_root_fragment and not plan.absolute
    finals: List[Tuple[NodeId, FormulaLike]] = []
    vectors: List[Optional[List[FormulaLike]]] = [None] * n
    init_list = list(init_vector)
    no_quals: Sequence[FormulaLike] = ()

    index = 0
    while index < n:
        if kind[index] != KIND_ELEMENT:
            index += 1
            continue
        parent_index = parent[index]
        parent_vector = init_list if parent_index < 0 else vectors[parent_index]
        qual_values = no_quals if qual_source is None else qual_source(index)

        vector: List[FormulaLike] = [False] * vec_len
        is_ctx = anchor_at_root and parent_index < 0
        vector[0] = is_ctx
        all_false = not is_ctx
        ok = sel_child_ok[tag_ids[index]]
        qual_index = 0
        for instr in sel_prog:
            code = instr[0]
            position = instr[1]
            if code == SEL_CHILD:
                previous = parent_vector[position - 1]
                if previous is not False and ok[position]:
                    vector[position] = previous
                    all_false = False
            elif code == SEL_DESC:
                value = parent_vector[position]
                below = vector[position - 1]
                if value is False:
                    value = below
                elif below is not False:
                    value = disj(value, below)
                if value is not False:
                    vector[position] = value
                    all_false = False
            else:  # SEL_SELFQUAL
                previous = vector[position - 1]
                if not is_false(previous):
                    value = conj(previous, qual_values[qual_index])
                    if value is not False:
                        vector[position] = value
                        all_false = False
                qual_index += 1
        vectors[index] = vector

        final = vector[n_steps]
        if final is not False and not is_false(final):
            finals.append((node_ids[index], final))

        if has_virtuals:
            virtuals = virtual_at.get(index)
            if virtuals is not None:
                for child_fragment_id in virtuals:
                    virtual_parent_vectors[child_fragment_id] = list(vector)

        if all_false:
            # Dead subtree: every descendant's vector is all-false too.
            end = index + subtree_size[index]
            if has_virtuals:
                for at in flat.virtuals_in(index + 1, end):
                    for child_fragment_id in virtual_at[at]:
                        virtual_parent_vectors[child_fragment_id] = [False] * vec_len
            index = end
        else:
            index += 1
    return finals


def symbolic_rows(flat: FlatFragment) -> Set[int]:
    """Ancestors-or-self of the rows that carry virtual children: the only
    rows whose qualifier values can mention a sub-fragment variable."""
    rows: Set[int] = set()
    parent = flat.parent
    for row in flat.virtual_indices:
        while row >= 0 and row not in rows:
            rows.add(row)
            row = parent[row]
    return rows


def evaluate_fragment_selection_flat(
    fragment: Fragment,
    flat: FlatFragment,
    plan: QueryPlan,
    qualifiers: Optional[Dict[int, Tuple[FormulaLike, ...]]],
    bindings: Optional[Mapping[str, bool]],
    init_vector: Sequence[FormulaLike],
    is_root_fragment: bool,
) -> FragmentSelectionOutput:
    """Top-down selection pass over the columnar encoding of *fragment*;
    *bindings* resolve the qualifier state's values at the symbolic rows."""
    output = FragmentSelectionOutput(fragment_id=fragment.fragment_id)
    qual_source = None
    if qualifiers is not None:
        if bindings:
            environment = Environment(bindings)
            qualifiers = {**qualifiers, **{
                row: resolved_qualifier_values(qualifiers[row], environment)
                for row in symbolic_rows(flat)
            }}
        qual_source = qualifiers.__getitem__
    finals = selection_walk(
        flat, plan, plan_tables(flat, plan), qual_source, init_vector,
        is_root_fragment, output.virtual_parent_vectors,
    )
    for node_id, final in finals:
        if is_true(final):
            output.answers.append(node_id)
        else:
            output.candidates[node_id] = final
    output.operations = flat.n_elements * (plan.n_steps + 1)
    return output
