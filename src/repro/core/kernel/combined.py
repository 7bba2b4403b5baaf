"""Columnar rewrite of the PaX2 combined pass.

Semantically identical to
:func:`repro.core.combined.evaluate_fragment_combined`, but the single
pre/post-order traversal becomes two flat array walks: a forward walk
computes every element's selection prefix vector (parents precede children
in pre-order), a reverse walk computes the qualifier vectors bottom-up
(descendants precede ancestors in reverse pre-order) and binds the ``qz:``
placeholders the forward walk materialized.  The ``qz:`` environment, the
lazily created placeholders and the local resolution at the end are exactly
the reference's, so answers, candidates and every vector leaving the site
are bit-identical.

Selection work for concretely dead prefixes is shared: once a node's vector
is all-false, its descendants reuse one shared all-false row instead of
recomputing it (the qualifier half still visits them, as it must).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.booleans.env import Environment
from repro.booleans.formula import FormulaLike, conj, disj, is_false, is_true
from repro.core.combined import FragmentCombinedOutput, _LazyPlaceholders
from repro.core.kernel.qualifier import fold_child_rows
from repro.core.kernel.tables import (
    ITEM_CHILD,
    ITEM_DESC,
    ITEM_EMPTY_TEXT,
    ITEM_EMPTY_TRUE,
    ITEM_EMPTY_VAL,
    ITEM_SELFQUAL,
    SEL_CHILD,
    SEL_DESC,
    plan_tables,
)
from repro.core.variables import desc_var, head_var
from repro.fragments.fragment import Fragment
from repro.xmltree.flat import KIND_ELEMENT, FlatFragment
from repro.xpath.plan import QueryPlan, evaluate_qual_expr

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
    sel_prog = tables.sel_prog
    sel_child_ok = tables.sel_child_ok

    n = flat.n
    n_items = plan.n_items
    n_steps = plan.n_steps
    vec_len = n_steps + 1
    has_quals = plan.has_qualifiers
    kind = flat.kind
    tag_ids = flat.tag_id
    parent = flat.parent
    node_ids = flat.node_ids
    virtual_at = flat.virtual_at
    has_virtuals = bool(virtual_at)

    anchor_at_root = is_root_fragment and not plan.absolute
    local_env = Environment()
    pending_finals: List[tuple] = []
    pending_virtual: Dict[str, List[FormulaLike]] = {}

    vectors: List[Optional[Sequence[FormulaLike]]] = [None] * n
    placeholders_at: List[Optional[_LazyPlaceholders]] = [None] * n
    init_list = list(init_vector)
    false_vector: Sequence[FormulaLike] = (False,) * vec_len
    no_quals: Sequence[FormulaLike] = ()

    # ---------------------------------------------------------- forward walk
    # (the pre-order half: selection prefix vectors, placeholders, virtuals)
    for index in range(n):
        if kind[index] != KIND_ELEMENT:
            continue
        parent_index = parent[index]
        parent_vector = init_list if parent_index < 0 else vectors[parent_index]
        is_ctx = anchor_at_root and parent_index < 0

        if parent_vector is false_vector and not is_ctx:
            # Dead prefix: the vector is all-false without computing it, and
            # no placeholder can be consulted (a false prefix short-circuits
            # every qualifier step).
            vectors[index] = false_vector
            if has_virtuals:
                virtuals = virtual_at.get(index)
                if virtuals is not None:
                    for child_fragment_id in virtuals:
                        pending_virtual[child_fragment_id] = [False] * vec_len
            continue

        if has_quals:
            placeholders: Sequence[FormulaLike] = _LazyPlaceholders(node_ids[index])
            placeholders_at[index] = placeholders
        else:
            placeholders = no_quals

        vector: List[FormulaLike] = [False] * vec_len
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
                    value = conj(previous, placeholders[qual_index])
                    if value is not False:
                        vector[position] = value
                        all_false = False
                qual_index += 1

        final = vector[n_steps]
        if final is not False and not is_false(final):
            pending_finals.append((node_ids[index], final))
        if has_virtuals:
            virtuals = virtual_at.get(index)
            if virtuals is not None:
                for child_fragment_id in virtuals:
                    pending_virtual[child_fragment_id] = list(vector)
        vectors[index] = false_vector if all_false else vector

    # ---------------------------------------------------------- reverse walk
    # (the post-order half: qualifier vectors, placeholder bindings)
    if has_quals:
        item_prog = tables.item_prog
        sel_quals = tables.sel_quals
        head_item_ids = tables.head_item_ids
        desc_item_ids = tables.desc_item_ids
        head_rest = tables.head_rest
        head_by_tag = tables.head_by_tag
        false_row = tables.false_items
        text_norm = flat.text_norm
        numeric = flat.numeric

        head_at: List[Optional[object]] = [None] * n
        desc_at: List[Optional[object]] = [None] * n

        for index in range(n - 1, -1, -1):
            if kind[index] != KIND_ELEMENT:
                continue
            virtuals = virtual_at.get(index) if has_virtuals else None
            head_rows: List[object] = []
            desc_rows: List[object] = []
            for child in flat.element_children(index):
                child_head = head_at[child]
                child_desc = desc_at[child]
                head_at[child] = None
                desc_at[child] = None
                if child_head is not false_row:
                    head_rows.append(child_head)
                if child_desc is not false_row:
                    desc_rows.append(child_desc)
            agg_h = agg_d = false_row
            if virtuals is not None or head_rows:
                agg_h = fold_child_rows(virtuals, head_var, head_rows, head_item_ids, n_items)
            if virtuals is not None or desc_rows:
                agg_d = fold_child_rows(virtuals, desc_var, desc_rows, desc_item_ids, n_items)

            ex: List[FormulaLike] = [False] * n_items
            for instr in item_prog:
                code = instr[0]
                if code == ITEM_CHILD:
                    ex[instr[1]] = agg_h[instr[1]]
                elif code == ITEM_DESC:
                    rest = instr[2]
                    ex[instr[1]] = disj(ex[rest], agg_d[rest])
                elif code == ITEM_EMPTY_TEXT:
                    ex[instr[1]] = text_norm[index] == instr[2]
                elif code == ITEM_EMPTY_TRUE:
                    ex[instr[1]] = True
                elif code == ITEM_EMPTY_VAL:
                    value = numeric[index]
                    ex[instr[1]] = False if value is None else instr[2](value, instr[3])
                else:  # ITEM_SELFQUAL
                    ex[instr[1]] = conj(evaluate_qual_expr(instr[2], ex), ex[instr[3]])

            lazy = placeholders_at[index]
            if lazy is not None and lazy.created:
                created = lazy.created
                values = tuple(evaluate_qual_expr(qual, ex) for qual in sel_quals)
                for slot in created:
                    local_env.bind(created[slot].name, values[slot])

            head_row: object = false_row
            matching = head_by_tag[tag_ids[index]]
            if matching:
                row: Optional[List[FormulaLike]] = None
                for item_id in matching:
                    value = ex[head_rest[item_id]]
                    if value is not False:
                        if row is None:
                            row = [False] * n_items
                        row[item_id] = value
                if row is not None:
                    head_row = row
            desc_row: object = false_row
            if desc_item_ids:
                row = None
                for item_id in desc_item_ids:
                    value = disj(ex[item_id], agg_d[item_id])
                    if value is not False:
                        if row is None:
                            row = [False] * n_items
                        row[item_id] = value
                if row is not None:
                    desc_row = row
            head_at[index] = head_row
            desc_at[index] = desc_row

        root_head = head_at[0]
        root_desc = desc_at[0]
        output.root_head = list(root_head) if type(root_head) is tuple else root_head
        output.root_desc = list(root_desc) if type(root_desc) is tuple else root_desc
    else:
        output.root_head = [False] * n_items
        output.root_desc = [False] * n_items

    # ---------------------------------------------------------- resolution
    # Eliminate qz: placeholders from everything that leaves the site.
    for node_id, final in pending_finals:
        resolved = local_env.resolve(final) if has_quals else final
        if is_true(resolved):
            output.answers.append(node_id)
        elif not is_false(resolved):
            output.candidates[node_id] = resolved
    for child_fragment_id, vector in pending_virtual.items():
        output.virtual_parent_vectors[child_fragment_id] = (
            local_env.resolve_vector(vector) if has_quals else vector
        )

    output.operations = flat.n_elements * max(1, n_items + n_steps + 1)
    output.root_vector_units = len(plan.head_item_ids) + len(plan.desc_item_ids)
    return output
