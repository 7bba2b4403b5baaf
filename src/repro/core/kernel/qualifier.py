"""The kernel's reverse walk: qualifier vectors, children first.

Semantically identical to
:func:`repro.core.qualifiers.evaluate_fragment_qualifiers`, but the
traversal is a single reverse walk over the fragment's flat pre-order
arrays: reverse pre-order visits every node after all of its descendants,
so the bottom-up recurrence needs no frame stack at all.  Per element the
walk folds the already-computed child HEAD/DESC rows (document order,
virtual children first — the same fold order as the reference, so residual
formulas come out structurally identical) and interprets the precompiled
``item_prog`` instead of re-reading the plan's dataclasses.  PaX3's
qualifier pass asks it for every element's selection-qualifier values (its
state, by row), ParBoX's for the root row's alone, and PaX2's combined pass
(:mod:`repro.core.kernel.combined`) only for the rows whose placeholders its
forward walk parked.

All-false rows are shared tuples instead of fresh lists, so leaf-heavy
fragments allocate almost nothing per node.
"""

from __future__ import annotations

from typing import Callable, Container, Dict, List, Optional, Sequence, Tuple

from repro.booleans.formula import FormulaLike, conj, disj
from repro.core.kernel.tables import (
    ITEM_CHILD,
    ITEM_DESC,
    ITEM_EMPTY_TEXT,
    ITEM_EMPTY_TRUE,
    ITEM_EMPTY_VAL,
    ITEM_SELFQUAL,
    PlanTables,
    plan_tables,
)
from repro.core.qualifiers import FragmentQualifierOutput
from repro.core.variables import desc_var, head_var
from repro.fragments.fragment import Fragment
from repro.xmltree.flat import KIND_ELEMENT, FlatFragment
from repro.xpath.plan import QueryPlan, evaluate_qual_expr

__all__ = ["evaluate_fragment_qualifiers_flat", "qualifier_walk"]


def fold_child_rows(
    virtuals: Optional[Sequence[str]],
    virtual_var: Callable[[str, int], FormulaLike],
    rows: Sequence[Sequence[FormulaLike]],
    item_ids: Sequence[int],
    n_items: int,
) -> List[FormulaLike]:
    """One aggregate row over a node's children, an n-ary ``disj`` per item.

    Per exchanged item the operands are the virtual children's variables
    first, then the element children's *rows* in document order — the order
    the reference's ``QualAggregate`` left-folds in.  Flatten / dedupe /
    absorb is associative, so the single n-ary call returns the very object
    the fold would, at O(k) instead of O(k^2) operand visits for k children.
    """
    aggregate: List[FormulaLike] = [False] * n_items
    for item_id in item_ids:
        parts = [row[item_id] for row in rows]
        if virtuals is not None:
            parts = [virtual_var(fid, item_id) for fid in virtuals] + parts
        aggregate[item_id] = disj(*parts)
    return aggregate


def qualifier_walk(
    flat: FlatFragment,
    plan: QueryPlan,
    tables: PlanTables,
    wanted: Container[int],
) -> Tuple[List[FormulaLike], List[FormulaLike], Dict[int, Tuple[FormulaLike, ...]]]:
    """The root's HEAD/DESC rows, and the selection-qualifier values of the
    *wanted* rows keyed by row."""
    n_items = plan.n_items
    qual_values: Dict[int, Tuple[FormulaLike, ...]] = {}
    if not plan.has_qualifiers:
        return [False] * n_items, [False] * n_items, qual_values

    item_prog = tables.item_prog
    sel_quals = tables.sel_quals
    head_item_ids = tables.head_item_ids
    desc_item_ids = tables.desc_item_ids
    head_rest = tables.head_rest
    head_by_tag = tables.head_by_tag
    false_row = tables.false_items

    n = flat.n
    kind = flat.kind
    tag_ids = flat.tag_id
    text_norm = flat.text_norm
    numeric = flat.numeric
    virtual_at = flat.virtual_at

    #: per-element HEAD/DESC rows, freed once folded into the parent
    head_at: List[Optional[object]] = [None] * n
    desc_at: List[Optional[object]] = [None] * n

    for index in range(n - 1, -1, -1):
        if kind[index] != KIND_ELEMENT:
            continue

        # -- aggregate the children's contributions (virtuals first, then
        #    real element children in document order, as the reference does)
        virtuals = virtual_at.get(index)
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

        # -- EX vector via the precompiled item program
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

        if index in wanted:
            qual_values[index] = tuple(
                evaluate_qual_expr(qual, ex) for qual in sel_quals
            )

        # -- HEAD/DESC rows handed to the parent (shared tuple when all-false)
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
    return (
        list(root_head) if type(root_head) is tuple else root_head,
        list(root_desc) if type(root_desc) is tuple else root_desc,
        qual_values,
    )


def evaluate_fragment_qualifiers_flat(
    fragment: Fragment, flat: FlatFragment, plan: QueryPlan, keep_state: bool = True
) -> FragmentQualifierOutput:
    """Bottom-up qualifier pass over the columnar encoding of *fragment*;
    without *keep_state* only the root row's selection-qualifier values are
    evaluated."""
    output = FragmentQualifierOutput(fragment_id=fragment.fragment_id)
    output.root_head, output.root_desc, values = qualifier_walk(
        flat, plan, plan_tables(flat, plan), range(flat.n) if keep_state else (0,)
    )
    if plan.has_qualifiers:
        output.root_values = values[0]
        if keep_state:
            output.state = values
        output.operations = flat.n_elements * max(1, plan.n_items)
        output.root_vector_units = len(plan.head_item_ids) + len(plan.desc_item_ids)
    return output
