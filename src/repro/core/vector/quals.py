"""Column-at-a-time qualifier analysis (the bottom-up half, vectorized).

The kernel's reverse walk computes, per element, the EX vector of every
qualifier item plus the HEAD/DESC rows folded into the parent.  Items are
interned in topological order (suffix and nested-qualifier items always
have smaller ids — see :class:`repro.xpath.plan.QualItem`), so the same
recurrence runs column at a time with no tree walk at all:

* EMPTY — the terminal test column, computed only when something reads
  it whole: a test that only CHILD items read is evaluated at their
  candidate rows and nowhere else;
* CHILD — scatter: candidate rows from the per-tag index (a view of the
  fragment's ``tag_rows``) whose suffix holds mark their parents;
* DESC — the descendant-or-self window aggregation: one prefix sum over
  the suffix column, differenced at ``(pre, post)``;
* SELFQUAL — boolean mask algebra over the already-computed item columns,
  following the hash-consed qualifier expression tree.

Symbolic rows — ancestors-or-self of virtual cut points, where EX values
mention sub-fragment variables — are recomputed exactly as the kernel does,
bottom-up in decreasing pre-order, folding virtual variables and child rows
in document order so residual formulas come out structurally identical.
Everything below those rows reads straight from the concrete columns (a
non-ancestor's window can never contain a symbolic row).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.booleans.formula import FormulaLike, conj, disj
from repro.core.kernel.tables import (
    ITEM_CHILD,
    ITEM_DESC,
    ITEM_EMPTY_TEXT,
    ITEM_EMPTY_TRUE,
    ITEM_EMPTY_VAL,
    PlanTables,
)
from repro.core.variables import desc_var, head_var
from repro.core.vector.encode import VectorFragment
from repro.xmltree.flat import FlatFragment
from repro.xpath.plan import CHILD, DESC, SELFQUAL, QueryPlan, evaluate_qual_expr

__all__ = ["QualAnalysis", "qualifier_analysis"]


class QualAnalysis:
    """One fragment's qualifier state, columnar where concrete."""

    __slots__ = (
        "sel_qual_cols",
        "sym_qual_values",
        "root_head",
        "root_desc",
    )

    def __init__(self, sel_qual_cols, sym_qual_values, root_head, root_desc):
        #: per selection qualifier, the boolean value column (idem)
        self.sel_qual_cols = sel_qual_cols
        #: flat index -> exact qualifier-value tuple at the symbolic rows
        self.sym_qual_values = sym_qual_values
        self.root_head = root_head
        self.root_desc = root_desc


def _qual_mask(np, expr, column, n):
    """A qualifier expression as boolean mask algebra over item columns."""
    kind = expr[0]
    if kind == "item":
        return column(expr[1])
    if kind == "not":
        return ~_qual_mask(np, expr[1], column, n)
    out = None
    if kind == "and":
        for part in expr[1]:
            mask = _qual_mask(np, part, column, n)
            out = mask if out is None else out & mask
        return np.ones(n, dtype=bool) if out is None else out
    # "or" — evaluate_qual_expr raises on anything else, mirror its shapes
    for part in expr[1]:
        mask = _qual_mask(np, part, column, n)
        out = mask if out is None else out | mask
    return np.zeros(n, dtype=bool) if out is None else out


def qualifier_analysis(
    vf: VectorFragment,
    flat: FlatFragment,
    plan: QueryPlan,
    tables: PlanTables,
) -> QualAnalysis:
    """Evaluate every qualifier item of *plan* over *vf*, column at a time."""
    np = vf.np
    n = vf.n
    items = plan.items
    n_items = plan.n_items

    # ---------------------------------------------------- concrete columns
    # An EMPTY item's column stays None until something reads it whole;
    # a CHILD item reads its suffix at its candidate rows only (ex_at).
    ex_cols: List[object] = [None] * n_items

    def column(item_id: int):
        col = ex_cols[item_id]
        if col is None:
            col = ex_cols[item_id] = vf.test_mask(items[item_id].test)
        return col

    def ex_at(item_id: int, rows):
        col = ex_cols[item_id]
        if col is None:
            return vf.test_mask(items[item_id].test, rows)
        return col[rows]

    for item in items:
        kind = item.kind
        if kind == CHILD:
            # Scatter: candidate rows (per-tag index) whose suffix holds
            # mark their parents.  Duplicate parents collapse via fancy
            # assignment — exactly the agg_head disjunction, concretely.
            rows = vf.rows_with_tag(item.tag)
            col = np.zeros(n, dtype=bool)
            if rows.size:
                holds = ex_at(item.rest, rows) & vf.parent_ge0[rows]
                col[vf.parent[rows[holds]]] = True
        elif kind == DESC:
            # EX = suffix holds on a descendant-or-self: the (pre, post)
            # window aggregation over the suffix column.
            col = vf.window_any_incl(column(item.rest))
        elif kind == SELFQUAL:
            col = _qual_mask(np, item.qual, column, n) & column(item.rest)
        else:  # EMPTY, deferred
            continue
        ex_cols[item.item_id] = col

    sel_qual_cols = [
        _qual_mask(np, qual, column, n) for qual in tables.sel_quals
    ]

    # ------------------------------------------------------- symbolic rows
    # Ancestors-or-self of virtual cut points carry sub-fragment variables;
    # replay the kernel's per-node recurrence there (bottom-up), reading
    # concrete child contributions from the columns above.
    sym_qual_values: Dict[int, tuple] = {}
    sym_rows: Dict[int, tuple] = {}
    if vf.anc_idx.size:
        item_prog = tables.item_prog
        sel_quals = tables.sel_quals
        head_item_ids = tables.head_item_ids
        desc_item_ids = tables.desc_item_ids
        head_rest = tables.head_rest
        head_by_tag = tables.head_by_tag
        anc_mask = vf.anc_mask
        tag_ids = flat.tag_id
        text_norm = flat.text_norm
        numeric = flat.numeric
        virtual_at = flat.virtual_at
        subtree_size = flat.subtree_size

        # Sorted hit lists per item, for O(log n) child-window probes.
        nonzero_cache: Dict[int, object] = {}

        def window_holds(item_id: int, lo: int, hi: int) -> bool:
            hits = nonzero_cache.get(item_id)
            if hits is None:
                hits = nonzero_cache[item_id] = np.nonzero(column(item_id))[0]
            return np.searchsorted(hits, lo) < np.searchsorted(hits, hi)

        for index in vf.anc_idx.tolist():
            # -- child aggregation: per item, virtuals' variables first, then
            #    element children in document order (the operand order of
            #    both other engines), folded by one n-ary disj per item
            virtuals = virtual_at.get(index, ())
            head_parts: Dict[int, List[FormulaLike]] = {
                item_id: [head_var(fid, item_id) for fid in virtuals]
                for item_id in head_item_ids
            }
            desc_parts: Dict[int, List[FormulaLike]] = {
                item_id: [desc_var(fid, item_id) for fid in virtuals]
                for item_id in desc_item_ids
            }
            for child in flat.element_children(index):
                if anc_mask[child]:
                    _child_ex, child_head, child_desc = sym_rows[child]
                    for item_id, parts in head_parts.items():
                        parts.append(child_head[item_id])
                    for item_id, parts in desc_parts.items():
                        parts.append(child_desc[item_id])
                else:
                    for item_id in head_by_tag[tag_ids[child]]:
                        if column(head_rest[item_id])[child]:
                            head_parts[item_id].append(True)
                    child_end = child + subtree_size[child]
                    for item_id, parts in desc_parts.items():
                        if window_holds(item_id, child, child_end):
                            parts.append(True)
            agg_head: List[FormulaLike] = [False] * n_items
            for item_id, parts in head_parts.items():
                agg_head[item_id] = disj(*parts)
            agg_desc: List[FormulaLike] = [False] * n_items
            for item_id, parts in desc_parts.items():
                agg_desc[item_id] = disj(*parts)

            # -- EX row via the same compiled item program as the kernel
            ex: List[FormulaLike] = [False] * n_items
            for instr in item_prog:
                code = instr[0]
                if code == ITEM_CHILD:
                    ex[instr[1]] = agg_head[instr[1]]
                elif code == ITEM_DESC:
                    rest = instr[2]
                    ex[instr[1]] = disj(ex[rest], agg_desc[rest])
                elif code == ITEM_EMPTY_TEXT:
                    ex[instr[1]] = text_norm[index] == instr[2]
                elif code == ITEM_EMPTY_TRUE:
                    ex[instr[1]] = True
                elif code == ITEM_EMPTY_VAL:
                    value = numeric[index]
                    ex[instr[1]] = False if value is None else instr[2](value, instr[3])
                else:  # ITEM_SELFQUAL
                    ex[instr[1]] = conj(evaluate_qual_expr(instr[2], ex), ex[instr[3]])

            sym_qual_values[index] = tuple(
                evaluate_qual_expr(qual, ex) for qual in sel_quals
            )

            head_row: List[FormulaLike] = [False] * n_items
            for item_id in head_by_tag[tag_ids[index]]:
                value = ex[head_rest[item_id]]
                if value is not False:
                    head_row[item_id] = value
            desc_row: List[FormulaLike] = [False] * n_items
            for item_id in desc_item_ids:
                value = disj(ex[item_id], agg_desc[item_id])
                if value is not False:
                    desc_row[item_id] = value
            sym_rows[index] = (ex, head_row, desc_row)

    # ------------------------------------------------------------ root rows
    if vf.anc_idx.size:
        # Virtuals exist, so the root is an ancestor of one: exact rows.
        _root_ex, root_head, root_desc = sym_rows[0]
    else:
        root_head = [False] * n_items
        if n_items:
            for item_id in tables.head_by_tag[flat.tag_id[0]]:
                if ex_at(tables.head_rest[item_id], 0):
                    root_head[item_id] = True
        root_desc = [False] * n_items
        for item_id in tables.desc_item_ids:
            # disj(EX at the root, any EX below) = any hit in [0, n)
            if column(item_id).any():
                root_desc[item_id] = True

    return QualAnalysis(sel_qual_cols, sym_qual_values, root_head, root_desc)
