"""The top-down selection half as code sweeps over sparse columns.

Selection prefix vectors depend only on the parent's vector and the current
element, so the per-position recurrence runs column at a time over the
formula-code encoding (:mod:`repro.core.vector.algebra`).  No column spans
the fragment's n rows; each is a :data:`Column` in one of two shapes:

* *rows* ``(rows, codes, False)`` — the element rows where the column is
  nonzero, in pre-order, with their (nonzero) codes;
* *runs* ``(starts, codes, True)`` — what a ``//`` step leaves: element row
  ``i`` takes the code of the last run starting at or before ``i``
  (``starts[0] == 0``; a later start wins a tie), text rows are 0.

Each step reads the previous column and works on the rows it can select:

* CHILD — the rows whose tag the step admits (``vf.rows_with_tag``, a
  view of the per-tag index) probe the previous column at their parent,
  one ``searchsorted``; the fragment root, whose parent lies outside the
  span, reads the init code;
* DESC — the previous column's rows are the *marks*.  When init and marks
  are concrete 0/1, the runs are the subtree intervals of the top-level
  marks (a mark is top-level when it lies past the running max of the
  earlier marks' ``post``).  With symbolic codes in play, one pre-order
  stack walk over the marks folds each mark's code as ``disj(code of the
  nearest enclosing mark or init, previous[mark])`` and records where each
  mark's interval opens and where it hands the rows back;
* SELFQUAL — a code conjunction on the previous rows with the qualifier
  values gathered there, symbolic rows patched in exactly.

A runs column that a SELFQUAL, a second ``//`` or the final emit must read
row by row is expanded over ``elem_idx`` first.  The emit helpers decode
codes back to Python bools / hash-consed formulas in pre-order, so answers,
candidates and the virtual parent vectors leave the site bit-identical to
the kernel's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.booleans.formula import FormulaLike
from repro.core.kernel.tables import SEL_CHILD, SEL_DESC, PlanTables
from repro.core.vector.algebra import CodeSpace
from repro.core.vector.encode import VectorFragment
from repro.xmltree.flat import FlatFragment
from repro.xpath.plan import QueryPlan

__all__ = [
    "Column",
    "selection_code_columns",
    "concrete_desc_runs",
    "emit_finals",
    "emit_virtual_vectors",
]

#: ``(rows, codes, False)`` or ``(starts, codes, True)``, see the module docstring
Column = Tuple[object, object, bool]


def selection_code_columns(
    vf: VectorFragment,
    space: CodeSpace,
    plan: QueryPlan,
    tables: PlanTables,
    init_vector: Sequence[FormulaLike],
    anchor_at_root: bool,
    qual_cols: Sequence[object],
    qual_patches: Optional[Tuple[object, object]] = None,
) -> List[Column]:
    """All ``n_steps + 1`` selection columns of one fragment.

    ``qual_cols[slot]`` holds a selection qualifier's value per row (bools
    or codes); *qual_patches*, if given, is ``(rows, codes)`` — sorted rows
    whose exact codes (``codes[slot]``) override the column there.
    """
    np = vf.np
    parent = vf.parent
    init_codes = [space.encode(value) for value in init_vector]

    cols: List[Column] = [None] * (len(tables.sel_prog) + 1)
    one = np.ones(1, dtype=np.int64)
    if anchor_at_root and vf.n:
        cols[0] = (one - 1, one, False)  # vector[0] = is_ctx, at the fragment root only
    else:
        cols[0] = (one[:0], one[:0], False)

    for instr in tables.sel_prog:
        code = instr[0]
        position = instr[1]
        previous = cols[position - 1]
        if code == SEL_CHILD:
            ok = vf.rows_with_tag(plan.selection[position - 1].tag)
            codes = _probe(np, previous, parent[ok])
            if ok.size and ok[0] == 0:
                codes[0] = init_codes[position - 1]  # the root's parent is outside
            keep = np.flatnonzero(codes)
            col = (ok[keep], codes[keep], False)
        elif code == SEL_DESC:
            init_code = init_codes[position]
            marks, mark_codes = _rows(vf, previous)
            if init_code == 1:
                col = (one - 1, one, True)  # every element selected
            elif init_code == 0 and not (mark_codes > 1).any():
                col = concrete_desc_runs(vf, marks)
            else:
                col = _desc_symbolic(vf, space, init_code, marks, mark_codes)
        else:  # SEL_SELFQUAL
            rows, codes = _rows(vf, previous)
            if rows.size:
                slot = instr[2]
                values = qual_cols[slot][rows].astype(np.int64, copy=False)
                if qual_patches is not None:
                    patch_rows, patch_codes = qual_patches
                    at, found = _lookup(np, rows, patch_rows)
                    values[at[found]] = patch_codes[slot][found]
                codes = space.conj_cols(codes, values)
                keep = np.flatnonzero(codes)
                rows, codes = rows[keep], codes[keep]
            col = (rows, codes, False)
        cols[position] = col
    return cols


def _lookup(np, keys, at):
    """Positions of the rows *at* in the sorted nonempty *keys*, and which
    of them are there."""
    positions = keys.searchsorted(at)
    np.minimum(positions, keys.size - 1, out=positions)
    return positions, keys[positions] == at


def _probe(np, col: Column, at):
    """The codes of *col* at the element rows *at* (a fresh array)."""
    keys, codes, runs = col
    if runs:
        return codes[keys.searchsorted(at, side="right") - 1]
    if not keys.size:
        return np.zeros(at.size, dtype=np.int64)
    positions, found = _lookup(np, keys, at)
    return np.where(found, codes[positions], 0)


def _rows(vf: VectorFragment, col: Column):
    """*col* as ``(rows, codes)`` of its nonzero rows, expanding runs."""
    keys, codes, runs = col
    if not runs:
        return keys, codes
    codes = _probe(vf.np, col, vf.elem_idx)
    keep = vf.np.flatnonzero(codes)
    return vf.elem_idx[keep], codes[keep]


def concrete_desc_runs(vf: VectorFragment, marks) -> Column:
    """A ``//`` step's column for 0/1 inputs: 1 on every element of some
    mark's subtree interval ``[mark, post[mark])``, else 0.

    Only top-level marks open a run: a mark inside an earlier mark's
    interval lies before the running max of the earlier ``post`` values.
    """
    np = vf.np
    if not marks.size:
        return marks, marks, False
    ends = vf.post[marks]
    top = np.ones(marks.size, dtype=bool)
    top[1:] = marks[1:] >= np.maximum.accumulate(ends)[:-1]
    opens = marks[top]
    starts = np.zeros(2 * opens.size + 1, dtype=np.int64)
    starts[1::2] = opens
    starts[2::2] = ends[top]
    codes = np.zeros(starts.size, dtype=np.int64)
    codes[1::2] = 1
    return starts, codes, True


def _desc_symbolic(vf: VectorFragment, space: CodeSpace, init_code: int, marks, mark_codes):
    """A ``//`` step's runs when init or a mark is a residual formula.

    Below a mark, an element's value is its nearest enclosing mark's, so the
    rows split into pre-order runs owned by one mark (or by none: init).  A
    stack walk over the marks records where each run starts — where a
    mark's interval opens, and where it closes and hands the rows back to
    the enclosing mark.  Starts come out in pre-order, a later one winning
    a tie.  Operand order matches the kernel's ``disj(parent, below)``.
    """
    np = vf.np
    starts = [0]
    codes = [init_code]
    stack: List[tuple] = []  # (post, code) of the open marks, innermost last
    # a last mark at n (below = False) closes every interval still open
    for mark, end, below in zip(
        marks.tolist() + [vf.n], vf.post[marks].tolist() + [vf.n], mark_codes.tolist() + [0]
    ):
        while stack and stack[-1][0] <= mark:
            starts.append(stack.pop()[0])
            codes.append(stack[-1][1] if stack else init_code)
        value = space.disj_code(stack[-1][1] if stack else init_code, below)
        stack.append((end, value))
        starts.append(mark)
        codes.append(value)
    return np.asarray(starts, dtype=np.int64), np.asarray(codes, dtype=np.int64), True


def emit_finals(
    vf: VectorFragment,
    space: CodeSpace,
    final_col: Column,
    node_ids: Sequence,
    answers: List,
    candidates: Dict,
) -> None:
    """Split the final column into answers / residual candidates, pre-order.

    No per-row Python code runs: rows are split by one mask and decoded
    through the code table with C-level ``map`` / ``zip``.
    """
    rows, codes = _rows(vf, final_col)
    if not rows.size:
        return
    definite = codes == 1
    answers.extend(map(node_ids.__getitem__, rows[definite].tolist()))
    residual = ~definite
    candidates.update(zip(
        map(node_ids.__getitem__, rows[residual].tolist()),
        space.decode_all(codes[residual].tolist()),
    ))


def emit_virtual_vectors(
    space: CodeSpace,
    cols: Sequence[Column],
    flat: FlatFragment,
    out: Dict[str, List[FormulaLike]],
) -> None:
    """Decode the selection vector at every virtual cut point, pre-order:
    one probe per column at all the cut points at once."""
    virtual_at = flat.virtual_at
    if not virtual_at:
        return
    np = space.np
    at = np.asarray(flat.virtual_indices, dtype=np.int64)
    by_col = [_probe(np, col, at).tolist() for col in cols]
    for index, codes in zip(flat.virtual_indices, zip(*by_col)):
        values = tuple(space.decode_all(codes))
        for child_fragment_id in virtual_at[index]:
            out[child_fragment_id] = list(values)
