"""The top-down selection half as code sweeps over the rows a step can select.

Selection prefix vectors depend only on the parent's vector and the current
element, so the per-position recurrence runs column at a time over the
formula-code encoding (:mod:`repro.core.vector.algebra`), touching only
rows that can come out nonzero:

* CHILD — the rows whose tag the step admits (``program.ok_rows``) read
  their parent's entry of the previous column; the fragment root, whose
  parent lies outside the span, reads the init code;
* DESC — the previous column's nonzero rows are the *marks*.  When the
  inputs are concrete 0/1, the staircase cover mask: the marks' subtree
  intervals cover exactly the rows whose ancestor-or-self chain hits a
  mark (plus the init short-circuit).  With symbolic codes in play, one
  pre-order stack walk over the marks folds each mark's code as
  ``disj(code of the nearest enclosing mark or init, previous[mark])``,
  and every element takes its innermost enclosing mark's code (or init)
  in one gather;
* SELFQUAL — a code conjunction with the qualifier value column on the
  previous column's nonzero rows.

The emit helpers decode codes back to Python bools / hash-consed formulas
in pre-order, so answers, candidates and the virtual parent vectors leave
the site bit-identical to the kernel's.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.booleans.formula import FormulaLike
from repro.core.kernel.tables import SEL_CHILD, SEL_DESC, PlanTables
from repro.core.vector.algebra import CodeSpace
from repro.core.vector.encode import VectorFragment
from repro.core.vector.program import VectorProgram
from repro.xmltree.flat import FlatFragment

__all__ = ["selection_code_columns", "emit_finals", "emit_virtual_vectors"]


def selection_code_columns(
    vf: VectorFragment,
    space: CodeSpace,
    tables: PlanTables,
    program: VectorProgram,
    init_vector: Sequence[FormulaLike],
    anchor_at_root: bool,
    qual_cols: Sequence[object],
) -> List[object]:
    """All ``n_steps + 1`` selection code columns of one fragment."""
    np = vf.np
    n = vf.n
    parent = vf.parent
    elem = vf.elem
    init_codes = [space.encode(value) for value in init_vector]

    cols: List[object] = [None] * (len(tables.sel_prog) + 1)
    col = np.zeros(n, dtype=np.int64)
    if anchor_at_root and n:
        col[0] = 1  # vector[0] = is_ctx, at the fragment root only
    cols[0] = col

    for instr in tables.sel_prog:
        code = instr[0]
        position = instr[1]
        previous = cols[position - 1]
        if code == SEL_CHILD:
            col = np.zeros(n, dtype=np.int64)
            ok = program.ok_rows[position]
            col[ok] = previous[parent[ok]]
            if ok.size and ok[0] == 0:
                col[0] = init_codes[position - 1]  # the root's parent is outside
        elif code == SEL_DESC:
            init_code = init_codes[position]
            marks = np.flatnonzero(previous)
            mark_codes = previous[marks]
            if init_code == 1:
                col = elem.astype(np.int64)
            elif init_code == 0 and not (mark_codes > 1).any():
                # Concrete: value(v) = any(previous on the ancestor-or-self
                # chain) — the staircase cover mask.
                col = (vf.cover_mask(marks) & elem).astype(np.int64)
            else:
                col = _desc_symbolic(vf, space, init_code, marks, mark_codes)
        else:  # SEL_SELFQUAL
            col = np.zeros(n, dtype=np.int64)
            rows = np.flatnonzero(previous)
            col[rows] = space.conj_cols(previous[rows], qual_cols[instr[2]][rows])
        cols[position] = col
    return cols


def _desc_symbolic(vf: VectorFragment, space: CodeSpace, init_code: int, marks, mark_codes):
    """A ``//`` step's column when init or a mark is a residual formula.

    Below a mark, an element's value is its nearest enclosing mark's, so the
    rows split into pre-order runs owned by one mark (or by none: init).  A
    stack walk over the marks records where each run starts — where a
    mark's interval opens, and where it closes and hands the rows back to
    the enclosing mark.  Starts come out in pre-order, a later one winning
    a tie, so one ``searchsorted`` gathers every row's owner.  Operand
    order matches the kernel's ``disj(parent, below)``.
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
    owner = np.searchsorted(np.asarray(starts, dtype=np.int64), vf.pre, side="right") - 1
    return np.where(vf.elem, np.asarray(codes, dtype=np.int64)[owner], 0)


def emit_finals(
    space: CodeSpace,
    final_col,
    node_ids: Sequence,
    answers: List,
    candidates: Dict,
) -> None:
    """Split the final column into answers / residual candidates, pre-order.

    No per-row Python code runs: rows are split by one mask and decoded
    through the code table with C-level ``map`` / ``zip``.
    """
    rows = space.np.nonzero(final_col)[0]
    if not rows.size:
        return
    codes = final_col[rows]
    definite = codes == 1
    answers.extend(map(node_ids.__getitem__, rows[definite].tolist()))
    residual = ~definite
    candidates.update(zip(
        map(node_ids.__getitem__, rows[residual].tolist()),
        space.decode_all(codes[residual].tolist()),
    ))


def emit_virtual_vectors(
    space: CodeSpace,
    cols: Sequence[object],
    flat: FlatFragment,
    out: Dict[str, List[FormulaLike]],
) -> None:
    """Decode the selection vector at every virtual cut point, pre-order."""
    virtual_at = flat.virtual_at
    if not virtual_at:
        return
    for at in flat.virtual_indices:
        values = [space.decode(int(col[at])) for col in cols]
        for child_fragment_id in virtual_at[at]:
            out[child_fragment_id] = list(values)
