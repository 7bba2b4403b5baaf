"""The top-down selection half as whole-column code sweeps.

Selection prefix vectors depend only on the parent's vector and the current
element, so the per-position recurrence runs column at a time over the
formula-code encoding (:mod:`repro.core.vector.algebra`):

* CHILD — one parent gather (``padded[parent]``; the fragment root's
  ``-1`` parent indexes the appended init code) masked by the precompiled
  per-tag gate column;
* DESC — when the inputs are concrete 0/1, the staircase cover mask: the
  marked rows' subtree intervals cover exactly the rows whose
  ancestor-or-self chain hits a mark (plus the init short-circuit).  With
  symbolic codes in play, a level-by-level top-down sweep folds
  ``disj(parent_value, below)`` one whole level at a time;
* SELFQUAL — an elementwise code conjunction with the qualifier value
  column.

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
            # The fragment root's parent is -1: appending the init code
            # makes the gather read it there, everyone else reads their
            # parent's column entry.
            padded = np.append(previous, init_codes[position - 1])
            col = np.where(program.ok_cols[position], padded[parent], 0)
        elif code == SEL_DESC:
            init_code = init_codes[position]
            if init_code <= 1 and not (previous > 1).any():
                # Concrete: value(v) = init | any(previous on the
                # ancestor-or-self chain) — the staircase cover mask.
                if init_code == 1:
                    col = elem.astype(np.int64)
                else:
                    covered = vf.cover_mask(np.nonzero(previous == 1)[0])
                    col = (covered & elem).astype(np.int64)
            else:
                # Symbolic: parents precede children level by level, so
                # each level folds disj(parent_value, below) in one column
                # operation (operand order matches the kernel).
                col = np.zeros(n, dtype=np.int64)
                at_root = True
                for group in vf.level_groups():
                    if at_root:
                        col[0] = space.disj_code(init_code, int(previous[0]))
                        at_root = False
                    else:
                        col[group] = space.disj_cols(
                            col[parent[group]], previous[group]
                        )
        else:  # SEL_SELFQUAL
            col = space.conj_cols(previous, qual_cols[instr[2]])
        cols[position] = col
    return cols


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
