"""Plans compiled to window-program row sets over one VectorFragment.

The kernel compiles a plan to per-tag dispatch *tables*
(:mod:`repro.core.kernel.tables`); the vector tier compiles one step
further, to the element *rows* each step can touch:

* ``ok_rows[position]`` — for every CHILD selection step, the element rows
  (pre-order) whose tag the step matches (``sel_child_ok`` looked up
  through the tag_id column once, instead of per node);
* ``child_rows[item_id]`` — for every CHILD qualifier item, the candidate
  element rows from the per-tag sorted index (a ``searchsorted`` CSR slice,
  or all elements for a wildcard).

EMPTY qualifier items read their terminal test column straight from the
fragment-shared test-mask cache (:meth:`VectorFragment.test_mask`), so
duplicate tests across plans all scan one array.

Programs are cached on the VectorFragment keyed by the plan's normalized
fingerprint — the same key the kernel tables use.
"""

from __future__ import annotations

from typing import Dict

from repro.core.kernel.tables import SEL_CHILD, PlanTables
from repro.core.vector.encode import _MAX_PROGRAMS, VectorFragment
from repro.xpath.plan import CHILD, QueryPlan

__all__ = ["VectorProgram", "vector_program"]


class VectorProgram:
    """One plan's window row sets over one fragment's encoding."""

    __slots__ = ("ok_rows", "child_rows")

    def __init__(self, vf: VectorFragment, plan: QueryPlan, tables: PlanTables):
        np = vf.np
        # (n_tags, n_steps+1) gate table, looked up once per element row
        ok_table = np.asarray(tables.sel_child_ok, dtype=bool)
        rows = vf.elem_idx
        row_tags = vf.tag_id[rows]
        self.ok_rows: Dict[int, object] = {
            instr[1]: rows[ok_table[row_tags, instr[1]]]
            for instr in tables.sel_prog
            if instr[0] == SEL_CHILD
        }
        self.child_rows: Dict[int, object] = {
            item.item_id: vf.rows_with_tag(item.tag)
            for item in plan.items
            if item.kind == CHILD
        }


def vector_program(vf: VectorFragment, plan: QueryPlan, tables: PlanTables) -> VectorProgram:
    """The (cached, bounded) window program of *plan* over *vf*."""
    key = plan.fingerprint
    cache = vf._programs
    program = cache.get(key)
    if program is None:
        program = VectorProgram(vf, plan, tables)
        while len(cache) >= _MAX_PROGRAMS:
            cache.pop(next(iter(cache)))  # FIFO, matching the kernel tables
        cache[key] = program
    return program
