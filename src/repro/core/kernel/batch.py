"""Fused multi-query kernels: walk each fragment once per query wave.

The single-query kernels in this package make one pass over a fragment fast;
a serving system runs *many* queries over the same fragments, and N in-flight
queries would still pay N independent walks of the same flat arrays.  The
batch kernel amortizes everything that does not depend on the query across a
whole wave:

* the structural walk itself — node kinds, parent links, subtree sizes,
  virtual-child lookups, the ``element_children`` folds of the reverse walk
  are read **once per node**, not once per node per query;
* the per-tag dispatch — :class:`BatchPlanTables` merges the per-query
  :class:`~repro.core.kernel.tables.PlanTables` into one fused table per
  (wave, document): the ``sel_child_ok`` columns of all queries are stacked
  into a single per-tag tuple (indexed through per-query step offsets) and
  the ``head_by_tag`` item ids are unified into one per-tag structure with
  the ``rest`` ids inlined, so each node does one table lookup for the whole
  wave and the results demux by query slot;
* dead subtrees — once **every** query's selection prefix is concretely
  false at a node, the forward walk jumps the whole subtree
  (``subtree_size``), which no per-query pass can do for the wave as a
  whole.

Callers deduplicate exact-duplicate plans (same
:attr:`~repro.xpath.plan.QueryPlan.fingerprint`) to a single kernel slot
before fusion — see :func:`repro.core.batch.run_pax2_batch` and the service
batcher — so a wave of N queries with d distinct forms pays d slots, one
walk.

Per-query semantics are exactly those of
:func:`~repro.core.kernel.combined.evaluate_fragment_combined_flat`: the
same node order, the same fold order, the same lazily materialized ``qz:``
placeholders and local resolution, so every
:class:`~repro.core.combined.FragmentCombinedOutput` in the returned list is
bit-identical to what the single-query kernel produces for that plan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.booleans.env import Environment
from repro.booleans.formula import FormulaLike, conj, disj, is_false, is_true
from repro.core.combined import FragmentCombinedOutput, _LazyPlaceholders
from repro.core.kernel.combined import evaluate_fragment_combined_flat
from repro.core.kernel.qualifier import fold_child_rows
from repro.core.kernel.tables import (
    ITEM_CHILD,
    ITEM_DESC,
    ITEM_EMPTY_TEXT,
    ITEM_EMPTY_TRUE,
    ITEM_EMPTY_VAL,
    SEL_CHILD,
    SEL_DESC,
    PlanTables,
    plan_tables,
)
from repro.core.variables import desc_var, head_var
from repro.fragments.fragment import Fragment
from repro.xmltree.flat import KIND_ELEMENT, FlatFragment
from repro.xpath.plan import QueryPlan, evaluate_qual_expr

__all__ = ["BatchPlanTables", "batch_plan_tables", "evaluate_fragment_combined_batch"]


class BatchPlanTables:
    """The dispatch tables of a whole query wave, fused per document.

    Built on top of the (cached) per-query :class:`PlanTables`; the fused
    structures exist so the inner loops of the batch kernel touch one object
    per node for the entire wave instead of one per node per query.
    """

    __slots__ = (
        "tables",
        "n_queries",
        "item_offsets",
        "step_offsets",
        "total_items",
        "total_steps",
        "sel_child_ok",
        "head_by_tag",
    )

    def __init__(self, flat: FlatFragment, plans: Sequence[QueryPlan]):
        self.tables: Tuple[PlanTables, ...] = tuple(
            plan_tables(flat, plan) for plan in plans
        )
        self.n_queries = len(plans)

        # Per-query offsets into the stacked step/item spaces: slot q's
        # selection position p lives at step_offsets[q] + p, which is how a
        # single per-tag row serves the whole wave and results demux back to
        # their query.
        item_offsets: List[int] = []
        step_offsets: List[int] = []
        items_total = 0
        steps_total = 0
        for plan in plans:
            item_offsets.append(items_total)
            items_total += plan.n_items
            step_offsets.append(steps_total)
            steps_total += plan.n_steps + 1
        self.item_offsets: Tuple[int, ...] = tuple(item_offsets)
        self.step_offsets: Tuple[int, ...] = tuple(step_offsets)
        self.total_items = items_total
        self.total_steps = steps_total

        n_tags = len(flat.tags)
        #: per tag, every query's ``sel_child_ok`` column stacked into one
        #: tuple (one lookup per node for the whole wave)
        self.sel_child_ok: List[Tuple[bool, ...]] = [
            tuple(ok for t in self.tables for ok in t.sel_child_ok[tid])
            for tid in range(n_tags)
        ]
        #: per tag, the union of the queries' HEAD item ids, grouped by query
        #: slot with each item's ``rest`` id inlined: ((item_id, rest_id), ...)
        self.head_by_tag: List[Tuple[Tuple[Tuple[int, int], ...], ...]] = [
            tuple(
                tuple((item_id, t.head_rest[item_id]) for item_id in t.head_by_tag[tid])
                for t in self.tables
            )
            for tid in range(n_tags)
        ]


#: per-document cap on cached fused tables; wave compositions vary with
#: traffic timing, so this cache is kept separate from (and smaller than)
#: the single-query PlanTables cache it is built on top of — a churn of
#: one-off waves can never evict a hot per-plan entry
_MAX_BATCH_TABLES_PER_DOCUMENT = 64


def batch_plan_tables(flat: FlatFragment, plans: Sequence[QueryPlan]) -> BatchPlanTables:
    """The (cached) fused tables of a wave of plans over *flat*'s document.

    Keyed by the tuple of plan fingerprints, in wave order.  The kernel
    entry point sorts waves into canonical fingerprint order before calling
    in, so the same *set* of in-flight queries hits one cache entry no
    matter the order requests arrived in.  As with
    :func:`~repro.core.kernel.tables.plan_tables`, an entry fused before the
    document's tag table grew is rebuilt, never indexed past its rows.
    """
    key = tuple(plan.fingerprint for plan in plans)
    cache = flat.tag_table.batch_tables
    tables = cache.get(key)
    if tables is None or len(tables.head_by_tag) < len(flat.tags):
        if tables is None:
            while len(cache) >= _MAX_BATCH_TABLES_PER_DOCUMENT:
                cache.pop(next(iter(cache)))  # FIFO: oldest wave's tables go first
        tables = cache[key] = BatchPlanTables(flat, plans)
    return tables


def evaluate_fragment_combined_batch(
    fragment: Fragment,
    flat: FlatFragment,
    plans: Sequence[QueryPlan],
    init_vectors: Sequence[Sequence[FormulaLike]],
    is_root_fragment: bool,
) -> List[FragmentCombinedOutput]:
    """Combined pre/post-order pass for a whole wave, one walk of *flat*.

    ``plans[q]`` is evaluated with ``init_vectors[q]``; the returned list is
    index-aligned with the wave.  Callers should deduplicate identical plans
    (same fingerprint and init vector) to one slot first — this function
    evaluates every slot it is given.
    """
    if not plans:
        return []
    if len(plans) == 1:
        # A wave of one is exactly the single-query kernel.
        return [
            evaluate_fragment_combined_flat(
                fragment, flat, plans[0], init_vectors[0], is_root_fragment
            )
        ]
    # Canonicalize the wave to fingerprint order: per-slot evaluation is
    # fully independent, so the result only needs demuxing back, and the
    # fused-table cache key stops depending on the (timing-dependent) order
    # requests reached the batcher in.
    order = sorted(range(len(plans)), key=lambda q: plans[q].fingerprint)
    if order != list(range(len(plans))):
        ordered = _evaluate_wave(
            fragment,
            flat,
            [plans[q] for q in order],
            [init_vectors[q] for q in order],
            is_root_fragment,
        )
        outputs: List[Optional[FragmentCombinedOutput]] = [None] * len(plans)
        for position, q in enumerate(order):
            outputs[q] = ordered[position]
        return outputs
    return _evaluate_wave(fragment, flat, plans, init_vectors, is_root_fragment)


def _evaluate_wave(
    fragment: Fragment,
    flat: FlatFragment,
    plans: Sequence[QueryPlan],
    init_vectors: Sequence[Sequence[FormulaLike]],
    is_root_fragment: bool,
) -> List[FragmentCombinedOutput]:
    """The fused walk proper, over a canonically ordered wave."""
    nq = len(plans)
    batch = batch_plan_tables(flat, plans)
    tables = batch.tables
    step_offsets = batch.step_offsets
    sel_child_ok = batch.sel_child_ok

    outputs = [FragmentCombinedOutput(fragment_id=fragment.fragment_id) for _ in plans]

    n = flat.n
    kind = flat.kind
    tag_ids = flat.tag_id
    parent = flat.parent
    subtree_size = flat.subtree_size
    node_ids = flat.node_ids
    virtual_at = flat.virtual_at
    has_virtuals = bool(virtual_at)

    n_items = [plan.n_items for plan in plans]
    n_steps = [plan.n_steps for plan in plans]
    vec_lens = [plan.n_steps + 1 for plan in plans]
    has_quals = [plan.has_qualifiers for plan in plans]
    anchors = [is_root_fragment and not plan.absolute for plan in plans]
    false_vectors: List[Tuple[bool, ...]] = [(False,) * vl for vl in vec_lens]
    init_lists = [list(vector) for vector in init_vectors]
    local_envs = [Environment() for _ in plans]
    pending_finals: List[List[tuple]] = [[] for _ in plans]
    pending_virtual: List[Dict[str, List[FormulaLike]]] = [{} for _ in plans]
    vectors: List[List[Optional[Sequence[FormulaLike]]]] = [[None] * n for _ in plans]
    placeholders_at: List[Optional[List[Optional[_LazyPlaceholders]]]] = [
        [None] * n if hq else None for hq in has_quals
    ]
    no_quals: Sequence[FormulaLike] = ()
    q_range = tuple(range(nq))

    # ---------------------------------------------------------- forward walk
    # (selection prefix vectors for every query, one pass over the span)
    index = 0
    while index < n:
        if kind[index] != KIND_ELEMENT:
            index += 1
            continue
        parent_index = parent[index]
        at_root = parent_index < 0
        ok_all = sel_child_ok[tag_ids[index]]
        virtuals = virtual_at.get(index) if has_virtuals else None
        all_dead = True
        for q in q_range:
            false_vector = false_vectors[q]
            parent_vector = init_lists[q] if at_root else vectors[q][parent_index]
            is_ctx = anchors[q] and at_root
            if parent_vector is false_vector and not is_ctx:
                # Dead prefix for this query (same short-circuit as the
                # single-query kernel).
                vectors[q][index] = false_vector
                if virtuals is not None:
                    pv = pending_virtual[q]
                    vl = vec_lens[q]
                    for child_fragment_id in virtuals:
                        pv[child_fragment_id] = [False] * vl
                continue
            all_dead = False
            if has_quals[q]:
                placeholders: Sequence[FormulaLike] = _LazyPlaceholders(node_ids[index])
                placeholders_at[q][index] = placeholders
            else:
                placeholders = no_quals
            vector: List[FormulaLike] = [False] * vec_lens[q]
            vector[0] = is_ctx
            all_false = not is_ctx
            base = step_offsets[q]
            qual_index = 0
            for instr in tables[q].sel_prog:
                code = instr[0]
                position = instr[1]
                if code == SEL_CHILD:
                    previous = parent_vector[position - 1]
                    if previous is not False and ok_all[base + position]:
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
            final = vector[n_steps[q]]
            if final is not False and not is_false(final):
                pending_finals[q].append((node_ids[index], final))
            if virtuals is not None:
                pv = pending_virtual[q]
                for child_fragment_id in virtuals:
                    pv[child_fragment_id] = list(vector)
            vectors[q][index] = false_vectors[q] if all_false else vector

        if all_dead:
            # Every query's prefix is concretely false here, so every
            # descendant's vector is all-false for every query: jump the
            # subtree, emitting the all-false vectors at any virtual nodes
            # inside the skipped range (exactly what the per-node walk would
            # have produced).
            end = index + subtree_size[index]
            if has_virtuals:
                for at in flat.virtuals_in(index + 1, end):
                    for child_fragment_id in virtual_at[at]:
                        for q in q_range:
                            pending_virtual[q][child_fragment_id] = [False] * vec_lens[q]
            index = end
        else:
            index += 1

    # ---------------------------------------------------------- reverse walk
    # (qualifier vectors bottom-up for the queries that have qualifiers; the
    # structural reads — children, text, numeric, virtuals — are shared)
    qual_qs = tuple(q for q in q_range if has_quals[q])
    head_roots: List[Optional[object]] = [None] * nq
    desc_roots: List[Optional[object]] = [None] * nq
    if qual_qs:
        text_norm = flat.text_norm
        numeric = flat.numeric
        head_by_tag = batch.head_by_tag
        head_at: Dict[int, List[Optional[object]]] = {q: [None] * n for q in qual_qs}
        desc_at: Dict[int, List[Optional[object]]] = {q: [None] * n for q in qual_qs}

        for index in range(n - 1, -1, -1):
            if kind[index] != KIND_ELEMENT:
                continue
            virtuals = virtual_at.get(index) if has_virtuals else None
            children = tuple(flat.element_children(index))
            tn = text_norm[index]
            num = numeric[index]
            head_groups = head_by_tag[tag_ids[index]]
            for q in qual_qs:
                t = tables[q]
                ni = n_items[q]
                head_item_ids = t.head_item_ids
                desc_item_ids = t.desc_item_ids
                false_row = t.false_items
                h_at = head_at[q]
                d_at = desc_at[q]

                head_rows: List[object] = []
                desc_rows: List[object] = []
                for child in children:
                    child_head = h_at[child]
                    child_desc = d_at[child]
                    h_at[child] = None
                    d_at[child] = None
                    if child_head is not false_row:
                        head_rows.append(child_head)
                    if child_desc is not false_row:
                        desc_rows.append(child_desc)
                agg_h = agg_d = false_row
                if virtuals is not None or head_rows:
                    agg_h = fold_child_rows(virtuals, head_var, head_rows, head_item_ids, ni)
                if virtuals is not None or desc_rows:
                    agg_d = fold_child_rows(virtuals, desc_var, desc_rows, desc_item_ids, ni)

                ex: List[FormulaLike] = [False] * ni
                for instr in t.item_prog:
                    code = instr[0]
                    if code == ITEM_CHILD:
                        ex[instr[1]] = agg_h[instr[1]]
                    elif code == ITEM_DESC:
                        rest = instr[2]
                        ex[instr[1]] = disj(ex[rest], agg_d[rest])
                    elif code == ITEM_EMPTY_TEXT:
                        ex[instr[1]] = tn == instr[2]
                    elif code == ITEM_EMPTY_TRUE:
                        ex[instr[1]] = True
                    elif code == ITEM_EMPTY_VAL:
                        ex[instr[1]] = False if num is None else instr[2](num, instr[3])
                    else:  # ITEM_SELFQUAL
                        ex[instr[1]] = conj(evaluate_qual_expr(instr[2], ex), ex[instr[3]])

                lazy = placeholders_at[q][index]
                if lazy is not None and lazy.created:
                    created = lazy.created
                    values = tuple(evaluate_qual_expr(qual, ex) for qual in t.sel_quals)
                    env = local_envs[q]
                    for slot in created:
                        env.bind(created[slot].name, values[slot])

                head_row: object = false_row
                matching = head_groups[q]
                if matching:
                    row: Optional[List[FormulaLike]] = None
                    for item_id, rest in matching:
                        value = ex[rest]
                        if value is not False:
                            if row is None:
                                row = [False] * ni
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
                                row = [False] * ni
                            row[item_id] = value
                    if row is not None:
                        desc_row = row
                h_at[index] = head_row
                d_at[index] = desc_row

        for q in qual_qs:
            head_roots[q] = head_at[q][0]
            desc_roots[q] = desc_at[q][0]

    # ---------------------------------------------------------- resolution
    for q in q_range:
        output = outputs[q]
        plan = plans[q]
        hq = has_quals[q]
        if hq:
            root_head = head_roots[q]
            root_desc = desc_roots[q]
            output.root_head = list(root_head) if type(root_head) is tuple else root_head
            output.root_desc = list(root_desc) if type(root_desc) is tuple else root_desc
        else:
            output.root_head = [False] * n_items[q]
            output.root_desc = [False] * n_items[q]
        env = local_envs[q]
        for node_id, final in pending_finals[q]:
            resolved = env.resolve(final) if hq else final
            if is_true(resolved):
                output.answers.append(node_id)
            elif not is_false(resolved):
                output.candidates[node_id] = resolved
        for child_fragment_id, vector in pending_virtual[q].items():
            output.virtual_parent_vectors[child_fragment_id] = (
                env.resolve_vector(vector) if hq else vector
            )
        output.operations = flat.n_elements * max(1, plan.n_items + plan.n_steps + 1)
        output.root_vector_units = len(plan.head_item_ids) + len(plan.desc_item_ids)
    return outputs
