"""Precompiled dispatch tables for the columnar per-fragment kernels.

The object-tree passes re-interpret the :class:`~repro.xpath.plan.QueryPlan`
at every node: each qualifier item re-reads its dataclass attributes, each
CHILD step re-runs ``matches_tag`` against the node's tag string, and each
terminal ``text()``/``val()`` test re-normalizes the node's text.  The
kernels instead compile the plan once per (plan, document) pair — tag ids
are document-wide (:class:`~repro.xmltree.flat.TagTable`), so one compiled
set serves every fragment of the document:

* ``item_prog`` / ``sel_prog`` — the qualifier items and selection steps
  flattened to tuples of ints and payloads, so the inner loop dispatches on
  a small integer instead of string kinds and attribute lookups;
* ``head_by_tag[tag_id]`` — for every tag of the document, the qualifier
  item ids whose CHILD step can match that tag (wildcards included), so the
  HEAD loop touches only items that can match the current element;
* ``sel_child_ok[tag_id]`` — per selection position, whether a CHILD step at
  that position matches the tag, replacing per-node tag comparisons with a
  precomputed boolean lookup.

Tables are cached on the document's tag table (every
:class:`~repro.xmltree.flat.FlatFragment` of the document references it,
re-encodes after a write and pinned MVCC snapshots included), keyed by the
plan's *normalized fingerprint* (:attr:`QueryPlan.fingerprint`):
compilation is deterministic from the normalized path, so trivially
different spellings of the same query (``//a/./b`` vs ``//a/b``) share one
set of compiled tables.  The same fingerprint is the dedup key the
service's batcher uses to collapse duplicate passes to one.  A never-seen
query therefore compiles once per document, not once per fragment, and at
most :data:`_MAX_TABLES_PER_DOCUMENT` sets are alive per document however
many fragments it has.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.xmltree.flat import FlatFragment
from repro.xpath.plan import CHILD, DESC, EMPTY, SELFQUAL, QueryPlan
from repro.xpath.runtime import _NUMERIC_OPS

__all__ = [
    "PlanTables",
    "plan_tables",
    "ITEM_EMPTY_TRUE",
    "ITEM_EMPTY_TEXT",
    "ITEM_EMPTY_VAL",
    "ITEM_CHILD",
    "ITEM_DESC",
    "ITEM_SELFQUAL",
    "SEL_CHILD",
    "SEL_DESC",
    "SEL_SELFQUAL",
]

# Qualifier-item opcodes (``item_prog`` rows).
ITEM_EMPTY_TRUE = 0   # (code, item_id)                EX = True
ITEM_EMPTY_TEXT = 1   # (code, item_id, value)         EX = text_norm == value
ITEM_EMPTY_VAL = 2    # (code, item_id, op, number)    EX = op(numeric, number)
ITEM_CHILD = 3        # (code, item_id)                EX = agg_head[item_id]
ITEM_DESC = 4         # (code, item_id, rest)          EX = ex[rest] | agg_desc[rest]
ITEM_SELFQUAL = 5     # (code, item_id, qual, rest)    EX = eval(qual) & ex[rest]

# Selection-step opcodes (``sel_prog`` rows; position is 1-based).
SEL_CHILD = 0         # (code, position)               gate on sel_child_ok
SEL_DESC = 1          # (code, position)
SEL_SELFQUAL = 2      # (code, position, qual_index)


class PlanTables:
    """One plan compiled against one document's tag table (as of its length
    at compile time: the per-tag lists have one row per tag then known)."""

    __slots__ = (
        "item_prog",
        "sel_prog",
        "sel_quals",
        "head_item_ids",
        "desc_item_ids",
        "head_rest",
        "false_items",
        "head_by_tag",
        "sel_child_ok",
    )

    def __init__(self, flat: FlatFragment, plan: QueryPlan):
        items = plan.items
        prog: List[tuple] = []
        for item in items:
            if item.kind == EMPTY:
                test = item.test
                if test is None:
                    prog.append((ITEM_EMPTY_TRUE, item.item_id))
                elif test[0] == "text":
                    prog.append((ITEM_EMPTY_TEXT, item.item_id, test[2]))
                else:  # "val"
                    prog.append(
                        (ITEM_EMPTY_VAL, item.item_id, _NUMERIC_OPS[test[1]], test[2])
                    )
            elif item.kind == CHILD:
                prog.append((ITEM_CHILD, item.item_id))
            elif item.kind == DESC:
                prog.append((ITEM_DESC, item.item_id, item.rest))
            elif item.kind == SELFQUAL:
                prog.append((ITEM_SELFQUAL, item.item_id, item.qual, item.rest))
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown item kind {item.kind!r}")
        self.item_prog: Tuple[tuple, ...] = tuple(prog)

        sel_prog: List[tuple] = []
        sel_quals: List[object] = []
        for position, step in enumerate(plan.selection, start=1):
            if step.kind == CHILD:
                sel_prog.append((SEL_CHILD, position))
            elif step.kind == DESC:
                sel_prog.append((SEL_DESC, position))
            elif step.kind == SELFQUAL:
                sel_prog.append((SEL_SELFQUAL, position, len(sel_quals)))
                sel_quals.append(step.qual)
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown selection step kind {step.kind!r}")
        self.sel_prog: Tuple[tuple, ...] = tuple(sel_prog)
        self.sel_quals: Tuple[object, ...] = tuple(sel_quals)

        self.head_item_ids: Tuple[int, ...] = tuple(plan.head_item_ids)
        self.desc_item_ids: Tuple[int, ...] = tuple(plan.desc_item_ids)
        #: item id -> its ``rest`` id (HEAD takes EX of the remaining suffix)
        self.head_rest = {item_id: items[item_id].rest for item_id in self.head_item_ids}
        #: shared all-false qualifier row (read-only: a tuple cannot be mutated)
        self.false_items: Tuple[bool, ...] = (False,) * plan.n_items

        # One row per tag of the document.  A tag the plan does not name
        # matches wildcards only, so all such tags share one row; only the
        # (few) named tags get a row of their own.
        def head_row(tag: Optional[str]) -> Tuple[int, ...]:
            return tuple(
                item_id
                for item_id in self.head_item_ids
                if items[item_id].tag is None or items[item_id].tag == tag
            )

        def ok_row(tag: Optional[str]) -> Tuple[bool, ...]:
            return (False,) + tuple(
                step.kind == CHILD and (step.tag is None or step.tag == tag)
                for step in plan.selection
            )

        n_tags = len(flat.tags)
        tag_ids = flat.tag_table.index
        self.head_by_tag: List[Tuple[int, ...]] = [head_row(None)] * n_tags
        for tag in {items[item_id].tag for item_id in self.head_item_ids}:
            if tag in tag_ids:
                self.head_by_tag[tag_ids[tag]] = head_row(tag)
        self.sel_child_ok: List[Tuple[bool, ...]] = [ok_row(None)] * n_tags
        for tag in {step.tag for step in plan.selection if step.kind == CHILD}:
            if tag in tag_ids:
                self.sel_child_ok[tag_ids[tag]] = ok_row(tag)


#: per-document cap on cached PlanTables; the service can see an unbounded
#: stream of distinct queries, so the cache must not grow with it
_MAX_TABLES_PER_DOCUMENT = 256


def plan_tables(flat: FlatFragment, plan: QueryPlan) -> PlanTables:
    """The (cached, bounded) dispatch tables of *plan* over *flat*'s document.

    The tag table is append-only, so an entry compiled before a write added
    tags is merely short: it is recompiled (in its FIFO place) before any
    fragment could index it with an id it has no row for.
    """
    key = plan.fingerprint
    cache = flat.tag_table.plan_tables
    tables = cache.get(key)
    if tables is None or len(tables.head_by_tag) < len(flat.tags):
        if tables is None:
            while len(cache) >= _MAX_TABLES_PER_DOCUMENT:
                cache.pop(next(iter(cache)))  # FIFO: oldest query's tables go first
        tables = cache[key] = PlanTables(flat, plan)
    return tables
