"""Shared helpers for the algorithm orchestrators (PaX3, PaX2, ParBoX, naive)."""

from __future__ import annotations

import gc
import time
from bisect import bisect_left
from contextlib import contextmanager
from itertools import repeat
from operator import add
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.booleans.formula import FormulaLike, formula_size
from repro.distributed.network import Network
from repro.distributed.placement import one_site_per_fragment
from repro.distributed.stats import StageStats
from repro.fragments.fragment_tree import Fragmentation
from repro.xmltree.flat import FlatFragment
from repro.xmltree.nodes import NodeId, XMLTree
from repro.xpath.ast import PathExpr
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import QueryPlan, compile_plan

__all__ = [
    "QueryInput",
    "ensure_plan",
    "build_network",
    "vector_units",
    "binding_units",
    "plan_units",
    "answer_subtree_nodes",
    "AnswerAccountingError",
    "account_answers",
    "stage_timer",
    "stage_site_times",
]

QueryInput = Union[str, PathExpr, QueryPlan]


def ensure_plan(query: QueryInput) -> QueryPlan:
    """Accept a query string, a parsed path or a compiled plan."""
    if isinstance(query, QueryPlan):
        return query
    if isinstance(query, PathExpr):
        return compile_plan(query)
    return compile_plan(parse_xpath(query), source=query)


def build_network(
    fragmentation: Fragmentation,
    placement: Optional[Mapping[str, str]] = None,
) -> Network:
    """Create a network for a fragmentation (one site per fragment by default)."""
    if placement is None:
        placement = one_site_per_fragment(fragmentation)
    return Network(fragmentation, placement)


def vector_units(vectors: Iterable[Sequence[FormulaLike]]) -> int:
    """Traffic units of a collection of vectors (formula atoms per entry)."""
    total = 0
    for vector in vectors:
        for entry in vector:
            total += formula_size(entry)
    return total


def binding_units(bindings: Mapping[str, object]) -> int:
    """Traffic units of a resolved variable binding payload."""
    return len(bindings)


def plan_units(plan: QueryPlan) -> int:
    """Traffic units of shipping the query plan itself (the paper's |Q|)."""
    return plan.n_steps + plan.n_items + 1


def answer_subtree_nodes(tree: XMLTree, answer_ids: Sequence[int]) -> int:
    """Number of tree nodes shipped when answers are materialized as subtrees.

    One object-tree walk per answer: the specification
    :func:`account_answers` is tested against.
    """
    return sum(tree.node(node_id).subtree_size() for node_id in answer_ids)


class AnswerAccountingError(LookupError):
    """An answer id is not a node of the fragment said to have produced it."""


def account_answers(
    answered: Iterable[Tuple[str, Sequence[NodeId]]],
    flat_of: Callable[[str], FlatFragment],
) -> int:
    """:func:`answer_subtree_nodes` from the fragments that produced the answers.

    *answered* pairs a fragment id with answer ids found in that fragment
    (a fragment may appear more than once, e.g. once per stage); *flat_of*
    returns a fragment's flat encoding — the live one, or a pinned
    snapshot's.  An answer's subtree is its ``subtree_size`` within its own
    span plus the whole span, sub-fragments included, of every fragment
    hanging below it.  Per fragment, the span totals below its virtual rows
    are summed once into prefix sums over ``virtual_indices``; an answer's
    share is then the difference of two prefix entries found by bisection,
    and all answers of a fragment are counted with C-level ``map`` calls, no
    per-answer Python loop.  No object-tree node is touched, so the count
    is exact at the version the flats encode.
    """
    span_totals: Dict[str, int] = {}
    below_prefix: Dict[str, List[int]] = {}

    def prefix_below(fragment_id: str, flat: FlatFragment) -> List[int]:
        """``prefix[k]``: span totals hanging below the first *k* virtual rows."""
        prefix = below_prefix.get(fragment_id)
        if prefix is None:
            prefix = [0]
            for index in flat.virtual_indices:
                prefix.append(
                    prefix[-1] + sum(map(span_total, flat.virtual_at[index]))
                )
            below_prefix[fragment_id] = prefix
        return prefix

    def span_total(fragment_id: str) -> int:
        total = span_totals.get(fragment_id)
        if total is None:
            flat = flat_of(fragment_id)
            total = span_totals[fragment_id] = flat.n + prefix_below(fragment_id, flat)[-1]
        return total

    total = 0
    for fragment_id, node_ids in answered:
        if not node_ids:
            continue
        flat = flat_of(fragment_id)
        rows = list(map(flat.id_index().get, node_ids))
        if None in rows:
            missing = node_ids[rows.index(None)]
            raise AnswerAccountingError(
                f"answer {missing} is not a node of fragment {fragment_id}"
            )
        sizes = list(map(flat.subtree_size.__getitem__, rows))
        total += sum(sizes)
        indices = flat.virtual_indices
        if indices:
            # virtual rows in [row, row + size): prefix[hi] - prefix[lo]
            prefix = prefix_below(fragment_id, flat).__getitem__
            total += sum(map(prefix, map(bisect_left, repeat(indices), map(add, rows, sizes))))
            total -= sum(map(prefix, map(bisect_left, repeat(indices), rows)))
    return total


def stage_site_times(
    network: Network, site_ids: Sequence[str], stage_key: str
) -> tuple[float, float]:
    """(parallel, total) seconds of one stage over the participating sites.

    Parallel time is the slowest site (sites work independently within a
    stage), total time the sum over sites — the paper's two time measures.
    """
    times = [network.sites[site_id].stage_seconds.get(stage_key, 0.0) for site_id in site_ids]
    if not times:
        return 0.0, 0.0
    return max(times), sum(times)


@contextmanager
def stage_timer(stage: StageStats) -> Iterator[StageStats]:
    """Measure coordinator-side work (``evalFT``) attached to a stage.

    As in :meth:`repro.distributed.site.Site.visit`, the cyclic garbage
    collector is paused inside the timing window so a multi-ms gen-2
    collection is not charged to whichever stage happened to trigger it.
    """
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    started = time.perf_counter()
    try:
        yield stage
    finally:
        stage.coordinator_seconds += time.perf_counter() - started
        if gc_was_enabled:
            gc.enable()
