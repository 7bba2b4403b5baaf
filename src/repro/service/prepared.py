"""Prepared queries: what a document session pays for a query only once.

A request's text, its normal form, its compiled plan and its PaX2 schedule
(pruning, stage-1 sites, init vectors — paper Section 5) depend only on the
query and on the label paths of the document's fragment tree.  None of them
changes when the document is written through :mod:`repro.updates`, so a
:class:`~repro.service.server.DocumentSession` keeps them in one
:class:`PreparedQueries` LRU keyed by the raw request text: a recurring
request is one dictionary lookup away from its result-cache key, and a
recurring miss goes straight to the sites.  This is the per-request side of
the Berkholz–Keppeler–Schweikardt trade (prepare once per query and
document, then pay only for what a document version changes).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Dict, Hashable, Tuple

from repro.core.common import QueryInput
from repro.core.pax2 import Pax2Schedule, pax2_schedule
from repro.distributed.network import SiteIndex
from repro.fragments.fragment_tree import Fragmentation
from repro.obs.trace import span as trace_span
from repro.xpath.ast import PathExpr
from repro.xpath.normalize import normalize
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import QueryPlan, compile_plan

__all__ = ["PreparedQueries", "PreparedQuery"]


class PreparedQuery:
    """One query as a document session serves it.

    ``key`` is the normalized text the result cache is keyed under, ``plan``
    the compiled plan; :meth:`schedule` adds, per annotations setting and on
    first use, the request-invariant PaX2 schedule for the current fragment
    tree.
    """

    __slots__ = ("key", "plan", "_schedules", "__weakref__")

    def __init__(self, key: str, plan: QueryPlan):
        self.key = key
        self.plan = plan
        self._schedules: Dict[bool, Pax2Schedule] = {}

    def schedule(
        self, fragmentation: Fragmentation, sites: SiteIndex, use_annotations: bool
    ) -> Pax2Schedule:
        """This query's PaX2 schedule over *fragmentation*, built once.

        *sites* is the document's current site index; a schedule read from
        another one is rebuilt.  The session replaces its index only when
        the fragment tree changes: writes cannot move a fragment root or
        rename its ancestors, and those label paths are all pruning and init
        vectors read.
        """
        schedule = self._schedules.get(use_annotations)
        if schedule is None or schedule.sites is not sites:
            with trace_span("plan:schedule", stage="compile"):
                schedule = self._schedules[use_annotations] = pax2_schedule(
                    fragmentation, self.plan, use_annotations, sites
                )
        return schedule

    def __repr__(self) -> str:
        return f"<PreparedQuery {self.key!r} schedules={sorted(self._schedules)}>"


class PreparedQueries:
    """An LRU of :class:`PreparedQuery` entries keyed by the raw query text.

    Spelling variants (``//a[b]`` and ``//a[ b ]``) are separate LRU keys
    that share one entry through its normalized key, so they share one plan,
    one schedule and one result-cache entry.  At most *capacity* raw keys
    are kept; an entry lives while any of them (or a request in flight)
    holds it.  Non-text inputs (a parsed path, a compiled plan) are
    normalized on every lookup and keyed by their normal form.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, PreparedQuery]" = OrderedDict()
        self._by_key: "weakref.WeakValueDictionary[str, PreparedQuery]" = (
            weakref.WeakValueDictionary()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, query: QueryInput) -> Tuple[PreparedQuery, bool, bool]:
        """``(entry, hit, evicted)`` for *query*.

        A hit is one dictionary lookup.  A miss parses and normalizes the
        text, compiles a plan unless a spelling variant already did, and
        may evict the least recently used raw key (``evicted``).
        """
        entries = self._entries
        if isinstance(query, str):
            name: Hashable = query
        elif isinstance(query, QueryPlan):
            name = (query.fingerprint,)
        elif isinstance(query, PathExpr):
            name = (str(normalize(query)),)
        else:
            raise TypeError(f"unsupported query input {type(query).__name__}")
        prepared = entries.get(name)
        if prepared is not None:
            entries.move_to_end(name)
            return prepared, True, False
        if isinstance(query, str):
            path = parse_xpath(query)
            key = str(normalize(path))
        else:
            key = name[0]
        prepared = self._by_key.get(key)
        if prepared is None:
            if isinstance(query, QueryPlan):
                plan = query
            elif isinstance(query, str):
                plan = compile_plan(path, source=query)
            else:
                plan = compile_plan(query)
            prepared = self._by_key[key] = PreparedQuery(key, plan)
        entries[name] = prepared
        evicted = len(entries) > self.capacity
        if evicted:
            entries.popitem(last=False)
        return prepared, False, evicted

    def __repr__(self) -> str:
        return f"<PreparedQueries {len(self)}/{self.capacity}>"
