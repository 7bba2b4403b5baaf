"""Result cache keyed on the document name and the normalized query.

Two syntactically different queries that normalize to the same form (Section
2.2 of the paper) — e.g. ``//a/./b`` and ``//a/b``, or ``a//.//b`` and
``a//b`` — denote the same answer, so the cache keys on
:func:`repro.xpath.normalize.normalize` output rather than the raw string
(a session's :class:`~repro.service.prepared.PreparedQuery` ``key``).
The key leads with a *document namespace* (the name the document is
registered under in the host's :class:`~repro.service.store.DocumentStore`)
— one shared LRU serves every tenant of a
:class:`~repro.service.server.ServiceHost`, and the namespace guarantees a
tenant can only ever hit its own entries.  The key also carries a
*fragmentation version tag*: a fingerprint of the fragmented document, its
per-fragment mutation epochs and its placement.  Re-fragmenting, re-placing
or mutating a document (through :mod:`repro.updates`) yields a different
tag, so stale answers can never be served; :meth:`QueryResultCache.invalidate`
with ``version=`` retires the superseded tag's entries so they stop crowding
the LRU, and :meth:`QueryResultCache.purge_document` drops exactly one
tenant's entries when its document leaves the catalog.

Entries are full :class:`repro.distributed.stats.RunStats` objects (the
answer ids plus the accounting that produced them), evicted LRU-first across
all tenants; per-document hit/miss/eviction accounting
(:attr:`CacheStats.documents`) keeps cross-tenant pressure visible — a hot
tenant evicting a cold tenant's entries shows up in the cold tenant's
eviction counter, never silently.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Dict, Mapping, Optional, Tuple

from repro.distributed.stats import RunStats
from repro.fragments.fragment_tree import Fragmentation
from repro.service.store import DEFAULT_DOCUMENT

__all__ = [
    "CacheKey",
    "CacheStats",
    "DocumentCacheStats",
    "QueryResultCache",
    "update_dependencies",
    "version_tag",
]

#: (document, normalized query, annotations flag, version tag)
CacheKey = Tuple[str, str, bool, str]


def version_tag(fragmentation: Fragmentation, placement: Mapping[str, str]) -> str:
    """A fingerprint of the fragmented document and its placement.

    Covers the tree shape and content, the fragment boundaries, the
    per-fragment mutation epochs and the site assignment — any change to one
    of them changes the tag and thereby misses the cache.

    The content half is :meth:`Fragmentation.version_token`: the content
    base is walked at most once per fragmentation (startup / structural
    reset), after which mutations applied through :mod:`repro.updates` move
    the tag via per-fragment epoch bumps in O(#fragments) — computing a tag
    never re-walks the document.  The whole tag is a :mod:`hashlib` digest
    (builtin ``hash`` is salted per process under ``PYTHONHASHSEED``
    randomization, which would make tags diverge across processes).
    """
    hasher = blake2b(digest_size=8)
    hasher.update(fragmentation.version_token().encode("ascii"))
    for fragment_id in fragmentation.fragment_ids():
        site = placement.get(fragment_id)
        hasher.update(fragment_id.encode("utf-8"))
        hasher.update(b"\x00" if site is None else str(site).encode("utf-8"))
        hasher.update(b"\x01")
    return hasher.hexdigest()


def update_dependencies(fragmentation: Fragmentation, stats: RunStats) -> frozenset:
    """The fragments one run's answer and accounting depend on.

    A cached result stays exact under a mutation to fragment ``F`` iff ``F``
    is outside this set:

    * the *evaluated* fragments (pruning keeps ancestors too, so everything
      whose content influenced stage 1 and the answer-retrieval stage is
      here); pruning decisions themselves read only fragment-tree labels,
      which no mutation can change;
    * fragments whose root lies inside an answer node's subtree — the
      answer-payload accounting (``answer_nodes_shipped``) counts nodes
      across fragment boundaries, so edits below an answer node matter even
      in fragments the evaluation never visited.

    This holds for the PaX2 runs the service caches: both of its stages run
    on the pruning-kept fragments only.
    """
    dependencies = set(stats.fragments_evaluated)
    if stats.answer_ids:
        answers = set(stats.answer_ids)
        for fragment_id in fragmentation.fragment_ids():
            if fragment_id in dependencies:
                continue
            node = fragmentation[fragment_id].root
            while node is not None:
                if node.node_id in answers:
                    dependencies.add(fragment_id)
                    break
                node = node.parent
    return frozenset(dependencies)


@dataclass
class DocumentCacheStats:
    """One tenant's slice of the shared cache's accounting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    stores: int = 0
    rekeyed: int = 0
    coalesced: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "coalesced": self.coalesced,
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "rekeyed": self.rekeyed,
        }


@dataclass
class CacheStats:
    """Hit/miss accounting of one cache, host-wide and per document."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    stores: int = 0
    #: stores refused because the stats were an incomplete (partial) answer
    #: — a degraded run must never be served back as the complete answer
    partial_rejected: int = 0
    #: entries carried across a version-tag change because the mutation
    #: touched none of their dependency fragments (see retire_version)
    rekeyed: int = 0
    #: requests answered by joining an identical in-flight query (filled in
    #: by the server's single-flight layer, reported here for one summary)
    coalesced: int = 0
    #: per-document breakdown of every counter above, keyed by the document
    #: namespace of the keys involved (evictions are charged to the *evicted*
    #: entry's document — cross-tenant LRU pressure is never silent)
    documents: Dict[str, DocumentCacheStats] = field(default_factory=dict)

    def document(self, name: str) -> DocumentCacheStats:
        """The (auto-created) per-document slice for *name*."""
        slice_ = self.documents.get(name)
        if slice_ is None:
            slice_ = self.documents[name] = DocumentCacheStats()
        return slice_

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def note_coalesced(self, document: str = DEFAULT_DOCUMENT) -> None:
        self.coalesced += 1
        self.document(document).coalesced += 1

    def summary(self) -> str:
        line = (
            f"cache: {self.hits} hits / {self.lookups} lookups"
            f" ({self.hit_rate * 100:.1f}%), {self.coalesced} coalesced,"
            f" {self.stores} stores, {self.evictions} evictions,"
            f" {self.invalidations} invalidations, {self.rekeyed} rekeyed"
        )
        if len(self.documents) <= 1:
            return line
        lines = [line]
        for name in sorted(self.documents):
            slice_ = self.documents[name]
            lines.append(
                f"  {name}: {slice_.hits} hits / {slice_.lookups} lookups"
                f" ({slice_.hit_rate * 100:.1f}%), {slice_.stores} stores,"
                f" {slice_.evictions} evictions, {slice_.invalidations} invalidations"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        payload = {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "coalesced": self.coalesced,
            "stores": self.stores,
            "partial_rejected": self.partial_rejected,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "rekeyed": self.rekeyed,
        }
        if self.documents:
            payload["documents"] = {
                name: slice_.to_dict() for name, slice_ in sorted(self.documents.items())
            }
        return payload


class QueryResultCache:
    """LRU cache from :data:`CacheKey` to :class:`RunStats`.

    One instance is shared by every document of a service host: the
    document-name component of the key keeps tenants' entries apart while
    the LRU order (and hence capacity pressure) is global.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, RunStats]" = OrderedDict()
        #: fragment ids each entry's answer depends on (see put); entries
        #: stored without dependencies are dropped by retire_version
        self._dependencies: dict = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def document_entry_count(self, document: str) -> int:
        """How many live entries belong to *document*."""
        return sum(1 for key in self._entries if key[0] == document)

    def get(self, key: CacheKey) -> Optional[RunStats]:
        """The cached stats for *key* (marking it recently used), or ``None``."""
        slice_ = self.stats.document(key[0])
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            slice_.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        slice_.hits += 1
        return entry

    def put(
        self, key: CacheKey, stats: RunStats, dependencies: Optional[frozenset] = None
    ) -> None:
        """Store *stats* under *key*, evicting the least recently used entry.

        *dependencies* (see :func:`update_dependencies`) names the fragments
        the entry's answer depends on; with it recorded, a later
        :meth:`retire_version` can carry the entry across a version-tag
        change instead of dropping it.  Eviction is LRU across all
        documents; each eviction is charged to the evicted entry's document
        in :attr:`CacheStats.documents`.

        Incomplete (partial-answer) stats are refused: the cache key cannot
        express "missing sites", so a degraded answer stored here would be
        served back as complete once the sites recover.  The server already
        skips the call; this guard makes the invariant hold for any caller.
        """
        if stats.incomplete:
            self.stats.partial_rejected += 1
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = stats
        if dependencies is not None:
            self._dependencies[key] = dependencies
        else:
            self._dependencies.pop(key, None)
        self.stats.stores += 1
        self.stats.document(key[0]).stores += 1
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._dependencies.pop(evicted, None)
            self.stats.evictions += 1
            self.stats.document(evicted[0]).evictions += 1

    def _drop(self, key: CacheKey) -> None:
        del self._entries[key]
        self._dependencies.pop(key, None)
        self.stats.invalidations += 1
        self.stats.document(key[0]).invalidations += 1

    def invalidate(
        self, version: Optional[str] = None, document: Optional[str] = None
    ) -> int:
        """Drop entries — all, one document's, one version's, or both filters.

        Returns the number of entries removed.
        """
        stale = [
            key
            for key in self._entries
            if (version is None or key[3] == version)
            and (document is None or key[0] == document)
        ]
        for key in stale:
            self._drop(key)
        return len(stale)

    def purge_document(self, document: str) -> int:
        """Drop every entry of *document*, any version (the drop-tenant path).

        Other documents' entries, dependencies and LRU positions are
        untouched; returns how many entries were removed.
        """
        return self.invalidate(document=document)

    def retire_version(
        self,
        old_version: str,
        new_version: str,
        touched_fragment: str,
        document: str = DEFAULT_DOCUMENT,
    ) -> Tuple[int, int]:
        """Roll *document*'s *old_version* entries past one fragment mutation.

        Entries whose recorded dependency set excludes *touched_fragment*
        are still exact — they are re-keyed under *new_version* (keeping
        their dependencies, re-entering the LRU as recently used); the rest,
        and entries without recorded dependencies, are dropped.  Entries of
        other documents are never touched.  Returns ``(rekeyed, dropped)``.
        """
        rekeyed = dropped = 0
        slice_ = self.stats.document(document)
        for key in [
            k for k in self._entries if k[0] == document and k[3] == old_version
        ]:
            dependencies = self._dependencies.pop(key, None)
            stats = self._entries.pop(key)
            if dependencies is not None and touched_fragment not in dependencies:
                new_key = (*key[:3], new_version)
                self._entries[new_key] = stats
                self._dependencies[new_key] = dependencies
                rekeyed += 1
            else:
                dropped += 1
        self.stats.rekeyed += rekeyed
        slice_.rekeyed += rekeyed
        self.stats.invalidations += dropped
        slice_.invalidations += dropped
        return rekeyed, dropped

    def __repr__(self) -> str:
        return f"<QueryResultCache {len(self)}/{self.capacity} entries, {self.stats.summary()}>"
