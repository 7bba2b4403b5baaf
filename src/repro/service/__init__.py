"""Concurrent query service layer.

The packages below :mod:`repro.core` evaluate one query at a time through a
passive, synchronous simulated network.  This package turns the reproduction
into a *serving* system: many named documents behind one scheduler, many
in-flight queries, per-site concurrency limits, result caching on the
normalized query, MVCC snapshot reads, per-document write serialization,
and latency/throughput metrics.

Components
----------
:class:`~repro.service.store.DocumentStore`
    The catalog: register/open/drop named fragmented documents, each with
    its own :class:`~repro.fragments.fragment_tree.Fragmentation` and
    placement.
:class:`~repro.service.server.DocumentSession`
    Per-document serving state: version tag, compiled-plan cache, the
    stage-1 pass batcher (:class:`~repro.service.actors.FragmentWaveBatcher`,
    which runs concurrent identical passes of a fragment once), the MVCC
    snapshot registry every read pins
    (:class:`~repro.fragments.snapshots.SnapshotManager`), and a writer
    lock serializing that document's writes only.
:class:`~repro.service.server.ServiceHost`
    The coordinator: routes ``submit(document, query)`` /
    ``apply_update(document, mutation)`` by document name while sharing one
    :class:`~repro.service.actors.ActorPool`, one weighted-fair admission
    scheduler (:class:`~repro.service.fairness.WeightedFairAdmission`), one
    LRU :class:`~repro.service.cache.QueryResultCache` (keys are
    document-namespaced — no cross-tenant hits) and one
    :class:`~repro.service.metrics.ServiceMetrics` aggregator (host totals
    plus per-document breakdowns) across tenants.
:class:`~repro.service.server.ServiceEngine`
    The single-document facade: a ``.host`` with one document registered
    plus the historical ``submit(query)`` call shapes.
:class:`~repro.service.actors.SiteActor` / :class:`~repro.service.actors.ActorPool`
    ``asyncio`` counterparts of :class:`repro.distributed.site.Site`: each
    site serves partial-evaluation requests concurrently, bounded by a
    configurable parallelism, with optional simulated latency
    (:class:`repro.distributed.async_transport.LatencyModel`).
:mod:`~repro.service.evaluator`
    An asynchronous PaX2 over a pinned snapshot whose per-site rounds are
    scheduled through the actor pool, so rounds of *different* queries
    interleave on the same site.  The service runs PaX2 only, on the
    ``kernel`` or ``vector`` engine; PaX3, ParBoX, the naive baseline and
    the ``reference`` engine stay in the synchronous
    :class:`~repro.core.engine.DistributedQueryEngine`.

Quickstart (one document)::

    from repro.service import ServiceEngine

    service = ServiceEngine(fragmentation)
    results = service.serve_batch(["//person/name"] * 100, concurrency=64)
    print(service.host.metrics.summary())

Quickstart (many documents, one shared scheduler)::

    from repro.service import ServiceHost

    host = ServiceHost(max_in_flight=64)
    host.register("catalog", catalog_fragmentation)
    host.register("auctions", auctions_fragmentation)
    host.execute("catalog", "//item/name")
    host.update("auctions", EditText(node_id, "sold"))
    print(host.summary())          # per-document breakdowns included
    host.drop_document("catalog")  # purges only that tenant's cache entries
"""

from repro.core.results import PartialAnswer
from repro.fragments.snapshots import SnapshotManager, SnapshotPolicy
from repro.service.actors import ActorPool, FragmentWaveBatcher, SiteActor
from repro.service.fairness import FairnessPolicy, WeightedFairAdmission
from repro.service.cache import (
    CacheStats,
    DocumentCacheStats,
    QueryResultCache,
    version_tag,
)
from repro.service.evaluator import evaluate_query_async
from repro.service.metrics import (
    BatchStats,
    DocumentTotals,
    QueryRecord,
    ServiceMetrics,
    UpdateRecord,
)
from repro.service.resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceededError,
    ResilienceContext,
    ResiliencePolicy,
    ResilienceState,
    ResilienceStats,
    RetryPolicy,
)
from repro.service.server import (
    AdmissionError,
    DocumentSession,
    OverloadShedError,
    ServiceConfig,
    ServiceEngine,
    ServiceHost,
)
from repro.service.store import (
    DEFAULT_DOCUMENT,
    DocumentEntry,
    DocumentStore,
    DuplicateDocumentError,
    UnknownDocumentError,
)

__all__ = [
    "PartialAnswer",
    "ActorPool",
    "BatchStats",
    "FragmentWaveBatcher",
    "SiteActor",
    "CacheStats",
    "DocumentCacheStats",
    "QueryResultCache",
    "version_tag",
    "evaluate_query_async",
    "DocumentTotals",
    "QueryRecord",
    "ServiceMetrics",
    "UpdateRecord",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceededError",
    "ResilienceContext",
    "ResiliencePolicy",
    "ResilienceState",
    "ResilienceStats",
    "RetryPolicy",
    "AdmissionError",
    "DocumentSession",
    "FairnessPolicy",
    "OverloadShedError",
    "ServiceConfig",
    "ServiceEngine",
    "ServiceHost",
    "SnapshotManager",
    "SnapshotPolicy",
    "WeightedFairAdmission",
    "DEFAULT_DOCUMENT",
    "DocumentEntry",
    "DocumentStore",
    "DuplicateDocumentError",
    "UnknownDocumentError",
]
