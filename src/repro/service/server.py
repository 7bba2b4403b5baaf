"""The service host: many in-flight queries over many fragmented documents.

:class:`ServiceHost` is the serving counterpart of
:class:`repro.core.engine.DistributedQueryEngine`, generalized from one
fragmented document to a catalog of them.  One host owns a
:class:`~repro.service.store.DocumentStore` (named documents), one
:class:`~repro.service.actors.ActorPool` (per-site concurrency limits), one
admission scheduler, one shared :class:`~repro.service.cache.QueryResultCache`
and one :class:`~repro.service.metrics.ServiceMetrics` aggregator.  Each
registered document gets a :class:`DocumentSession` — its prepared-query
LRU, version tag, fused-scan batcher, MVCC snapshot registry and a writer
lock serializing that document's writes (and nothing else).

A request routed by ``submit(document, query)`` first looks its raw text up
in the session's :class:`~repro.service.prepared.PreparedQueries` (one
dictionary lookup when seen before; a miss parses, normalizes and compiles),
then passes three layers:

1. **Admission control** — at most ``max_in_flight`` evaluations run at
   once *across all documents*, scheduled weighted-fair per document
   (:class:`~repro.service.fairness.WeightedFairAdmission`: configurable
   weights, per-tenant slices, deficit round-robin) so a flooding tenant
   cannot starve the rest; a tenant over its own overload budget is shed
   with :class:`OverloadShedError`, and (optionally) everything beyond
   ``max_pending`` queued evaluations host-wide is rejected with
   :class:`AdmissionError` instead of waiting.
2. **Single-flight coalescing** — identical queries (same document, same
   *normalized* form and annotations setting) submitted while one
   evaluation is in flight all await that one evaluation.
3. **Result cache** — completed answers are stored under the document name,
   the normalized query and the document's version tag and served back in
   microseconds until evicted or invalidated; the namespace guarantees no
   cross-tenant hits.

Every read is natively asynchronous PaX2 on a columnar engine (``kernel``
or ``vector``) against a pinned MVCC version snapshot
(:mod:`repro.fragments.snapshots`): the read captures the current version's
flat encodings at admission and keeps scanning them while a write lands, so
a write never waits for a reader and a reader never waits for a write.
Writes routed by ``apply_update(document, mutation)`` serialize only with
other writes to the same document; readers and writers of *other* documents
proceed untouched.  PaX3, ParBoX, the naive baseline and the ``reference``
engine stay in the synchronous :class:`~repro.core.engine.DistributedQueryEngine`.

:class:`ServiceEngine` is the single-document facade: a host with one
document registered under :data:`~repro.service.store.DEFAULT_DOCUMENT`,
plus the pre-host call shapes (``submit(query)``, ``apply_update(mutation)``, …).

Blocking callers use :meth:`ServiceHost.execute` / :meth:`serve_batch`;
``asyncio`` callers use :meth:`submit` / :meth:`run_many` directly.
"""

from __future__ import annotations

import asyncio
import time
import weakref
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.common import QueryInput
from repro.core.kernel.dispatch import ENGINES, KERNEL, VECTOR, fragment_engine
from repro.core.results import PartialAnswer, QueryResult
from repro.distributed.async_transport import LatencyModel
from repro.distributed.faults import FaultInjector
from repro.distributed.network import SiteIndex
from repro.distributed.stats import RunStats
from repro.fragments.fragment_tree import Fragmentation
from repro.fragments.snapshots import SnapshotManager, SnapshotPolicy
from repro.obs.trace import (
    NEGLIGIBLE_WAIT_SECONDS,
    NULL_TRACER,
    add_span,
    set_attributes,
    set_stats,
    span as trace_span,
)
from repro.service.actors import ActorPool, FragmentWaveBatcher
from repro.service.fairness import FairnessPolicy, WeightedFairAdmission
from repro.service.cache import (
    QueryResultCache,
    update_dependencies,
    version_tag,
)
from repro.service.evaluator import evaluate_query_async
from repro.service.metrics import DEFAULT_SAMPLE_WINDOW, ServiceMetrics
from repro.service.prepared import PreparedQueries, PreparedQuery
from repro.service.resilience import (
    Deadline,
    DeadlineExceededError,
    ResilienceContext,
    ResiliencePolicy,
    ResilienceState,
)
from repro.service.store import (
    DEFAULT_DOCUMENT,
    DocumentEntry,
    DocumentStore,
    UnknownDocumentError,
)
from repro.updates.apply import apply_mutation
from repro.updates.ops import Mutation, UpdateResult

__all__ = [
    "AdmissionError",
    "DocumentSession",
    "OverloadShedError",
    "ServiceConfig",
    "ServiceEngine",
    "ServiceHost",
]

#: the engines whose reads evaluate purely from pinned flat encodings
SNAPSHOT_ENGINES = (KERNEL, VECTOR)


class AdmissionError(RuntimeError):
    """Raised when the service rejects a query because its queue is full."""


class OverloadShedError(AdmissionError):
    """One document's overload budget rejected the query (typed shed).

    Unlike the host-global ``max_pending`` cliff (a plain
    :class:`AdmissionError`), this rejection is scoped to the submitting
    document: its queue depth or rolling queue-time p95 exceeded the
    budgets in :class:`~repro.service.fairness.FairnessPolicy`.  Recorded
    as a shed at stage ``overload`` — counted, never latency-sampled.
    """


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`ServiceHost` (shared by all its documents)."""

    #: default XPath-annotation setting (overridable per query)
    use_annotations: bool = True
    #: per-fragment pass implementation, ``kernel`` or ``vector`` (``None`` =
    #: process default, resolved once when the host is built; see
    #: :mod:`repro.core.kernel.dispatch`)
    engine: Optional[str] = None
    #: concurrent evaluations admitted at once, across all documents
    max_in_flight: int = 64
    #: queued evaluations beyond which submission raises AdmissionError
    #: (``None`` queues without bound)
    max_pending: Optional[int] = None
    #: concurrent requests each site serves (the actors' semaphore size)
    site_parallelism: int = 4
    #: simulated network latency per message / payload unit
    latency: LatencyModel = field(default_factory=LatencyModel)
    #: shared result-cache capacity (all documents); 0 disables caching
    cache_capacity: int = 256
    #: join identical in-flight queries instead of re-evaluating
    coalesce: bool = True
    #: coalesce concurrent per-fragment rounds into fused scans
    batching: bool = True
    #: batching window in seconds: how long a fragment round waits for
    #: companions before its fused scan runs (0 = next event-loop iteration)
    batch_window: float = 0.0
    #: retained per-request metric records (the service-wide sample cap)
    metrics_window: int = DEFAULT_SAMPLE_WINDOW
    #: tracer receiving one root span per request and update; ``None`` uses
    #: the shared no-op tracer (tracing off, nothing allocated per request —
    #: see :mod:`repro.obs.trace`)
    tracer: Optional[object] = None
    #: retry/breaker/deadline policy; ``None`` disables the resilience layer
    #: (unless a fault injector or a per-request deadline forces defaults on)
    resilience: Optional[ResiliencePolicy] = None
    #: fault injector shared by every evaluation's transport (chaos testing);
    #: setting one without a resilience policy turns the default policy on
    fault_injector: Optional[FaultInjector] = None
    #: weighted-fair admission: per-document weights, ``max_in_flight``
    #: slices and overload budgets
    fairness: FairnessPolicy = field(default_factory=FairnessPolicy)
    #: MVCC snapshot reads: the retained-versions watermark writers honour
    snapshots: SnapshotPolicy = field(default_factory=SnapshotPolicy)

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_pending is not None and self.max_pending < 0:
            raise ValueError("max_pending must be >= 0 when set")
        if self.site_parallelism < 1:
            raise ValueError("site_parallelism must be >= 1")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0 (0 disables caching)")
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if self.batch_window < 0.0:
            raise ValueError("batch_window must be >= 0")


class DocumentSession:
    """Per-document serving state inside one :class:`ServiceHost`.

    The session owns everything whose lifetime and scope is *one tenant's
    document*: the fragmentation and placement (shared with the catalog
    entry), the version tag its cached answers are keyed under, the
    prepared-query LRU, the fused-scan batcher bound to its flat arrays,
    the MVCC registry its readers pin and the lock serializing its writers.
    Scheduling (actors, admission, cache storage, metrics) lives on the host
    and is shared across sessions.
    """

    #: raw query texts whose prepared entries a session retains (LRU)
    MAX_PLANS = 4096

    def __init__(self, entry: DocumentEntry, config: ServiceConfig, engine: str):
        self.name = entry.name
        self.entry = entry
        self.config = config
        #: version tag of the fragmentation the cached answers are valid for
        self.version = version_tag(entry.fragmentation, entry.placement)
        #: MVCC registry of pinned version snapshots for THIS document
        self.snapshots = SnapshotManager(entry.fragmentation, config.snapshots)
        #: fused-scan batching window (None when batching is disabled)
        self.batcher: Optional[FragmentWaveBatcher] = (
            FragmentWaveBatcher(
                entry.fragmentation,
                engine=engine,
                window=config.batch_window,
            )
            if config.batching
            else None
        )
        #: raw query text -> prepared entry (key text, plan, PaX2 schedules)
        self.prepared = PreparedQueries(self.MAX_PLANS)
        self._sites = SiteIndex(entry.fragmentation, entry.placement)
        self._writer: Optional[asyncio.Lock] = None
        self._writer_loop: Optional[weakref.ref] = None

    @property
    def fragmentation(self) -> Fragmentation:
        return self.entry.fragmentation

    @property
    def placement(self) -> Dict[str, str]:
        return self.entry.placement

    @property
    def sites(self) -> SiteIndex:
        """Which site holds which fragments; rebuilt, and with it every
        prepared schedule, only when the fragment tree has changed."""
        self._sites = self._sites.refreshed(self.fragmentation, self.placement)
        return self._sites

    def writer_lock(self) -> asyncio.Lock:
        """The lock serializing THIS document's writes.

        Readers never take it (they pin snapshots).  Rebuilt whenever the
        running event loop changes: the blocking facade runs each call in a
        fresh ``asyncio.run`` loop, and a lock bound to a dead loop cannot
        be waited on in the next.
        """
        loop = asyncio.get_running_loop()
        if self._writer_loop is None or self._writer_loop() is not loop:
            self._writer = asyncio.Lock()
            self._writer_loop = weakref.ref(loop)
        return self._writer

    def __repr__(self) -> str:
        return (
            f"<DocumentSession {self.name!r} fragments={len(self.fragmentation)}"
            f" version={self.version}>"
        )


class ServiceHost:
    """Serve concurrent XPath queries and updates over named documents.

    Parameters
    ----------
    config:
        A :class:`ServiceConfig`; keyword overrides (``max_in_flight=8`` …)
        are applied on top of it.
    store:
        An existing :class:`~repro.service.store.DocumentStore` to serve
        from (sessions are opened for every entry already registered);
        defaults to a fresh empty catalog.  Grow it through
        :meth:`register`, shrink it through :meth:`drop_document`.

    Raises ``ValueError`` when the engine (the configured one, or else the
    process default) is ``reference``: it walks the live object tree, so
    its reads cannot be snapshot-isolated from concurrent writes.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        store: Optional[DocumentStore] = None,
        **overrides: object,
    ):
        base = config or ServiceConfig()
        self.config = replace(base, **overrides) if overrides else base
        engine = self.config.engine or fragment_engine()
        if engine not in SNAPSHOT_ENGINES:
            raise ValueError(
                f"the service reads pinned snapshots on a columnar engine"
                f" ({' or '.join(SNAPSHOT_ENGINES)}); engine {engine!r} walks the"
                f" live object tree — evaluate it with DistributedQueryEngine"
            )
        #: the columnar engine every read of this host runs on
        self.engine = engine
        self.store = store or DocumentStore()
        self.sessions: Dict[str, DocumentSession] = {}
        #: one actor pool shared by every document's sites
        self.actors = ActorPool((), self.config.site_parallelism)
        #: one LRU shared by every document (keys are document-namespaced)
        self.cache: Optional[QueryResultCache] = (
            QueryResultCache(self.config.cache_capacity)
            if self.config.cache_capacity > 0
            else None
        )
        self.metrics = ServiceMetrics(self.config.metrics_window)
        #: span collector for the whole host (the no-op tracer by default)
        self.tracer = self.config.tracer if self.config.tracer is not None else NULL_TRACER
        #: retry/breaker/degradation state (None until the resilience layer
        #: is switched on by config or by the first deadline-carrying request)
        self.resilience: Optional[ResilienceState] = None
        if self.config.resilience is not None or self.config.fault_injector is not None:
            self.resilience = ResilienceState(self.config.resilience or ResiliencePolicy())
        self._inflight: Dict[Tuple, asyncio.Future] = {}
        #: deficit-round-robin admission over per-document queues
        #: (self-rebinding across event loops)
        self._admission = WeightedFairAdmission(
            self.config.max_in_flight, self.config.fairness, metrics=self.metrics
        )
        self._loop_id: Optional[int] = None
        self._pending_evaluations = 0
        for entry in self.store:
            self._open_session(entry)

    # -- catalog -----------------------------------------------------------

    def register(
        self,
        name: str,
        fragmentation: Fragmentation,
        placement: Optional[Mapping[str, str]] = None,
    ) -> DocumentSession:
        """Register a document and open its serving session."""
        entry = self.store.register(name, fragmentation, placement)
        return self._open_session(entry)

    def _open_session(self, entry: DocumentEntry) -> DocumentSession:
        session = DocumentSession(entry, self.config, self.engine)
        for site_id in entry.placement.values():
            self.actors[site_id]  # grow the shared pool to cover this document
        self.sessions[entry.name] = session
        return session

    def session(self, document: str) -> DocumentSession:
        """The serving session of *document* (UnknownDocumentError if absent)."""
        session = self.sessions.get(document)
        if session is None:
            raise UnknownDocumentError(document, self.documents())
        return session

    def documents(self) -> List[str]:
        """Names of the documents this host serves, in registration order."""
        return self.store.names()

    def drop_document(self, document: str) -> int:
        """Remove *document* from the catalog and purge its cached answers.

        Only that tenant's state goes: its session, its coalescing futures,
        its cache entries, its per-document cache/metrics slices, and any
        site actors no remaining document's placement references (so a
        long-lived host with tenant churn does not accumulate residue).
        Every other document's cached answers, version tags and in-flight
        work are untouched.  Returns how many cache entries were purged.
        """
        self.store.drop(document)
        session = self.sessions.pop(document, None)
        for key in [k for k in self._inflight if k[0] == document]:
            self._inflight.pop(key, None)
        if session is not None:
            live_sites = {
                site_id
                for other in self.sessions.values()
                for site_id in other.placement.values()
            }
            for site_id in set(session.placement.values()) - live_sites:
                self.actors.discard(site_id)
        self.metrics.documents.pop(document, None)
        if self.cache is None:
            return 0
        purged = self.cache.purge_document(document)
        self.cache.stats.documents.pop(document, None)
        return purged

    # -- async API ---------------------------------------------------------

    async def submit(
        self,
        document: str,
        query: QueryInput,
        use_annotations: Optional[bool] = None,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Serve one query of *document*; identical concurrent queries share
        one evaluation.

        ``deadline`` is this request's whole budget in seconds — it covers
        queueing for admission, the batching window, and every wire wait of
        every site round.  A request whose budget runs out *before*
        evaluation starts is shed with
        :class:`~repro.service.resilience.DeadlineExceededError` (recorded
        as a shed, never as a latency sample); one whose budget runs out
        *during* evaluation degrades to a
        :class:`~repro.core.results.PartialAnswer` over the reachable sites.
        """
        started = time.perf_counter()
        self._bind_loop()
        session = self.session(document)
        annotations = (
            self.config.use_annotations if use_annotations is None else bool(use_annotations)
        )
        resilience = self._resilience_context(deadline)
        with self.tracer.request("query", kind="query", document=session.name):
            with trace_span("plan:compile", stage="compile"):
                prepared, hit, evicted = session.prepared.lookup(query)
            self.metrics.record_prepared(session.name, hit, evicted)
            normalized = prepared.key
            set_attributes(
                query=normalized, annotations=annotations,
                prepared="hit" if hit else "miss",
            )
            key = (session.name, normalized, annotations, session.version)

            # Layer 2: join an identical in-flight evaluation (no admission
            # cost).  The shared stats are attached to this request's span
            # too: the answer (and its visit accounting) is what this caller
            # was served, whoever computed it.
            if self.config.coalesce and key in self._inflight:
                with trace_span("coalesce:join", stage="queue"):
                    shared = asyncio.shield(self._inflight[key])
                    if resilience is not None and resilience.deadline is not None:
                        try:
                            stats = await asyncio.wait_for(
                                shared, resilience.deadline_remaining()
                            )
                        except asyncio.TimeoutError:
                            self._record_shed(session.name, "coalesced", resilience)
                            raise DeadlineExceededError(
                                f"deadline expired awaiting coalesced evaluation"
                                f" of {normalized!r}",
                                stage="queued",
                            ) from None
                    else:
                        stats = await shared
                set_stats(stats)
                set_attributes(served_from="coalesced")
                if self.cache is not None:
                    self.cache.stats.note_coalesced(session.name)
                with trace_span("respond", stage="reassembly"):
                    self.metrics.record(
                        normalized, stats.algorithm, time.perf_counter() - started,
                        coalesced=True, stats=stats, document=session.name,
                        degraded=stats.incomplete,
                    )
                    return self._result(session, stats)

            # Layer 3: the result cache.
            if self.cache is not None:
                with trace_span("cache:lookup", stage="cache"):
                    cached = self.cache.get(key)
                if cached is not None:
                    set_stats(cached)
                    set_attributes(served_from="cache")
                    with trace_span("respond", stage="reassembly"):
                        self.metrics.record(
                            normalized, cached.algorithm, time.perf_counter() - started,
                            cache_hit=True, stats=cached, document=session.name,
                        )
                        return self._result(session, cached)

            # Leader path: register before the first await so later identical
            # submissions coalesce instead of racing us to the evaluator.
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            if self.config.coalesce:
                self._inflight[key] = future
            try:
                stats, evaluated_version = await self._admit_and_evaluate(
                    session, prepared, annotations, resilience
                )
                stats.evaluated_version = evaluated_version
                set_stats(stats)
                if not future.done():
                    future.set_result(stats)
            except BaseException as error:
                if not future.done():
                    future.set_exception(error)
                    # Nobody may be waiting; swallow the "exception never
                    # retrieved" warning for the orphaned future.
                    future.exception()
                raise
            finally:
                if self.config.coalesce:
                    self._inflight.pop(key, None)
            if (
                self.cache is not None
                and not stats.incomplete
                and self.sessions.get(session.name) is session
                and session.version == evaluated_version
            ):
                # Keyed under the version the evaluation pinned (a write may
                # have landed while this query waited for admission) —
                # storing under the submission-time tag would strand a dead
                # entry in the LRU.  The session check closes the drop race:
                # a document dropped while this evaluation was in flight must
                # not re-enter the shared LRU after its purge.  The version
                # check closes the MVCC race: a read overlapped by a write
                # finished exact at its pinned version, but that version is
                # already retired — storing it would strand an unservable
                # entry.
                with trace_span("cache:store", stage="cache"):
                    self.cache.put(
                        (session.name, normalized, annotations, evaluated_version),
                        stats,
                        dependencies=update_dependencies(session.fragmentation, stats),
                    )
            with trace_span("respond", stage="reassembly"):
                self.metrics.record(
                    normalized, stats.algorithm, time.perf_counter() - started,
                    stats=stats, document=session.name, degraded=stats.incomplete,
                )
                return self._result(session, stats)

    def _resilience_context(
        self, deadline: Optional[float]
    ) -> Optional[ResilienceContext]:
        """Per-request resilience context (or None for the plain path).

        The layer is on when configured (policy or injector) or when this
        particular request carries a deadline — a deadline needs the
        machinery (budget-capped wire waits, degradation) even on a host
        that never saw a fault.
        """
        if self.resilience is None:
            if deadline is None:
                return None
            self.resilience = ResilienceState(ResiliencePolicy())
        budget = deadline
        if budget is None:
            budget = self.resilience.policy.default_deadline_seconds
        request_deadline = Deadline.after(budget) if budget is not None else None
        return self.resilience.for_request(request_deadline)

    def _result(self, session: DocumentSession, stats: RunStats) -> QueryResult:
        """Wrap final stats for the caller, surfacing degraded runs as
        :class:`PartialAnswer` so incompleteness is impossible to miss."""
        if stats.incomplete:
            return PartialAnswer(session.fragmentation.tree, stats)
        return QueryResult(session.fragmentation.tree, stats)

    def _record_shed(
        self, document: str, stage: str, resilience: Optional[ResilienceContext]
    ) -> None:
        """Account a request shed before evaluation — a shed is an explicit
        fast-fail, never a latency sample."""
        self.metrics.record_shed(document, stage)
        if resilience is not None:
            resilience.stats.shed_requests += 1
        set_attributes(shed_at=stage)

    def _check_pending_budget(self) -> None:
        limit = self.config.max_pending
        if (
            limit is not None
            and self._pending_evaluations >= limit + self.config.max_in_flight
        ):
            raise AdmissionError(
                f"service overloaded: {self._pending_evaluations} evaluations pending"
                f" (max_in_flight={self.config.max_in_flight}, max_pending={limit})"
            )

    async def _admit_and_evaluate(
        self,
        session: DocumentSession,
        prepared: PreparedQuery,
        use_annotations: bool,
        resilience: Optional[ResilienceContext] = None,
    ) -> Tuple[RunStats, str]:
        """Layer 1 (admission control) around one snapshot-pinned evaluation.

        Two shed checks run before anything is queued: a request whose
        deadline is already dead is shed at stage ``submit`` without
        touching the admission queue, and a request whose document has
        blown its overload budget (queue depth or rolling queue-time p95 —
        see :class:`~repro.service.fairness.FairnessPolicy`) is rejected
        with :class:`OverloadShedError` at stage ``overload`` — that
        tenant's excess is shed, nobody else's.

        After the admission grant the read pins the current version
        synchronously — between reading ``session.version`` and capturing
        the flats there is no await, so under the cooperative loop the
        snapshot is consistent by construction.  A writer landing during
        the evaluation installs new fragment epochs while this read keeps
        scanning its pinned encodings; the result is exact at the pinned
        version and :meth:`submit` checks currency before caching it.
        """
        has_deadline = resilience is not None and resilience.deadline is not None
        if has_deadline and resilience.deadline_expired():
            # Dead on arrival: shed before any queue sees it.
            self._record_shed(session.name, "submit", resilience)
            raise DeadlineExceededError(
                f"deadline expired at submission for {session.name!r}",
                stage="queued",
            )
        admission = self._bound_admission()
        reason = admission.overload_reason(session.name)
        if reason is not None:
            self._record_shed(session.name, "overload", resilience)
            raise OverloadShedError(f"document {session.name!r} overloaded: {reason}")
        self._check_pending_budget()
        self._pending_evaluations += 1
        try:
            queued_at = time.perf_counter()
            try:
                await admission.acquire(
                    session.name,
                    timeout=resilience.deadline_remaining() if has_deadline else None,
                )
            except asyncio.TimeoutError:
                self._record_shed(session.name, "admission", resilience)
                raise DeadlineExceededError(
                    f"deadline expired while queued (admission) for {session.name!r}",
                    stage="queued",
                ) from None
            try:
                admitted_at = time.perf_counter()
                if admitted_at - queued_at >= NEGLIGIBLE_WAIT_SECONDS:
                    add_span("fair_queue", "queue", queued_at, admitted_at)
                if has_deadline and resilience.deadline_expired():
                    # Granted a slot, but the budget died in the queue:
                    # still a shed, not an evaluation.
                    self._record_shed(session.name, "admission", resilience)
                    raise DeadlineExceededError(
                        f"deadline expired between admission grant and evaluation"
                        f" for {session.name!r}",
                        stage="queued",
                    )
                # Rebuild any write-invalidated encodings with yields
                # between fragments so the synchronous pin below doesn't
                # stall co-tenant readers behind this document's post-write
                # rebuild chain (best-effort; the pin stays torn-free).
                with trace_span("snapshot:prewarm", stage="kernel"):
                    await session.snapshots.prewarm()
                pin_started = time.perf_counter()
                snapshot = session.snapshots.pin(session.version)
                pin_ended = time.perf_counter()
                if pin_ended - pin_started >= NEGLIGIBLE_WAIT_SECONDS:
                    add_span(
                        "snapshot_pin", "queue", pin_started, pin_ended,
                        version=snapshot.version,
                    )
                try:
                    # Staged "queue" as a low-precedence filler: instants no
                    # kernel/wire/... child covers are event-loop waits.
                    with trace_span("evaluate", stage="queue"):
                        stats = await evaluate_query_async(
                            session.fragmentation,
                            session.placement,
                            prepared.plan,
                            self.actors,
                            snapshot,
                            use_annotations=use_annotations,
                            latency=self.config.latency,
                            engine=self.engine,
                            batcher=session.batcher,
                            injector=self.config.fault_injector,
                            resilience=resilience,
                            schedule=prepared.schedule(
                                session.fragmentation, session.sites, use_annotations
                            ),
                        )
                    return stats, snapshot.version
                finally:
                    session.snapshots.release(snapshot)
            finally:
                admission.release(session.name)
        finally:
            self._pending_evaluations -= 1

    def _bind_loop(self) -> None:
        """Rebuild loop-bound state when the running event loop changes.

        The blocking facade runs each call in a fresh ``asyncio.run`` loop;
        futures bound to a finished loop must not leak into the next one.
        Must run before any in-flight future is registered.  (The per-session
        writer locks, snapshot managers, the admission scheduler and the
        actors rebuild themselves the same way on first use in a new loop.)
        """
        loop_id = id(asyncio.get_running_loop())
        if self._loop_id != loop_id:
            self._loop_id = loop_id
            self._inflight.clear()

    def _bound_admission(self) -> WeightedFairAdmission:
        self._bind_loop()
        return self._admission

    async def run_many(
        self,
        document: str,
        queries: Sequence[QueryInput],
        concurrency: Optional[int] = None,
    ) -> List[QueryResult]:
        """Serve a batch of queries of one document, optionally capping client
        concurrency.

        ``concurrency`` models the number of simultaneous clients issuing the
        batch; ``None`` submits everything at once (the host's admission
        control still bounds actual evaluations).
        """
        if concurrency is None or concurrency >= len(queries):
            return list(await asyncio.gather(*(self.submit(document, q) for q in queries)))
        clients = asyncio.Semaphore(max(1, concurrency))

        async def client(query: QueryInput) -> QueryResult:
            async with clients:
                return await self.submit(document, query)

        return list(await asyncio.gather(*(client(q) for q in queries)))

    # -- updates -------------------------------------------------------------

    async def apply_update(self, document: str, mutation: Mutation) -> UpdateResult:
        """Apply one mutation to *document*, serialized only with its writes.

        The writer takes the document's writer lock, so two writes to the
        same document never interleave; readers never take it — each pins
        its own version snapshot and keeps scanning it while the mutation
        lands, so no evaluation ever reads a half-applied edit and no write
        waits for a reader.  Readers and writers of *other* documents are
        completely unaffected.  The mutation lands through
        :func:`repro.updates.apply.apply_mutation` (bumping only the touched
        fragment's epoch and dropping only its columnar encoding), then the
        document's version tag rolls forward from the epochs in
        O(#fragments) — no document walk.  Cached answers under the
        superseded tag are *retired*, not flushed: entries whose dependency
        fragments exclude the mutated one are re-keyed under the new tag and
        keep serving hits; only answers the mutation could have changed are
        dropped, and only within this document's namespace.  The
        prepared queries (plans and PaX2 schedules) always survive.
        """
        started = time.perf_counter()
        self._bind_loop()
        session = self.session(document)
        with self.tracer.request("update", kind="update", document=session.name):
            lock_queued_at = time.perf_counter()
            async with session.writer_lock():
                lock_acquired_at = time.perf_counter()
                if lock_acquired_at - lock_queued_at >= NEGLIGIBLE_WAIT_SECONDS:
                    add_span("writer:lock", "queue", lock_queued_at, lock_acquired_at)
                # MVCC watermark: installing a new version turns every live
                # snapshot into retained history; wait for a reclaim while
                # the bound is reached.
                stall_started = time.perf_counter()
                await session.snapshots.wait_for_capacity()
                stall_ended = time.perf_counter()
                if stall_ended - stall_started >= NEGLIGIBLE_WAIT_SECONDS:
                    add_span(
                        "snapshot:watermark", "queue", stall_started, stall_ended
                    )
                apply_started = time.perf_counter()
                with trace_span("update:apply", stage="kernel"):
                    result = apply_mutation(session.fragmentation, mutation)
                old_version = session.version
                with trace_span("version:roll", stage="kernel"):
                    session.version = version_tag(session.fragmentation, session.placement)
                invalidated = 0
                if self.cache is not None and session.version != old_version:
                    with trace_span("cache:retire", stage="cache"):
                        _, invalidated = self.cache.retire_version(
                            old_version, session.version, result.fragment_id,
                            document=session.name,
                        )
                apply_seconds = time.perf_counter() - apply_started
            set_attributes(
                kind=result.kind,
                fragment=result.fragment_id,
                nodes_added=result.nodes_added,
                nodes_removed=result.nodes_removed,
                invalidated_entries=invalidated,
            )
            self.metrics.record_update(
                kind=result.kind,
                fragment_id=result.fragment_id,
                latency_seconds=time.perf_counter() - started,
                apply_seconds=apply_seconds,
                nodes_added=result.nodes_added,
                nodes_removed=result.nodes_removed,
                invalidated_entries=invalidated,
                document=session.name,
            )
            return result

    def update(self, document: str, mutation: Mutation) -> UpdateResult:
        """Blocking single-mutation entry point (see :meth:`apply_update`)."""
        return self._run_blocking(self.apply_update(document, mutation))

    # -- blocking facade -----------------------------------------------------

    def execute(
        self,
        document: str,
        query: QueryInput,
        use_annotations: Optional[bool] = None,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Blocking single-query entry point, mirroring
        :meth:`repro.core.engine.DistributedQueryEngine.execute`."""
        return self._run_blocking(
            self.submit(document, query, use_annotations=use_annotations, deadline=deadline)
        )

    def run(self, document: str, query: QueryInput) -> RunStats:
        """Blocking evaluation returning the raw :class:`RunStats`."""
        return self.execute(document, query).stats

    def serve_batch(
        self,
        document: str,
        queries: Sequence[QueryInput],
        concurrency: Optional[int] = None,
    ) -> List[QueryResult]:
        """Blocking batch entry point (see :meth:`run_many`)."""
        return self._run_blocking(self.run_many(document, queries, concurrency=concurrency))

    @staticmethod
    def _run_blocking(coroutine):
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            return asyncio.run(coroutine)
        coroutine.close()
        raise RuntimeError(
            "the blocking API cannot be used inside a running event loop;"
            " await submit()/run_many() instead"
        )

    # -- maintenance -----------------------------------------------------------

    def invalidate_cache(self, document: Optional[str] = None) -> int:
        """Drop cached answers — all of them, or one document's only.

        Returns how many entries were dropped.
        """
        if self.cache is None:
            return 0
        return self.cache.invalidate(document=document)

    def refresh_version(self, document: str) -> str:
        """Re-fingerprint *document* after an out-of-band edit.

        This is the escape hatch for documents mutated *behind* the service's
        back (a full re-walk of the tree): mutations applied through
        :meth:`apply_update` roll the version forward from per-fragment
        epochs and never need it.  Cached answers carrying the old tag are
        dropped immediately (they could never be served again and would only
        crowd the LRU); the new tag is returned.
        """
        session = self.session(document)
        session.fragmentation.content_version(refresh=True)
        old_version = session.version
        session.version = version_tag(session.fragmentation, session.placement)
        if self.cache is not None and session.version != old_version:
            self.cache.invalidate(version=old_version, document=session.name)
        return session.version

    # -- presentation -----------------------------------------------------------

    def summary(self) -> str:
        """Host-wide status: documents, traffic, latency, cache and actors."""
        document_names = self.documents()
        lines = [
            f"service host     : {len(document_names)} document(s) on"
            f" {len(self.actors)} sites, engine={self.engine},"
            f" annotations={self.config.use_annotations}",
        ]
        for name in document_names:
            session = self.sessions[name]
            lines.append(
                f"  {name}: {len(session.fragmentation)} fragments,"
                f" version {session.version}"
            )
        lines.append(
            f"admission        : max_in_flight={self.config.max_in_flight},"
            f" max_pending={self.config.max_pending} (shared, weighted-fair)"
        )
        for name in document_names:
            stats = self.sessions[name].snapshots.stats
            if stats.pins:
                lines.append(
                    f"  {name} snapshots: {stats.pins} pins,"
                    f" {stats.snapshots_created} created,"
                    f" {stats.snapshots_reclaimed} reclaimed,"
                    f" peak retained {stats.peak_retained},"
                    f" {stats.writer_stalls} writer stalls"
                )
        lines.append(self.metrics.summary())
        if self.resilience is not None:
            lines.append(self.resilience.stats.summary())
        if self.config.fault_injector is not None:
            lines.append(self.config.fault_injector.stats.summary())
        if self.cache is not None:
            lines.append(self.cache.stats.summary())
        for name in document_names:
            session = self.sessions[name]
            if session.batcher is not None and session.batcher.stats.fused_scans:
                lines.append(f"{name} {session.batcher.stats.summary()}")
        lines.append(self.actors.summary())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<ServiceHost documents={len(self.sessions)} engine={self.engine!r}"
            f" served={self.metrics.total_requests}>"
        )


class ServiceEngine:
    """Single-document facade over a :class:`ServiceHost` (the pre-host API).

    Serves concurrent XPath queries over **one** fragmented document with
    the historical call shapes — ``submit(query)`` instead of
    ``submit(document, query)`` — by registering the document under
    :data:`~repro.service.store.DEFAULT_DOCUMENT` in a host of its own.
    Everything else (metrics, cache, actors, config, summary) is read
    through :attr:`host`; the document's own serving state (version,
    fragmentation, batcher, snapshots) through :attr:`session`.

    Parameters
    ----------
    fragmentation:
        The fragmented document, exactly as for ``DistributedQueryEngine``.
    placement:
        ``fragment_id -> site_id``; defaults to one site per fragment.
    config:
        A :class:`ServiceConfig`; keyword overrides (``max_in_flight=8`` …)
        are applied on top of it.
    """

    def __init__(
        self,
        fragmentation: Fragmentation,
        placement: Optional[Mapping[str, str]] = None,
        config: Optional[ServiceConfig] = None,
        **overrides: object,
    ):
        #: the full scheduler underneath
        self.host = ServiceHost(config=config, **overrides)
        #: the one document's serving state
        self.session = self.host.register(DEFAULT_DOCUMENT, fragmentation, placement)
        #: the name the document is registered under
        self.document = self.session.name

    async def submit(
        self,
        query: QueryInput,
        use_annotations: Optional[bool] = None,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        return await self.host.submit(
            self.document, query, use_annotations=use_annotations, deadline=deadline
        )

    async def run_many(
        self, queries: Sequence[QueryInput], concurrency: Optional[int] = None
    ) -> List[QueryResult]:
        return await self.host.run_many(self.document, queries, concurrency=concurrency)

    async def apply_update(self, mutation: Mutation) -> UpdateResult:
        return await self.host.apply_update(self.document, mutation)

    def update(self, mutation: Mutation) -> UpdateResult:
        return self.host.update(self.document, mutation)

    def execute(
        self,
        query: QueryInput,
        use_annotations: Optional[bool] = None,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        return self.host.execute(
            self.document, query, use_annotations=use_annotations, deadline=deadline
        )

    def run(self, query: QueryInput) -> RunStats:
        return self.host.run(self.document, query)

    def serve_batch(
        self, queries: Sequence[QueryInput], concurrency: Optional[int] = None
    ) -> List[QueryResult]:
        return self.host.serve_batch(self.document, queries, concurrency=concurrency)

    def refresh_version(self) -> str:
        return self.host.refresh_version(self.document)
