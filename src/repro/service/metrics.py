"""Service-level metrics: latency percentiles and throughput.

:class:`repro.distributed.stats.RunStats` measures one run in the paper's
cost model (visits, units, per-stage seconds).  A serving system needs the
orthogonal, per-*request* view: how long did each query take wall-clock from
submission to answer, how many were answered per second, and how did the
cache change that.  :class:`ServiceMetrics` aggregates one
:class:`QueryRecord` per served request into exactly those numbers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.distributed.stats import RunStats
from repro.service.store import DEFAULT_DOCUMENT

__all__ = [
    "BatchStats",
    "DEFAULT_SAMPLE_WINDOW",
    "DocumentTotals",
    "QueryRecord",
    "ServiceMetrics",
    "UpdateRecord",
    "percentile",
]

#: the one retention cap every per-record sample window in the service
#: shares: query/update records here, batching-window waits
#: (:attr:`BatchStats.WINDOW_SAMPLES`), and the tracer's retained spans
#: (:class:`repro.obs.trace.Tracer`).  Derived quantities (percentiles,
#: means) are window-estimates over the most recent ``DEFAULT_SAMPLE_WINDOW``
#: samples; lifetime totals keep counting everything.  A long-running host's
#: sample memory is thereby bounded regardless of traffic volume.
DEFAULT_SAMPLE_WINDOW = 10_000


def percentile(values: List[float], fraction: float) -> float:
    """The *fraction*-quantile of *values* with linear interpolation.

    ``fraction`` must be in ``[0, 1]`` (validated even for empty input); an
    empty input yields ``0.0`` so summary tables render before any traffic
    has arrived.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


class BatchStats:
    """Efficiency accounting of the service's fused-scan batcher.

    One *fused scan* walks a fragment once for every per-fragment combined
    pass that was pending inside the batching window; requests whose plans
    share a normalized fingerprint collapse to one kernel slot first
    (*dedup hits*).  ``queries_per_scan`` is the batching win: how many
    per-query fragment walks one physical walk replaced, on average.
    """

    #: retained batching-window wait samples (oldest dropped first) — the
    #: service-wide :data:`DEFAULT_SAMPLE_WINDOW` retention cap
    WINDOW_SAMPLES = DEFAULT_SAMPLE_WINDOW

    def __init__(self) -> None:
        #: fused per-fragment scans executed
        self.fused_scans = 0
        #: per-query combined-pass requests served by those scans
        self.batched_queries = 0
        #: requests that shared another request's kernel slot (same
        #: normalized plan fingerprint and initialization)
        self.dedup_hits = 0
        #: seconds each request waited in the batching window before its
        #: fused scan ran
        self.window_seconds: List[float] = []

    def record_scan(
        self, requests: int, slots: int, window_seconds: List[float]
    ) -> None:
        """Record one fused scan serving *requests* requests via *slots* slots."""
        self.fused_scans += 1
        self.batched_queries += requests
        self.dedup_hits += requests - slots
        self.window_seconds.extend(window_seconds)
        if len(self.window_seconds) > self.WINDOW_SAMPLES:
            del self.window_seconds[: len(self.window_seconds) - self.WINDOW_SAMPLES]

    @property
    def queries_per_scan(self) -> float:
        return self.batched_queries / self.fused_scans if self.fused_scans else 0.0

    @property
    def window_p50(self) -> float:
        return percentile(self.window_seconds, 0.50)

    @property
    def window_p95(self) -> float:
        return percentile(self.window_seconds, 0.95)

    def summary(self) -> str:
        return (
            f"batching: {self.fused_scans} fused scans,"
            f" {self.batched_queries} batched passes"
            f" ({self.queries_per_scan:.2f} per scan),"
            f" {self.dedup_hits} dedup hits,"
            f" window p50 {self.window_p50 * 1000:.2f} ms"
            f" p95 {self.window_p95 * 1000:.2f} ms"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "fused_scans": self.fused_scans,
            "batched_queries": self.batched_queries,
            "queries_per_scan": round(self.queries_per_scan, 2),
            "dedup_hits": self.dedup_hits,
            "window_seconds": {
                "p50": round(self.window_p50, 6),
                "p95": round(self.window_p95, 6),
            },
        }

    def __repr__(self) -> str:
        return (
            f"<BatchStats scans={self.fused_scans}"
            f" queries_per_scan={self.queries_per_scan:.2f}"
            f" dedup={self.dedup_hits}>"
        )


@dataclass
class QueryRecord:
    """One served request: what ran, how it was answered, how long it took."""

    query: str
    algorithm: str
    latency_seconds: float
    cache_hit: bool = False
    coalesced: bool = False
    answer_count: int = 0
    communication_units: int = 0
    #: which document of the host served this request
    document: str = DEFAULT_DOCUMENT
    #: the answer was a :class:`~repro.core.results.PartialAnswer` (some
    #: site unreachable past the request's budget)
    degraded: bool = False
    #: the run's accounting; shared between records when the cache answered
    stats: Optional[RunStats] = field(default=None, repr=False)


@dataclass
class UpdateRecord:
    """One applied document mutation: what changed, where, how long it took.

    ``latency_seconds`` is submission-to-applied wall clock, which includes
    time spent draining in-flight readers; ``apply_seconds`` is the
    exclusive mutation window alone.
    """

    kind: str
    fragment_id: str
    latency_seconds: float
    apply_seconds: float = 0.0
    nodes_added: int = 0
    nodes_removed: int = 0
    #: cache entries of the superseded version tag retired by this write
    invalidated_entries: int = 0
    #: which document of the host this mutation landed in
    document: str = DEFAULT_DOCUMENT


@dataclass
class DocumentTotals:
    """Lifetime per-document counters of one host's metrics aggregator."""

    requests: int = 0
    evaluated: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    updates: int = 0
    nodes_added: int = 0
    nodes_removed: int = 0
    update_invalidations: int = 0
    #: requests answered with a partial (degraded) answer
    degraded: int = 0
    #: requests shed before evaluation (deadline expired while queued,
    #: or rejected by this document's overload budget)
    shed: int = 0
    #: shed counts broken down by the stage that shed them
    shed_by_stage: Dict[str, int] = field(default_factory=dict)
    #: prepared-query lookups (see repro.service.prepared): served from a
    #: prepared entry, prepared afresh, and raw texts evicted from the LRU
    prepared_hits: int = 0
    prepared_misses: int = 0
    prepared_evictions: int = 0

    def prepared_dict(self) -> Dict[str, int]:
        return {
            "hits": self.prepared_hits,
            "misses": self.prepared_misses,
            "evictions": self.prepared_evictions,
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "evaluated": self.evaluated,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "updates": self.updates,
            "nodes_added": self.nodes_added,
            "nodes_removed": self.nodes_removed,
            "update_invalidations": self.update_invalidations,
            "degraded": self.degraded,
            "shed": self.shed,
            "shed_by_stage": dict(sorted(self.shed_by_stage.items())),
            "prepared": self.prepared_dict(),
        }


class ServiceMetrics:
    """Aggregator over :class:`QueryRecord` and :class:`UpdateRecord` entries.

    ``window`` bounds the number of retained records (oldest dropped first,
    :data:`DEFAULT_SAMPLE_WINDOW` by default — the same documented cap every
    sample list in the service uses) so a long-lived service does not grow
    without bound; the totals keep counting everything ever recorded.  One
    aggregator serves a whole host: each record carries its document name,
    lifetime totals are additionally kept per document (:attr:`documents`),
    and per-document latency percentiles are derived from the retained
    window on demand.
    """

    def __init__(self, window: int = DEFAULT_SAMPLE_WINDOW):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.records: List[QueryRecord] = []
        self.total_requests = 0
        self.total_cache_hits = 0
        self.total_coalesced = 0
        self.total_evaluated = 0
        self.update_records: List[UpdateRecord] = []
        self.total_updates = 0
        self.updates_by_kind: Dict[str, int] = {}
        self.total_nodes_added = 0
        self.total_nodes_removed = 0
        self.total_update_invalidations = 0
        self.total_degraded = 0
        #: requests shed before evaluation — an explicit fast-fail under
        #: deadline pressure; sheds never contribute a latency sample
        self.total_shed = 0
        self.shed_by_stage: Dict[str, int] = {}
        #: lifetime totals per document name
        self.documents: Dict[str, DocumentTotals] = {}
        #: per-document admission queue waits (window-bounded), recorded by
        #: the weighted-fair scheduler at every grant
        self.queue_waits: Dict[str, List[float]] = {}
        self._started_at = time.perf_counter()
        self._last_finish: Optional[float] = None

    def document(self, name: str) -> DocumentTotals:
        """The (auto-created) lifetime totals for document *name*."""
        totals = self.documents.get(name)
        if totals is None:
            totals = self.documents[name] = DocumentTotals()
        return totals

    # -- recording ---------------------------------------------------------

    def record(
        self,
        query: str,
        algorithm: str,
        latency_seconds: float,
        cache_hit: bool = False,
        coalesced: bool = False,
        stats: Optional[RunStats] = None,
        document: str = DEFAULT_DOCUMENT,
        degraded: bool = False,
    ) -> QueryRecord:
        entry = QueryRecord(
            query=query,
            algorithm=algorithm,
            latency_seconds=latency_seconds,
            cache_hit=cache_hit,
            coalesced=coalesced,
            answer_count=len(stats.answer_ids) if stats is not None else 0,
            communication_units=stats.communication_units if stats is not None else 0,
            document=document,
            degraded=degraded,
            stats=stats,
        )
        self.records.append(entry)
        if len(self.records) > self.window:
            del self.records[: len(self.records) - self.window]
        self.total_requests += 1
        totals = self.document(document)
        totals.requests += 1
        if cache_hit:
            self.total_cache_hits += 1
            totals.cache_hits += 1
        elif coalesced:
            self.total_coalesced += 1
            totals.coalesced += 1
        else:
            self.total_evaluated += 1
            totals.evaluated += 1
        if degraded:
            self.total_degraded += 1
            totals.degraded += 1
        self._last_finish = time.perf_counter()
        return entry

    def record_shed(self, document: str = DEFAULT_DOCUMENT, stage: str = "queued") -> None:
        """Record one request shed before evaluation (deadline expired in the
        *stage* queue).  Sheds are counted, never sampled: a fast-fail must
        not masquerade as a low latency in the percentiles."""
        self.total_shed += 1
        self.shed_by_stage[stage] = self.shed_by_stage.get(stage, 0) + 1
        totals = self.document(document)
        totals.shed += 1
        totals.shed_by_stage[stage] = totals.shed_by_stage.get(stage, 0) + 1
        self._last_finish = time.perf_counter()

    def record_prepared(self, document: str, hit: bool, evicted: bool) -> None:
        """Record one prepared-query lookup of *document*: a *hit* on a
        prepared entry or a miss, which may have *evicted* a raw text."""
        totals = self.document(document)
        if hit:
            totals.prepared_hits += 1
        else:
            totals.prepared_misses += 1
            totals.prepared_evictions += evicted

    def prepared_totals(self) -> Dict[str, int]:
        """Prepared-query hits, misses and evictions over every document."""
        totals = {"hits": 0, "misses": 0, "evictions": 0}
        for document in self.documents.values():
            for name, count in document.prepared_dict().items():
                totals[name] += count
        return totals

    def record_queue_wait(self, document: str, seconds: float) -> None:
        """Record one admission-queue wait for *document* (window-bounded)."""
        waits = self.queue_waits.get(document)
        if waits is None:
            waits = self.queue_waits[document] = []
        waits.append(seconds)
        if len(waits) > self.window:
            del waits[: len(waits) - self.window]

    def queue_wait_quantiles(self, document: str) -> Dict[str, float]:
        """Window-derived queue-wait quantiles for *document*."""
        waits = self.queue_waits.get(document, [])
        return {
            "p50": round(percentile(waits, 0.50), 6),
            "p95": round(percentile(waits, 0.95), 6),
            "p99": round(percentile(waits, 0.99), 6),
        }

    def record_update(
        self,
        kind: str,
        fragment_id: str,
        latency_seconds: float,
        apply_seconds: float = 0.0,
        nodes_added: int = 0,
        nodes_removed: int = 0,
        invalidated_entries: int = 0,
        document: str = DEFAULT_DOCUMENT,
    ) -> UpdateRecord:
        """Record one applied mutation (the write-side of :meth:`record`)."""
        entry = UpdateRecord(
            kind=kind,
            fragment_id=fragment_id,
            latency_seconds=latency_seconds,
            apply_seconds=apply_seconds,
            nodes_added=nodes_added,
            nodes_removed=nodes_removed,
            invalidated_entries=invalidated_entries,
            document=document,
        )
        self.update_records.append(entry)
        if len(self.update_records) > self.window:
            del self.update_records[: len(self.update_records) - self.window]
        self.total_updates += 1
        self.updates_by_kind[kind] = self.updates_by_kind.get(kind, 0) + 1
        self.total_nodes_added += nodes_added
        self.total_nodes_removed += nodes_removed
        self.total_update_invalidations += invalidated_entries
        totals = self.document(document)
        totals.updates += 1
        totals.nodes_added += nodes_added
        totals.nodes_removed += nodes_removed
        totals.update_invalidations += invalidated_entries
        self._last_finish = time.perf_counter()
        return entry

    def reset_clock(self) -> None:
        """Restart the throughput window (keeps the records)."""
        self._started_at = time.perf_counter()
        self._last_finish = None

    # -- derived quantities -------------------------------------------------

    def latencies(self) -> List[float]:
        return [record.latency_seconds for record in self.records]

    def latency_percentile(self, fraction: float) -> float:
        return percentile(self.latencies(), fraction)

    @property
    def p50(self) -> float:
        return self.latency_percentile(0.50)

    @property
    def p95(self) -> float:
        return self.latency_percentile(0.95)

    @property
    def p99(self) -> float:
        return self.latency_percentile(0.99)

    @property
    def mean_latency(self) -> float:
        values = self.latencies()
        return sum(values) / len(values) if values else 0.0

    @property
    def elapsed_seconds(self) -> float:
        """The measurement window: first submission to the latest answer."""
        if self._last_finish is None:
            return 0.0
        return max(self._last_finish - self._started_at, 1e-9)

    @property
    def throughput_qps(self) -> float:
        """Requests answered per second over the measurement window."""
        if self._last_finish is None:
            return 0.0
        return self.total_requests / self.elapsed_seconds

    def communication_units_total(self) -> int:
        return sum(record.communication_units for record in self.records)

    def update_latencies(self) -> List[float]:
        return [record.latency_seconds for record in self.update_records]

    def document_latencies(self, document: str) -> List[float]:
        """Retained query latencies of one document (window-bounded)."""
        return [
            record.latency_seconds
            for record in self.records
            if record.document == document
        ]

    def document_breakdown(self) -> Dict[str, Dict[str, object]]:
        """Per-document lifetime totals plus window-derived latency quantiles."""
        breakdown: Dict[str, Dict[str, object]] = {}
        for name in sorted(self.documents):
            payload: Dict[str, object] = self.documents[name].to_dict()
            latencies = self.document_latencies(name)
            payload["latency_seconds"] = {
                "p50": round(percentile(latencies, 0.50), 6),
                "p95": round(percentile(latencies, 0.95), 6),
            }
            payload["queue_wait_seconds"] = self.queue_wait_quantiles(name)
            breakdown[name] = payload
        return breakdown

    @property
    def update_p50(self) -> float:
        return percentile(self.update_latencies(), 0.50)

    @property
    def update_p95(self) -> float:
        return percentile(self.update_latencies(), 0.95)

    # -- presentation --------------------------------------------------------

    def summary(self) -> str:
        lines = [
            f"requests         : {self.total_requests}"
            f" ({self.total_evaluated} evaluated, {self.total_cache_hits} cache hits,"
            f" {self.total_coalesced} coalesced)",
            f"throughput       : {self.throughput_qps:.1f} queries/s"
            f" over {self.elapsed_seconds * 1000:.1f} ms",
            f"latency p50      : {self.p50 * 1000:.2f} ms",
            f"latency p95      : {self.p95 * 1000:.2f} ms",
            f"latency p99      : {self.p99 * 1000:.2f} ms",
            f"latency mean     : {self.mean_latency * 1000:.2f} ms",
        ]
        prepared = self.prepared_totals()
        if prepared["hits"] or prepared["misses"]:
            lines.append(
                f"prepared queries : {prepared['hits']} hits, {prepared['misses']} misses,"
                f" {prepared['evictions']} evictions"
            )
        if self.total_degraded or self.total_shed:
            by_stage = ", ".join(
                f"{count} at {stage}"
                for stage, count in sorted(self.shed_by_stage.items())
            )
            lines.append(
                f"degradation      : {self.total_degraded} partial answers,"
                f" {self.total_shed} shed" + (f" ({by_stage})" if by_stage else "")
            )
        if self.total_updates:
            by_kind = ", ".join(
                f"{count} {kind}" for kind, count in sorted(self.updates_by_kind.items())
            )
            lines.append(
                f"updates          : {self.total_updates} applied ({by_kind}),"
                f" +{self.total_nodes_added}/-{self.total_nodes_removed} nodes,"
                f" {self.total_update_invalidations} cache entries retired,"
                f" p50 {self.update_p50 * 1000:.2f} ms"
                f" p95 {self.update_p95 * 1000:.2f} ms"
            )
        if len(self.documents) > 1:
            lines.append("per document     :")
            for name, payload in self.document_breakdown().items():
                latency = payload["latency_seconds"]
                queue_wait = payload["queue_wait_seconds"]
                shed_suffix = ""
                if payload["shed"]:
                    by_stage = ", ".join(
                        f"{count} at {stage}"
                        for stage, count in payload["shed_by_stage"].items()
                    )
                    shed_suffix = f", {payload['shed']} shed ({by_stage})"
                lines.append(
                    f"  {name}: {payload['requests']} requests"
                    f" ({payload['evaluated']} evaluated,"
                    f" {payload['cache_hits']} hits,"
                    f" {payload['coalesced']} coalesced),"
                    f" {payload['updates']} updates,"
                    f" p50 {latency['p50'] * 1000:.2f} ms"
                    f" p95 {latency['p95'] * 1000:.2f} ms,"
                    f" queue p95 {queue_wait['p95'] * 1000:.2f} ms,"
                    f" prepared {payload['prepared']['hits']} hits"
                    f" / {payload['prepared']['misses']} misses"
                    f"{shed_suffix}"
                )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (served as ``/stats.json``)."""
        return {
            "requests": self.total_requests,
            "evaluated": self.total_evaluated,
            "cache_hits": self.total_cache_hits,
            "coalesced": self.total_coalesced,
            "degraded": self.total_degraded,
            "shed": self.total_shed,
            "shed_by_stage": dict(sorted(self.shed_by_stage.items())),
            "throughput_qps": round(self.throughput_qps, 2),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "latency_seconds": {
                "p50": round(self.p50, 6),
                "p95": round(self.p95, 6),
                "p99": round(self.p99, 6),
                "mean": round(self.mean_latency, 6),
            },
            "updates": {
                "applied": self.total_updates,
                "by_kind": dict(sorted(self.updates_by_kind.items())),
                "nodes_added": self.total_nodes_added,
                "nodes_removed": self.total_nodes_removed,
                "cache_entries_retired": self.total_update_invalidations,
                "latency_seconds": {
                    "p50": round(self.update_p50, 6),
                    "p95": round(self.update_p95, 6),
                },
            },
            "prepared": self.prepared_totals(),
            "documents": self.document_breakdown(),
        }

    def __repr__(self) -> str:
        return (
            f"<ServiceMetrics requests={self.total_requests}"
            f" qps={self.throughput_qps:.1f} p50={self.p50 * 1000:.2f}ms>"
        )
