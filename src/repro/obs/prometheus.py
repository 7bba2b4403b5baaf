"""Prometheus text-format exposition of one service host's metrics.

:func:`render_prometheus` walks a :class:`~repro.service.server.ServiceHost`
(duck-typed — anything with ``metrics``/``cache``/``sessions``/``actors``/
``tracer`` works; for the single-document ``ServiceEngine`` pass its
``host``) and renders every counter the serving stack keeps into the text
exposition format (version 0.0.4) a Prometheus scraper, ``curl`` or
``repro stats`` can consume:

* ``repro_requests_total`` / ``…_evaluated`` / ``…_cache_hits`` /
  ``…_coalesced`` and per-document variants (label ``document``);
* update counters by kind and document, plus node/invalidation totals;
* prepared-query hits, misses and evictions per document;
* result-cache counters host-wide and per document;
* stage-1 pass batching counters per document;
* per-site actor gauges (requests, busy/queued seconds, peak concurrency);
* when tracing is enabled: ``repro_request_latency_seconds`` /
  ``repro_update_latency_seconds`` histograms, one
  ``repro_stage_latency_seconds{stage=…}`` histogram per attribution stage,
  traced-request and guarantee-checker counters.

Latency quantiles from the exact sample window are exposed as gauges
(``repro_request_latency_quantile_seconds{quantile="0.95"}``) so a host
without tracing still exports latency; the histograms add the cross-scrape
aggregatable view when a tracer is attached.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.histogram import Histogram

__all__ = ["render_prometheus"]


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Lines:
    """Accumulates exposition lines, emitting HELP/TYPE once per metric."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._declared: Dict[str, str] = {}

    def add(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, Any]] = None,
        metric_type: str = "counter",
        help_text: str = "",
    ) -> None:
        declared = self._declared.get(name)
        if declared is None:
            if help_text:
                self._lines.append(f"# HELP {name} {help_text}")
            self._lines.append(f"# TYPE {name} {metric_type}")
            self._declared[name] = metric_type
        if labels:
            rendered = ",".join(
                f'{key}="{_escape(str(item))}"' for key, item in sorted(labels.items())
            )
            self._lines.append(f"{name}{{{rendered}}} {_fmt(value)}")
        else:
            self._lines.append(f"{name} {_fmt(value)}")

    def add_histogram(
        self,
        name: str,
        histogram: Histogram,
        labels: Optional[Mapping[str, Any]] = None,
        help_text: str = "",
    ) -> None:
        base = dict(labels) if labels else {}
        declared = name + "_bucket"
        if declared not in self._declared:
            if help_text:
                self._lines.append(f"# HELP {name} {help_text}")
            self._lines.append(f"# TYPE {name} histogram")
            self._declared[declared] = "histogram"
        for bound, cumulative in histogram.cumulative():
            bucket_labels = dict(base)
            bucket_labels["le"] = "+Inf" if bound == math.inf else _fmt(bound)
            rendered = ",".join(
                f'{key}="{_escape(str(item))}"'
                for key, item in sorted(bucket_labels.items())
            )
            self._lines.append(f"{name}_bucket{{{rendered}}} {cumulative}")
        suffix = (
            "{" + ",".join(
                f'{key}="{_escape(str(item))}"' for key, item in sorted(base.items())
            ) + "}"
            if base
            else ""
        )
        self._lines.append(f"{name}_sum{suffix} {_fmt(histogram.sum)}")
        self._lines.append(f"{name}_count{suffix} {histogram.count}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def render_prometheus(host: Any) -> str:
    """The text-format exposition of *host*'s full metrics surface."""
    lines = _Lines()
    metrics = host.metrics

    # -- request totals ----------------------------------------------------
    lines.add("repro_requests_total", metrics.total_requests,
              help_text="Requests served (evaluated + cache hits + coalesced).")
    lines.add("repro_requests_evaluated_total", metrics.total_evaluated,
              help_text="Requests answered by running an evaluation.")
    lines.add("repro_requests_cache_hits_total", metrics.total_cache_hits,
              help_text="Requests answered from the result cache.")
    lines.add("repro_requests_coalesced_total", metrics.total_coalesced,
              help_text="Requests answered by joining an identical in-flight query.")
    lines.add("repro_throughput_qps", metrics.throughput_qps, metric_type="gauge",
              help_text="Requests per second over the measurement window.")
    for quantile, value in (("0.5", metrics.p50), ("0.95", metrics.p95), ("0.99", metrics.p99)):
        lines.add(
            "repro_request_latency_quantile_seconds", value,
            labels={"quantile": quantile}, metric_type="gauge",
            help_text="Exact request-latency quantiles from the retained sample window.",
        )

    # -- degradation & shedding --------------------------------------------
    lines.add("repro_requests_degraded_total", getattr(metrics, "total_degraded", 0),
              help_text="Requests answered with a partial (degraded) answer.")
    lines.add("repro_requests_shed_total", getattr(metrics, "total_shed", 0),
              help_text="Requests shed before evaluation (deadline expired while queued).")
    for stage, count in sorted(getattr(metrics, "shed_by_stage", {}).items()):
        lines.add("repro_requests_shed_by_stage_total", count,
                  labels={"stage": stage},
                  help_text="Requests shed, by the queue the budget expired in.")

    # -- resilience --------------------------------------------------------
    resilience = getattr(host, "resilience", None)
    if resilience is not None:
        rstats = resilience.stats
        lines.add("repro_retries_total", rstats.retries,
                  help_text="Site rounds retried after a transport failure.")
        for site, count in sorted(rstats.retries_by_site.items()):
            lines.add("repro_site_retries_total", count, labels={"site": site},
                      help_text="Site rounds retried, by site.")
        lines.add("repro_hedged_sends_total", rstats.hedged_sends,
                  help_text="Duplicate messages raced against stragglers.")
        lines.add("repro_breaker_trips_total", rstats.breaker_trips,
                  help_text="Circuit breakers tripped open.")
        lines.add("repro_breaker_rejections_total", rstats.breaker_rejections,
                  help_text="Rounds rejected fast by an open circuit breaker.")
        lines.add("repro_breaker_probes_total", rstats.breaker_probes,
                  help_text="Half-open probe rounds admitted through a breaker.")
        lines.add("repro_degraded_answers_total", rstats.degraded_answers,
                  help_text="Evaluations that degraded to a partial answer.")
        lines.add("repro_deadline_failures_total", rstats.deadline_failures,
                  help_text="Site rounds abandoned because the request budget ran out.")
        for site, breaker in sorted(resilience.breakers().items()):
            lines.add("repro_breaker_open", 1.0 if breaker.state != "closed" else 0.0,
                      labels={"site": site}, metric_type="gauge",
                      help_text="1 when the site's circuit breaker is open or half-open.")

    # -- fault injection ---------------------------------------------------
    injector = getattr(getattr(host, "config", None), "fault_injector", None)
    if injector is not None:
        fstats = injector.stats
        lines.add("repro_faults_dropped_total", fstats.drops,
                  help_text="Messages dropped by the fault injector.")
        lines.add("repro_faults_blackout_dropped_total", fstats.blackout_drops,
                  help_text="Messages dropped inside injected blackout windows.")
        lines.add("repro_faults_duplicated_total", fstats.duplicates,
                  help_text="Duplicate deliveries injected.")
        lines.add("repro_faults_delayed_total", fstats.delays,
                  help_text="Messages given an injected delay spike.")

    # -- updates -----------------------------------------------------------
    lines.add("repro_updates_total", metrics.total_updates,
              help_text="Document mutations applied.")
    for kind, count in sorted(metrics.updates_by_kind.items()):
        lines.add("repro_updates_by_kind_total", count, labels={"kind": kind},
                  help_text="Document mutations applied, by mutation kind.")
    lines.add("repro_update_nodes_added_total", metrics.total_nodes_added,
              help_text="Nodes added by mutations.")
    lines.add("repro_update_nodes_removed_total", metrics.total_nodes_removed,
              help_text="Nodes removed by mutations.")
    lines.add("repro_update_cache_retirements_total", metrics.total_update_invalidations,
              help_text="Cache entries retired by mutations.")

    # -- per document ------------------------------------------------------
    lines.add("repro_documents", len(getattr(host, "sessions", {}) or {}),
              metric_type="gauge", help_text="Documents currently served.")
    for name, totals in sorted(metrics.documents.items()):
        labels = {"document": name}
        lines.add("repro_document_requests_total", totals.requests, labels=labels,
                  help_text="Requests served, by document.")
        lines.add("repro_document_evaluated_total", totals.evaluated, labels=labels,
                  help_text="Requests evaluated, by document.")
        lines.add("repro_document_cache_hits_total", totals.cache_hits, labels=labels,
                  help_text="Cache hits, by document.")
        lines.add("repro_document_updates_total", totals.updates, labels=labels,
                  help_text="Mutations applied, by document.")
        lines.add("repro_document_shed_total", getattr(totals, "shed", 0),
                  labels=labels,
                  help_text="Requests shed, by document.")
        for outcome, count in sorted(totals.prepared_dict().items()):
            lines.add("repro_document_prepared_total", count,
                      labels={"document": name, "outcome": outcome},
                      help_text="Prepared-query lookups by document: hits, misses"
                                " and raw texts evicted from the LRU.")
        for stage, count in sorted(getattr(totals, "shed_by_stage", {}).items()):
            lines.add("repro_document_shed_by_stage_total", count,
                      labels={"document": name, "stage": stage},
                      help_text="Requests shed, by document and shed stage.")
        quantiles = getattr(metrics, "queue_wait_quantiles", None)
        if quantiles is not None:
            for quantile, value in sorted(quantiles(name).items()):
                # "p95" -> the conventional "0.95" quantile label.
                label = "0." + quantile.lstrip("p").rstrip("0") if quantile != "p50" else "0.5"
                lines.add(
                    "repro_document_queue_wait_quantile_seconds", value,
                    labels={"document": name, "quantile": label},
                    metric_type="gauge",
                    help_text="Admission queue wait quantiles, by document.",
                )

    # -- snapshots ---------------------------------------------------------
    for name, session in sorted((getattr(host, "sessions", {}) or {}).items()):
        manager = getattr(session, "snapshots", None)
        if manager is None:
            continue
        sstats = manager.stats
        labels = {"document": name}
        lines.add("repro_snapshot_pins_total", sstats.pins, labels=labels,
                  help_text="Reads admitted against a pinned version snapshot.")
        lines.add("repro_snapshot_reclaimed_total", sstats.snapshots_reclaimed,
                  labels=labels,
                  help_text="Version snapshots reclaimed after the last pin drained.")
        lines.add("repro_snapshot_writer_stalls_total", sstats.writer_stalls,
                  labels=labels,
                  help_text="Writers stalled on the retained-version watermark.")
        lines.add("repro_snapshot_retained", manager.retained, labels=labels,
                  metric_type="gauge",
                  help_text="Version snapshots currently retained.")
        lines.add("repro_snapshot_peak_retained", sstats.peak_retained,
                  labels=labels, metric_type="gauge",
                  help_text="Peak retained version snapshots.")

    # -- result cache ------------------------------------------------------
    cache = getattr(host, "cache", None)
    if cache is not None:
        stats = cache.stats
        lines.add("repro_cache_entries", len(cache), metric_type="gauge",
                  help_text="Live result-cache entries.")
        lines.add("repro_cache_capacity", cache.capacity, metric_type="gauge",
                  help_text="Result-cache capacity.")
        lines.add("repro_cache_hits_total", stats.hits,
                  help_text="Result-cache hits.")
        lines.add("repro_cache_misses_total", stats.misses,
                  help_text="Result-cache misses.")
        lines.add("repro_cache_stores_total", stats.stores,
                  help_text="Result-cache stores.")
        lines.add("repro_cache_evictions_total", stats.evictions,
                  help_text="Result-cache LRU evictions.")
        lines.add("repro_cache_invalidations_total", stats.invalidations,
                  help_text="Result-cache invalidations (version retirement included).")
        lines.add("repro_cache_rekeyed_total", stats.rekeyed,
                  help_text="Entries carried across a version roll untouched.")
        for name, slice_ in sorted(stats.documents.items()):
            labels = {"document": name}
            lines.add("repro_document_cache_hits_detail_total", slice_.hits,
                      labels=labels, help_text="Cache hits charged per document.")
            lines.add("repro_document_cache_evictions_total", slice_.evictions,
                      labels=labels,
                      help_text="Evictions charged to the evicted entry's document.")

    # -- batching ----------------------------------------------------------
    sessions = getattr(host, "sessions", None) or {}
    for name, session in sorted(sessions.items()):
        batcher = getattr(session, "batcher", None)
        if batcher is None:
            continue
        labels = {"document": name}
        lines.add("repro_batch_fused_scans_total", batcher.stats.fused_scans,
                  labels=labels, help_text="Per-fragment combined passes the batcher ran.")
        lines.add("repro_batch_queries_total", batcher.stats.batched_queries,
                  labels=labels, help_text="Per-query pass requests served by those passes.")
        lines.add("repro_batch_dedup_hits_total", batcher.stats.dedup_hits,
                  labels=labels, help_text="Requests sharing another request's pass.")

    # -- site actors -------------------------------------------------------
    actors = getattr(host, "actors", None)
    if actors is not None:
        for site_id in actors.site_ids():
            actor = actors[site_id]
            labels = {"site": site_id}
            lines.add("repro_site_requests_total", actor.requests, labels=labels,
                      help_text="Evaluation rounds served per site actor.")
            lines.add("repro_site_busy_seconds_total", actor.busy_seconds, labels=labels,
                      help_text="Seconds spent serving rounds per site actor.")
            lines.add("repro_site_queued_seconds_total", actor.queued_seconds,
                      labels=labels,
                      help_text="Seconds rounds waited for a site slot.")
            lines.add("repro_site_peak_in_flight", actor.peak_in_flight, labels=labels,
                      metric_type="gauge",
                      help_text="Highest concurrency observed per site actor.")

    # -- tracing -----------------------------------------------------------
    tracer = getattr(host, "tracer", None)
    if tracer is not None and getattr(tracer, "enabled", False):
        lines.add("repro_traced_requests_total", tracer.requests_traced,
                  help_text="Root spans finished by the tracer.")
        lines.add("repro_guarantee_violations_total", tracer.violation_count,
                  help_text="Per-site visit-bound violations observed on traced requests.")
        if tracer.guarantees is not None:
            lines.add("repro_guarantee_checked_total", tracer.guarantees.checked,
                      help_text="Traced evaluations checked against the visit bounds.")
        for key, histogram in sorted(tracer.histograms.items()):
            if key.startswith("stage:"):
                lines.add_histogram(
                    "repro_stage_latency_seconds", histogram,
                    labels={"stage": key.split(":", 1)[1]},
                    help_text="Per-request attributed seconds, by latency stage.",
                )
            elif key == "update":
                lines.add_histogram(
                    "repro_update_latency_seconds", histogram,
                    help_text="Traced update latency.",
                )
            else:
                lines.add_histogram(
                    "repro_request_latency_seconds", histogram,
                    labels={"kind": key} if key != "request" else None,
                    help_text="Traced request latency.",
                )
    return lines.render()
