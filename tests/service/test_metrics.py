"""Unit tests for the service metrics aggregator."""

import pytest

from repro.distributed.stats import RunStats
from repro.service.metrics import (
    DEFAULT_SAMPLE_WINDOW,
    BatchStats,
    ServiceMetrics,
    percentile,
)
from repro.service.server import ServiceHost
from repro.workloads.queries import clientele_example_tree, clientele_paper_fragmentation


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0.95) == 7.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 5.0

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_fraction_validated_even_for_empty_input(self):
        # The empty-input 0.0 shortcut must not bypass validation.
        with pytest.raises(ValueError):
            percentile([], -0.1)
        with pytest.raises(ValueError):
            percentile([], 2.0)

    def test_input_need_not_be_sorted(self):
        assert percentile([9.0, 1.0, 5.0], 0.5) == 5.0

    def test_duplicate_values(self):
        assert percentile([2.0, 2.0, 2.0, 2.0], 0.95) == 2.0
        assert percentile([1.0, 2.0, 2.0, 3.0], 0.5) == 2.0

    def test_input_not_mutated(self):
        values = [3.0, 1.0, 2.0]
        percentile(values, 0.5)
        assert values == [3.0, 1.0, 2.0]

    def test_interpolates_between_adjacent_samples(self):
        assert percentile([0.0, 10.0], 0.25) == pytest.approx(2.5)

    def test_boundary_fractions_on_single_value(self):
        assert percentile([4.0], 0.0) == 4.0
        assert percentile([4.0], 1.0) == 4.0


class TestServiceMetrics:
    def record_n(self, metrics, latencies, **kwargs):
        for value in latencies:
            metrics.record("//a", "PaX2", value, **kwargs)

    def test_totals_by_service_path(self):
        metrics = ServiceMetrics()
        metrics.record("//a", "PaX2", 0.01)
        metrics.record("//a", "PaX2", 0.001, cache_hit=True)
        metrics.record("//a", "PaX2", 0.002, coalesced=True)
        assert metrics.total_requests == 3
        assert metrics.total_evaluated == 1
        assert metrics.total_cache_hits == 1
        assert metrics.total_coalesced == 1

    def test_percentiles_over_records(self):
        metrics = ServiceMetrics()
        self.record_n(metrics, [0.001 * step for step in range(1, 101)])
        assert metrics.p50 == pytest.approx(0.0505, rel=1e-3)
        assert metrics.p95 == pytest.approx(0.09505, rel=1e-3)
        assert metrics.p99 <= 0.1

    def test_throughput_positive_after_traffic(self):
        metrics = ServiceMetrics()
        self.record_n(metrics, [0.001, 0.001])
        assert metrics.throughput_qps > 0
        assert metrics.elapsed_seconds > 0

    def test_answer_counts_come_from_stats(self):
        metrics = ServiceMetrics()
        stats = RunStats(algorithm="PaX2", query="//a", answer_ids=[1, 2])
        record = metrics.record("//a", "PaX2", 0.001, stats=stats)
        assert record.answer_count == 2

    def test_window_bounds_records_not_totals(self):
        metrics = ServiceMetrics(window=5)
        self.record_n(metrics, [0.001] * 12)
        assert len(metrics.records) == 5
        assert metrics.total_requests == 12

    def test_summary_and_dict(self):
        metrics = ServiceMetrics()
        self.record_n(metrics, [0.002, 0.004])
        text = metrics.summary()
        assert "throughput" in text and "p95" in text
        snapshot = metrics.to_dict()
        assert snapshot["requests"] == 2
        assert snapshot["latency_seconds"]["p50"] == pytest.approx(0.003, rel=1e-3)

    def test_window_validated(self):
        with pytest.raises(ValueError):
            ServiceMetrics(window=0)


class TestRetentionCaps:
    """Every per-record sample list in the service shares one documented cap."""

    def test_default_window_is_the_shared_cap(self):
        assert ServiceMetrics().window == DEFAULT_SAMPLE_WINDOW
        assert BatchStats.WINDOW_SAMPLES == DEFAULT_SAMPLE_WINDOW

    def test_host_metrics_retain_no_run_stats(self):
        # A record keeps the counts it reports, not the RunStats they came
        # from, so a full window does not pin a window of answer lists.
        host = ServiceHost()
        host.register("doc", clientele_paper_fragmentation(clientele_example_tree()))
        host.execute("doc", "client/name")  # evaluated
        host.execute("doc", "client/name")  # a cache hit
        assert host.metrics.window == DEFAULT_SAMPLE_WINDOW
        assert [record.cache_hit for record in host.metrics.records] == [False, True]
        for record in host.metrics.records:
            assert record.answer_count > 0
            assert not any(isinstance(value, RunStats) for value in vars(record).values())

    def test_update_records_bounded_like_query_records(self):
        metrics = ServiceMetrics(window=4)
        for index in range(11):
            metrics.record_update("edit_text", f"F{index}", 0.001)
        assert len(metrics.update_records) == 4
        assert metrics.total_updates == 11
        # the retained window holds the most recent records
        assert [record.fragment_id for record in metrics.update_records] == [
            "F7", "F8", "F9", "F10",
        ]

    def test_batcher_window_samples_bounded(self):
        stats = BatchStats()
        stats.WINDOW_SAMPLES = 6  # instance override of the class cap
        for _ in range(5):
            stats.record_scan(requests=2, slots=2, window_seconds=[0.001, 0.002])
        assert len(stats.window_seconds) == 6
        assert stats.fused_scans == 5
        assert stats.batched_queries == 10

    def test_tracer_retention_documented_smaller(self):
        # A retained request is a whole span tree, so the tracer's cap is
        # deliberately far below the flat-record sample window.
        from repro.obs.trace import DEFAULT_KEEP_SPANS

        assert DEFAULT_KEEP_SPANS < DEFAULT_SAMPLE_WINDOW


class TestZeroAndPartialTraffic:
    """summary()/to_dict() must render before (and between) traffic."""

    def test_zero_traffic_summary_renders(self):
        metrics = ServiceMetrics()
        text = metrics.summary()
        assert "requests         : 0" in text
        assert "0.00 ms" in text

    def test_zero_traffic_to_dict_is_all_zeros(self):
        snapshot = ServiceMetrics().to_dict()
        assert snapshot["requests"] == 0
        assert snapshot["throughput_qps"] == 0.0
        assert snapshot["elapsed_seconds"] == 0.0
        assert snapshot["latency_seconds"]["p95"] == 0.0
        assert snapshot["updates"]["applied"] == 0
        assert snapshot["documents"] == {}

    def test_updates_only_traffic(self):
        metrics = ServiceMetrics()
        metrics.record_update("edit_text", "F0", 0.002, nodes_added=1)
        text = metrics.summary()
        assert "updates          : 1 applied" in text
        snapshot = metrics.to_dict()
        assert snapshot["requests"] == 0
        assert snapshot["updates"]["applied"] == 1
        assert snapshot["updates"]["by_kind"] == {"edit_text": 1}

    def test_queries_only_traffic_has_empty_update_block(self):
        metrics = ServiceMetrics()
        metrics.record("//a", "PaX2", 0.001)
        snapshot = metrics.to_dict()
        assert snapshot["updates"]["applied"] == 0
        assert snapshot["updates"]["latency_seconds"]["p50"] == 0.0

    def test_document_breakdown_with_partial_documents(self):
        # One document has only queries, the other only updates: both render.
        metrics = ServiceMetrics()
        metrics.record("//a", "PaX2", 0.004, document="reads")
        metrics.record_update("edit_text", "F0", 0.002, document="writes")
        breakdown = metrics.document_breakdown()
        assert breakdown["reads"]["requests"] == 1
        assert breakdown["reads"]["updates"] == 0
        assert breakdown["writes"]["requests"] == 0
        assert breakdown["writes"]["updates"] == 1
        assert breakdown["writes"]["latency_seconds"]["p50"] == 0.0

    def test_multi_document_summary_lists_each(self):
        metrics = ServiceMetrics()
        metrics.record("//a", "PaX2", 0.004, document="alpha")
        metrics.record("//b", "PaX2", 0.002, document="beta", cache_hit=True)
        text = metrics.summary()
        assert "alpha: 1 requests" in text
        assert "beta: 1 requests" in text

    def test_reset_clock_restarts_throughput_window(self):
        metrics = ServiceMetrics()
        metrics.record("//a", "PaX2", 0.001)
        assert metrics.throughput_qps > 0
        metrics.reset_clock()
        assert metrics.throughput_qps == 0.0
        assert metrics.elapsed_seconds == 0.0
        assert len(metrics.records) == 1  # records survive the clock reset
