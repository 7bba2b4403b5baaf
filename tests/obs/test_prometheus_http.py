"""Prometheus rendering and the /metrics HTTP endpoint over a live host."""

import asyncio
import json
import urllib.request

import pytest

from repro.obs import MetricsServer, Tracer, render_prometheus, stats_payload
from repro.service.server import ServiceEngine
from repro.workloads.queries import (
    CLIENTELE_QUERIES,
    clientele_example_tree,
    clientele_paper_fragmentation,
)


@pytest.fixture(scope="module")
def traced_service():
    tree = clientele_example_tree()
    fragmentation = clientele_paper_fragmentation(tree)
    service = ServiceEngine(fragmentation, tracer=Tracer(check_guarantees=True))
    service.serve_batch(
        ["client/name", CLIENTELE_QUERIES["brokers_goog"], "client/name"],
        concurrency=2,
    )
    return service.host


class TestRenderPrometheus:
    def test_counters_present(self, traced_service):
        text = render_prometheus(traced_service)
        assert "repro_requests_total 3" in text
        assert "repro_requests_evaluated_total 2" in text
        assert "repro_requests_cache_hits_total 1" in text
        assert "# TYPE repro_requests_total counter" in text

    def test_tracing_metrics_present(self, traced_service):
        text = render_prometheus(traced_service)
        assert "repro_traced_requests_total 3" in text
        assert "repro_guarantee_violations_total 0" in text
        assert 'repro_stage_latency_seconds_bucket{le="+Inf",stage="kernel"}' in text
        assert "repro_request_latency_seconds_count" in text

    def test_site_and_cache_metrics_present(self, traced_service):
        text = render_prometheus(traced_service)
        assert "repro_cache_hits_total 1" in text
        assert 'repro_site_requests_total{site="S' in text

    def test_help_and_type_emitted_once(self, traced_service):
        text = render_prometheus(traced_service)
        assert text.count("# TYPE repro_requests_total counter") == 1

    def test_untraced_host_renders_without_tracer_block(self):
        tree = clientele_example_tree()
        service = ServiceEngine(clientele_paper_fragmentation(tree))
        text = render_prometheus(service.host)
        assert "repro_requests_total 0" in text
        assert "repro_traced_requests_total" not in text


class TestStatsPayload:
    def test_every_surface_included(self, traced_service):
        payload = stats_payload(traced_service)
        assert payload["metrics"]["requests"] == 3
        assert payload["cache"]["hits"] == 1
        assert payload["tracing"]["requests_traced"] == 3
        json.dumps(payload)  # must be JSON-ready as-is


async def _http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\nHost: test\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.decode("utf-8").partition("\r\n\r\n")
    return head.splitlines()[0], body


class TestMetricsServer:
    def test_routes_served(self, traced_service):
        async def scenario():
            server = await MetricsServer(traced_service, port=0).start()
            try:
                status, metrics = await _http_get(server.port, "/metrics")
                assert status.endswith("200 OK")
                assert "repro_requests_total 3" in metrics
                status, stats = await _http_get(server.port, "/stats.json")
                assert json.loads(stats)["metrics"]["requests"] == 3
                status, health = await _http_get(server.port, "/healthz")
                assert health.startswith("ok")
                status, _ = await _http_get(server.port, "/nope")
                assert status.endswith("404 Not Found")
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_scrapeable_with_urllib(self, traced_service):
        # The exact client `repro stats` uses, against a live loop in a thread.
        async def scenario():
            server = await MetricsServer(traced_service, port=0).start()
            try:
                url = f"{server.url}/metrics"
                body = await asyncio.to_thread(
                    lambda: urllib.request.urlopen(url, timeout=10.0).read()
                )
                assert b"repro_requests_total" in body
            finally:
                await server.stop()

        asyncio.run(scenario())
