"""End-to-end tracing over the real service host: span taxonomy, attribution
accounting and guarantee coverage on live traffic."""

import pytest

from repro.core.kernel.dispatch import KERNEL, VECTOR
from repro.core.vector import numpy_available
from repro.obs.trace import Tracer
from repro.service.server import ServiceEngine
from repro.workloads.queries import PAPER_QUERIES
from repro.workloads.scenarios import build_ft2
from repro.xpath.centralized import evaluate_centralized


@pytest.fixture(scope="module")
def ft2():
    return build_ft2(total_bytes=40_000, seed=7)


@pytest.fixture(scope="module")
def traced(ft2):
    tracer = Tracer(check_guarantees=True)
    service = ServiceEngine(
        ft2.fragmentation,
        placement=ft2.placement,
        tracer=tracer,
        cache_capacity=8,
    )
    queries = list(PAPER_QUERIES.values()) * 2
    results = service.serve_batch(queries, concurrency=4)
    return tracer, service, queries, results


class TestRequestSpans:
    def test_one_root_per_request(self, traced):
        tracer, _, queries, _ = traced
        assert tracer.requests_traced == len(queries)
        assert all(root.kind == "query" for root in tracer.finished)

    def test_expected_span_taxonomy(self, traced):
        tracer, _, _, _ = traced
        names = {node.name for root in tracer.finished for node in root.walk()}
        for expected in (
            "query",
            "cache:lookup",
            "plan:compile",
            "evaluate",
            "site:stage1",
            "batch:window",
            "kernel:fused",
            "unify",
            "reassembly",
            "respond",
        ):
            assert expected in names, f"missing span {expected!r} in {sorted(names)}"

    def test_evaluated_roots_carry_stats_and_visits(self, traced):
        tracer, _, _, _ = traced
        evaluated = [root for root in tracer.finished if root.stats is not None]
        assert evaluated
        for root in evaluated:
            assert root.attributes["max_site_visits"] <= 2  # PaX2 bound
            assert root.attributes["answer_count"] == len(root.stats.answer_ids)

    @pytest.mark.parametrize("engine", [
        KERNEL,
        pytest.param(
            VECTOR, marks=pytest.mark.skipif(not numpy_available(), reason="needs numpy")
        ),
    ])
    def test_zero_guarantee_violations_on_live_traffic(self, ft2, engine):
        queries = list(PAPER_QUERIES.values())
        tracer = Tracer(check_guarantees=True)
        service = ServiceEngine(
            ft2.fragmentation,
            placement=ft2.placement,
            engine=engine,
            tracer=tracer,
            cache_capacity=0,
        )
        service.serve_batch(queries, concurrency=len(queries))
        assert tracer.violation_count == 0
        assert tracer.guarantees.checked > 0

    def test_answers_unchanged_by_tracing(self, traced, ft2):
        _, _, queries, results = traced
        for query, result in zip(queries, results):
            expected = evaluate_centralized(ft2.tree, query).answer_ids
            assert result.answer_ids == expected


class TestAttributionAccounting:
    def test_breakdown_within_request_wall_clock(self, traced):
        tracer, _, _, _ = traced
        for root in tracer.finished:
            attributed = root.attributed_seconds()
            assert attributed > 0.0
            # Every instant is charged to exactly one stage, so the stage
            # seconds can never exceed the request's own duration.
            assert attributed <= root.duration + 1e-9

    def test_breakdown_attribute_matches_recompute(self, traced):
        tracer, _, _, _ = traced
        for root in tracer.finished:
            recorded = root.attributes["breakdown_seconds"]
            recomputed = root.breakdown()
            assert set(recorded) == set(recomputed)
            for stage, seconds in recorded.items():
                assert seconds == pytest.approx(recomputed[stage], abs=1e-8)

    def test_stage_histograms_cover_core_stages(self, traced):
        tracer, _, _, _ = traced
        assert tracer.histograms["query"].count == tracer.requests_traced
        for stage in ("kernel", "compile"):
            assert tracer.histograms[f"stage:{stage}"].count > 0


class TestWritePathSpans:
    def test_update_root_covers_apply_and_retirement(self, ft2):
        from repro.updates import MixedWorkload
        from repro.workloads.queries import PAPER_QUERIES as QUERIES

        tracer = Tracer(check_guarantees=True)
        service = ServiceEngine(
            ft2.fragmentation, placement=ft2.placement, tracer=tracer
        )
        workload = MixedWorkload(
            ft2.fragmentation, list(QUERIES.values()), write_ratio=1.0, seed=3
        )
        service.execute(QUERIES["Q1"])  # populate the cache so a write retires
        for _ in range(3):
            service.update(workload.next_op().mutation)
        updates = [root for root in tracer.finished if root.kind == "update"]
        assert len(updates) == 3
        names = {node.name for root in updates for node in root.walk()}
        assert {"update", "update:apply", "version:roll"} <= names

    def test_sequential_breakdown_reconciles(self, ft2):
        # The dispatch fill makes a root's breakdown sum to its wall clock
        # by construction; the framework share it absorbs must stay small
        # next to the staged sections on a real evaluated query.
        tracer = Tracer(check_guarantees=False)
        service = ServiceEngine(
            ft2.fragmentation, placement=ft2.placement, tracer=tracer,
            cache_capacity=0,
        )
        service.execute(PAPER_QUERIES["Q2"])
        (root,) = tracer.finished
        breakdown = root.breakdown()
        assert root.attributed_seconds() == pytest.approx(root.duration, rel=1e-6)
        # generous bound: even on a loaded CI box, real stages dominate
        assert breakdown.get("dispatch", 0.0) <= root.duration * 0.5


class TestTracerSwap:
    def test_tracer_attaches_to_running_host(self, ft2):
        service = ServiceEngine(
            ft2.fragmentation, placement=ft2.placement, cache_capacity=0
        )
        service.execute(PAPER_QUERIES["Q1"])  # untraced warm-up
        tracer = Tracer(check_guarantees=True)
        service.host.tracer = tracer
        service.execute(PAPER_QUERIES["Q1"])
        assert tracer.requests_traced == 1
