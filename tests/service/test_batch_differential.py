"""Differential tests for the service's stage-1 pass batcher.

A wave of concurrent reads goes through
:class:`repro.service.actors.FragmentWaveBatcher`, which runs one ordinary
combined pass per distinct slot and hands its output to every waiter.  For
every query of every wave the answers *and* the traffic accounting must be
identical to a solo run of the single-query kernel and of the object-tree
reference engine — on every bundled workload, at wave sizes {1, 2, 7}, with
duplicate queries in the wave, and on every columnar engine the service runs
(including the numpy vector tier when numpy is importable).
"""

import asyncio
import copy

import pytest

from repro.core.combined import evaluate_fragment_combined
from repro.core.common import ensure_plan
from repro.core.engine import DistributedQueryEngine
from repro.core.kernel.combined import evaluate_fragment_combined_flat
from repro.core.kernel.dispatch import KERNEL, REFERENCE, VECTOR
from repro.core.pax2 import run_pax2
from repro.core.selection import concrete_root_init_vector, variable_init_vector
from repro.core.vector import numpy_available
from repro.service import actors
from repro.service.actors import FragmentWaveBatcher
from repro.service.server import ServiceHost
from repro.workloads.queries import (
    CLIENTELE_QUERIES,
    PAPER_QUERIES,
    clientele_example_tree,
    clientele_paper_fragmentation,
)
from repro.workloads.scenarios import build_ft1, build_ft2

from tests.conftest import fingerprint

COLUMNAR = (KERNEL, VECTOR) if numpy_available() else (KERNEL,)


def wave_of(queries, size):
    """A deterministic wave: round-robin over the query pool."""
    return [queries[index % len(queries)] for index in range(size)]


def serve_wave(fragmentation, placement, wave, use_annotations=False, engine=KERNEL):
    """Submit every query of *wave* concurrently to one fresh host.

    Returns the per-query stats, in wave order, and the document's batcher.
    """
    host = ServiceHost(
        engine=engine, use_annotations=use_annotations, cache_capacity=0,
        coalesce=False, max_in_flight=max(1, len(wave)),
    )
    host.register("doc", fragmentation, placement)

    async def run():
        return await asyncio.gather(*(host.submit("doc", query) for query in wave))

    results = asyncio.run(run())
    return [result.stats for result in results], host.session("doc").batcher


@pytest.fixture(scope="module")
def workloads():
    clientele = clientele_paper_fragmentation(clientele_example_tree())
    ft1 = build_ft1(fragment_count=4, total_bytes=25_000, seed=7)
    ft2 = build_ft2(total_bytes=30_000, seed=5)
    return {
        "clientele": (
            clientele,
            None,
            [q for q in CLIENTELE_QUERIES.values() if not q.startswith(".")],
        ),
        "xmark-ft1": (ft1.fragmentation, ft1.placement, list(PAPER_QUERIES.values())),
        "xmark-ft2": (ft2.fragmentation, ft2.placement, list(PAPER_QUERIES.values())),
    }


@pytest.mark.parametrize("use_annotations", [False, True])
@pytest.mark.parametrize("batch_size", [1, 2, 7])
def test_batch_matches_solo_kernel_and_reference(workloads, use_annotations, batch_size):
    for name, (fragmentation, placement, queries) in workloads.items():
        solo = {}
        for query in queries:
            kernel = fingerprint(
                run_pax2(
                    fragmentation, query, placement=placement,
                    use_annotations=use_annotations, engine=KERNEL,
                )
            )
            reference = fingerprint(
                run_pax2(
                    fragmentation, query, placement=placement,
                    use_annotations=use_annotations, engine=REFERENCE,
                )
            )
            assert kernel == reference, (name, query)
            solo[query] = kernel
        wave = wave_of(queries, batch_size)
        for engine in COLUMNAR:
            batch, batcher = serve_wave(
                fragmentation, placement, wave,
                use_annotations=use_annotations, engine=engine,
            )
            assert len(batch) == len(wave)
            for query, stats in zip(wave, batch):
                assert fingerprint(stats) == solo[query], (
                    name, use_annotations, batch_size, engine, query,
                )
            # every request's stage-1 passes went through the batcher
            assert batcher.stats.batched_queries > 0


def test_wave_of_duplicates_collapses_to_one_slot(workloads, monkeypatch):
    fragmentation, placement, queries = workloads["xmark-ft2"]
    query = queries[0]
    spellings = [query, query, query.replace("/site/", "/./site/")]
    plans = [ensure_plan(q) for q in spellings]
    assert len({plan.fingerprint for plan in plans}) == 1

    passes = []
    combined_pass = actors.combined_pass

    def counting_pass(fragmentation, fragment_id, *args, **kwargs):
        passes.append(fragment_id)
        return combined_pass(fragmentation, fragment_id, *args, **kwargs)

    monkeypatch.setattr(actors, "combined_pass", counting_pass)

    solo = fingerprint(run_pax2(fragmentation, query, placement=placement))
    batch, batcher = serve_wave(fragmentation, placement, spellings)
    for stats in batch:
        assert fingerprint(stats)["answers"] == solo["answers"]
        assert fingerprint(stats)["communication_units"] == solo["communication_units"]
    # the three spellings shared one pass per fragment they evaluated
    assert len(passes) == len(set(passes)) == len(batch[0].fragments_evaluated)
    assert batcher.stats.batched_queries == 3 * len(passes)
    assert batcher.stats.dedup_hits == 2 * len(passes)

    # the spellings' own plan objects, straight to the batcher: one slot
    root_id = fragmentation.root_fragment_id
    batcher = FragmentWaveBatcher(fragmentation, engine=KERNEL)

    async def run():
        return await asyncio.gather(*(
            batcher.combined(root_id, plan, concrete_root_init_vector(plan), True)
            for plan in plans
        ))

    first, *rest = asyncio.run(run())
    assert all(output is first for output in rest)
    assert batcher.stats.fused_scans == 1 and batcher.stats.dedup_hits == 2


def outputs_equal(a, b):
    return (
        a.root_head == b.root_head
        and a.root_desc == b.root_desc
        and a.answers == b.answers
        and a.candidates == b.candidates
        and a.virtual_parent_vectors == b.virtual_parent_vectors
        and a.operations == b.operations
        and a.root_vector_units == b.root_vector_units
    )


@pytest.mark.parametrize("engine", COLUMNAR)
def test_batcher_outputs_are_bit_identical(workloads, engine):
    """Per-fragment outputs of one flush match every single path.

    All of a workload's plans are submitted to every fragment in one flush;
    each waiter's output must reproduce, field for field, what the
    single-query kernel and the object-tree reference compute for it.
    """
    for name, (fragmentation, _, queries) in workloads.items():
        plans = [ensure_plan(query) for query in queries]
        root_id = fragmentation.root_fragment_id
        requests = []
        for fragment_id in fragmentation.fragment_ids():
            is_root = fragment_id == root_id
            for plan in plans:
                init_vector = (
                    concrete_root_init_vector(plan)
                    if is_root
                    else variable_init_vector(plan, fragment_id)
                )
                requests.append((fragment_id, plan, init_vector, is_root))
        batcher = FragmentWaveBatcher(fragmentation, engine=engine)

        async def run():
            return await asyncio.gather(*(
                batcher.combined(fragment_id, plan, init_vector, is_root)
                for fragment_id, plan, init_vector, is_root in requests
            ))

        outputs = asyncio.run(run())
        for (fragment_id, plan, init_vector, is_root), output in zip(requests, outputs):
            fragment = fragmentation[fragment_id]
            single = evaluate_fragment_combined_flat(
                fragment, fragmentation.flat(fragment_id), plan, init_vector, is_root
            )
            reference = evaluate_fragment_combined(fragment, plan, init_vector, is_root)
            assert outputs_equal(output, single), (name, fragment_id, plan.source)
            assert outputs_equal(output, reference), (name, fragment_id, plan.source)


def test_slots_split_by_anchor_init_vector_and_pinned_encoding(workloads):
    """Only requests that would compute the same pass share one.

    The same plan on the same fragment runs separately when the requests
    differ in anchor, in initialization vector, or in the encoding they are
    pinned to — and each waiter still gets its own solo output.
    """
    fragmentation, _, queries = workloads["xmark-ft1"]
    plan = ensure_plan(queries[0])
    fragment_id = next(
        fid for fid in fragmentation.fragment_ids()
        if fid != fragmentation.root_fragment_id
    )
    live = fragmentation.flat(fragment_id)
    pinned = copy.copy(live)
    variable = tuple(variable_init_vector(plan, fragment_id))
    concrete = tuple(concrete_root_init_vector(plan))
    requests = [
        (variable, False, None),
        (variable, False, None),  # the only duplicate
        (variable, True, None),  # another anchor
        (concrete, False, None),  # another init vector
        (variable, False, pinned),  # another encoding
    ]
    batcher = FragmentWaveBatcher(fragmentation, engine=KERNEL)

    async def run():
        return await asyncio.gather(*(
            batcher.combined(fragment_id, plan, init, is_root, flat=flat)
            for init, is_root, flat in requests
        ))

    outputs = asyncio.run(run())
    assert batcher.stats.batched_queries == 5
    assert batcher.stats.fused_scans == 4
    assert batcher.stats.dedup_hits == 1
    assert outputs[0] is outputs[1]
    assert len({id(output) for output in outputs}) == 4
    fragment = fragmentation[fragment_id]
    for (init, is_root, flat), output in zip(requests, outputs):
        solo = evaluate_fragment_combined_flat(
            fragment, flat if flat is not None else live, plan, init, is_root
        )
        assert outputs_equal(output, solo), (init, is_root, flat)


def test_service_wave_matches_engine_run(workloads):
    fragmentation, placement, queries = workloads["xmark-ft1"]
    engine = DistributedQueryEngine(fragmentation, placement=placement)
    wave = wave_of(queries, 7)
    batch = engine.as_service(cache_capacity=0, coalesce=False).serve_batch(
        wave, concurrency=len(wave)
    )
    for query, result in zip(wave, batch):
        assert fingerprint(result.stats) == fingerprint(engine.run(query))


def test_empty_wave():
    fragmentation = clientele_paper_fragmentation(clientele_example_tree())
    service = DistributedQueryEngine(fragmentation).as_service()
    assert service.serve_batch([]) == []
    assert service.session.batcher.stats.fused_scans == 0
    assert service.session.batcher.stats.batched_queries == 0
