"""Differential tests for the fused multi-query scan.

The batch path (:func:`repro.core.batch.run_pax2_batch` and the fused
kernel underneath it) must produce, for every query of every wave, answers
*and* traffic accounting identical to the single-query kernel and to the
object-tree reference engine — on every bundled workload, at batch sizes
{1, 2, 7}, with duplicate queries in the wave, and for every engine flag
(including the numpy vector tier when numpy is importable).
"""

import pytest

from repro.core.batch import dedup_slots, run_pax2_batch
from repro.core.combined import evaluate_fragment_combined
from repro.core.common import ensure_plan
from repro.core.engine import DistributedQueryEngine
from repro.core.kernel.batch import evaluate_fragment_combined_batch
from repro.core.kernel.combined import evaluate_fragment_combined_flat
from repro.core.kernel.dispatch import KERNEL, REFERENCE, VECTOR
from repro.core.pax2 import run_pax2
from repro.core.vector import numpy_available
from repro.core.selection import concrete_root_init_vector, variable_init_vector
from repro.workloads.queries import (
    CLIENTELE_QUERIES,
    PAPER_QUERIES,
    clientele_example_tree,
    clientele_paper_fragmentation,
)
from repro.workloads.scenarios import build_ft1, build_ft2

from tests.conftest import available_engines, fingerprint


def wave_of(queries, size):
    """A deterministic wave: round-robin over the query pool."""
    return [queries[index % len(queries)] for index in range(size)]


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
            if numpy_available():
                vector = fingerprint(
                    run_pax2(
                        fragmentation, query, placement=placement,
                        use_annotations=use_annotations, engine=VECTOR,
                    )
                )
                assert vector == reference, (name, query)
            solo[query] = kernel
        wave = wave_of(queries, batch_size)
        for engine in available_engines():
            batch = run_pax2_batch(
                fragmentation, wave, placement=placement,
                use_annotations=use_annotations, engine=engine,
            )
            assert len(batch) == len(wave)
            for query, stats in zip(wave, batch):
                assert fingerprint(stats) == solo[query], (
                    name, use_annotations, batch_size, engine, query,
                )


def test_wave_of_duplicates_collapses_to_one_slot(workloads):
    fragmentation, placement, queries = workloads["xmark-ft2"]
    query = queries[0]
    spellings = [query, query, query.replace("/site/", "/./site/")]
    plans = [ensure_plan(q) for q in spellings]
    slot_of, slot_plans = dedup_slots(plans)
    assert slot_of == [0, 0, 0]
    assert len(slot_plans) == 1

    solo = fingerprint(run_pax2(fragmentation, query, placement=placement))
    for stats in run_pax2_batch(fragmentation, spellings, placement=placement):
        assert fingerprint(stats)["answers"] == solo["answers"]
        assert fingerprint(stats)["communication_units"] == solo["communication_units"]


def test_fused_kernel_outputs_are_bit_identical(workloads):
    """Per-fragment outputs of the batched scans match every single path.

    The kernel's fused batch and (when numpy is importable) the vector
    tier's stacked batch must both reproduce, field for field, what the
    single-query kernel and the object-tree reference compute.
    """
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

    for name, (fragmentation, _, queries) in workloads.items():
        plans = [ensure_plan(query) for query in queries]
        root_id = fragmentation.root_fragment_id
        for fragment_id in fragmentation.fragment_ids():
            fragment = fragmentation[fragment_id]
            flat = fragmentation.flat(fragment_id)
            is_root = fragment_id == root_id
            init_vectors = [
                concrete_root_init_vector(plan)
                if is_root
                else variable_init_vector(plan, fragment_id)
                for plan in plans
            ]
            batched = evaluate_fragment_combined_batch(
                fragment, flat, plans, init_vectors, is_root
            )
            vector_batched = None
            if numpy_available():
                from repro.core.vector.batch import (
                    evaluate_fragment_combined_vector_batch,
                )

                vector_batched = evaluate_fragment_combined_vector_batch(
                    fragment, flat, plans, init_vectors, is_root
                )
            for slot, (plan, init_vector, output) in enumerate(
                zip(plans, init_vectors, batched)
            ):
                single = evaluate_fragment_combined_flat(
                    fragment, flat, plan, init_vector, is_root
                )
                reference = evaluate_fragment_combined(
                    fragment, plan, init_vector, is_root
                )
                assert outputs_equal(output, single), (name, fragment_id, plan.source)
                assert outputs_equal(output, reference), (name, fragment_id, plan.source)
                if vector_batched is not None:
                    assert outputs_equal(vector_batched[slot], single), (
                        name, fragment_id, plan.source,
                    )


def test_engine_run_batch_matches_run(workloads):
    fragmentation, placement, queries = workloads["xmark-ft1"]
    engine = DistributedQueryEngine(fragmentation, placement=placement)
    wave = wave_of(queries, 7)
    batch = engine.run_batch(wave)
    for query, stats in zip(wave, batch):
        assert fingerprint(stats) == fingerprint(engine.run(query))


def test_engine_run_batch_falls_back_for_other_algorithms(workloads):
    fragmentation, placement, queries = workloads["clientele"]
    engine = DistributedQueryEngine(fragmentation, placement=placement, algorithm="pax3")
    batch = engine.run_batch(queries[:2])
    for query, stats in zip(queries[:2], batch):
        assert stats.algorithm == "PaX3"
        assert fingerprint(stats) == fingerprint(engine.run(query))


def test_empty_wave():
    fragmentation = clientele_paper_fragmentation(clientele_example_tree())
    assert run_pax2_batch(fragmentation, []) == []


def test_plan_tables_shared_across_spellings():
    """Satellite: the PlanTables cache keys on the normalized fingerprint."""
    from repro.core.kernel.tables import plan_tables

    fragmentation = clientele_paper_fragmentation(clientele_example_tree())
    flat = fragmentation.flat(fragmentation.root_fragment_id)
    a = ensure_plan("//broker/./name")
    b = ensure_plan("//broker/name")
    assert a.fingerprint == b.fingerprint
    assert plan_tables(flat, a) is plan_tables(flat, b)
