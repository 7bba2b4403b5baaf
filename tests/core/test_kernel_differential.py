"""Differential tests: every engine tier — the columnar kernel, the numpy
vector tier and the object-tree reference — produces bit-identical answers
*and* identical traffic accounting for PaX3, PaX2 and ParBoX on every
bundled workload."""

import pytest

from repro.core.engine import DistributedQueryEngine
from repro.core.kernel.dispatch import (
    ENGINES,
    KERNEL,
    REFERENCE,
    VECTOR,
    fragment_engine,
    prewarm_fragments,
    set_fragment_engine,
    use_fragment_engine,
)
from repro.core.parbox import run_parbox
from repro.workloads.queries import (
    CLIENTELE_QUERIES,
    PAPER_QUERIES,
    clientele_example_tree,
    clientele_paper_fragmentation,
)
from repro.workloads.scenarios import build_ft1, build_ft2

from tests.conftest import available_engines, fingerprint


@pytest.fixture(scope="module")
def workloads():
    clientele = clientele_paper_fragmentation(clientele_example_tree())
    ft1 = build_ft1(fragment_count=4, total_bytes=25_000, seed=7)
    ft2 = build_ft2(total_bytes=30_000, seed=5)
    data = {
        "clientele": (
            clientele,
            None,
            [q for q in CLIENTELE_QUERIES.values() if not q.startswith(".")],
        ),
        "xmark-ft1": (ft1.fragmentation, ft1.placement, list(PAPER_QUERIES.values())),
        "xmark-ft2": (ft2.fragmentation, ft2.placement, list(PAPER_QUERIES.values())),
    }
    return data


@pytest.mark.parametrize("algorithm", ["pax2", "pax3"])
@pytest.mark.parametrize("use_annotations", [False, True])
def test_engines_match_reference_on_all_workloads(workloads, algorithm, use_annotations):
    for name, (fragmentation, placement, queries) in workloads.items():
        engines = {
            engine: DistributedQueryEngine(
                fragmentation,
                placement=placement,
                algorithm=algorithm,
                use_annotations=use_annotations,
                engine=engine,
            )
            for engine in available_engines()
        }
        for query in queries:
            reference = fingerprint(engines[REFERENCE].run(query))
            for engine in available_engines():
                if engine == REFERENCE:
                    continue
                got = fingerprint(engines[engine].run(query))
                assert got == reference, (
                    name, algorithm, use_annotations, engine, query,
                )


def test_parbox_engines_match_reference(workloads):
    clientele, _, _ = workloads["clientele"]
    boolean_queries = [
        CLIENTELE_QUERIES["boolean_goog"],
        '.[//stock/code/text() = "yhoo"]',
        '.[client/country/text() = "us" and //stock]',
        '.[not(//nonexistent)]',
    ]
    for query in boolean_queries:
        reference = fingerprint(run_parbox(clientele, query, engine=REFERENCE))
        for engine in available_engines():
            if engine == REFERENCE:
                continue
            got = fingerprint(run_parbox(clientele, query, engine=engine))
            assert got == reference, (engine, query)


def test_engines_match_reference_through_the_service_layer(workloads):
    # The service serves the columnar engines only; the reference engine
    # is the sync one it is held to.
    fragmentation, placement, queries = workloads["xmark-ft2"]
    reference = DistributedQueryEngine(fragmentation, placement=placement, engine=REFERENCE)
    expected = [fingerprint(reference.run(query)) for query in queries]
    for engine in available_engines():
        if engine == REFERENCE:
            continue
        service = DistributedQueryEngine(
            fragmentation, placement=placement, engine=engine
        ).as_service(cache_capacity=0, max_in_flight=4)
        served = [fingerprint(service.execute(query).stats) for query in queries]
        assert served == expected, engine


class TestEngineFlag:
    def test_default_engine_is_kernel(self):
        assert fragment_engine() in ENGINES

    def test_set_and_restore_engine(self):
        previous = fragment_engine()
        try:
            set_fragment_engine(REFERENCE)
            assert fragment_engine() == REFERENCE
        finally:
            set_fragment_engine(previous)

    def test_use_fragment_engine_context(self):
        previous = fragment_engine()
        with use_fragment_engine(REFERENCE):
            assert fragment_engine() == REFERENCE
        assert fragment_engine() == previous

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            set_fragment_engine("vectorized-gpu")
        with pytest.raises(ValueError):
            DistributedQueryEngine(
                clientele_paper_fragmentation(clientele_example_tree()),
                engine="nope",
            )

    def test_environment_typo_warns_and_falls_back_to_kernel(self, monkeypatch):
        from repro.core.kernel.dispatch import KERNEL, _engine_from_environ

        monkeypatch.setenv("REPRO_FRAGMENT_ENGINE", "kernal")
        with pytest.warns(UserWarning, match="REPRO_FRAGMENT_ENGINE"):
            assert _engine_from_environ() == KERNEL
        monkeypatch.setenv("REPRO_FRAGMENT_ENGINE", "reference")
        assert _engine_from_environ() == "reference"


class TestVectorWithoutNumpy:
    """The vector tier degrades to an actionable error when numpy is gone;
    the other two tiers keep working untouched."""

    @pytest.fixture()
    def no_numpy(self, monkeypatch):
        import repro.core.vector.encode as encode

        monkeypatch.setattr(encode, "_np", None)

    def test_require_numpy_raises_actionable_error(self, no_numpy):
        from repro.core.vector import numpy_available, require_numpy

        assert not numpy_available()
        with pytest.raises(RuntimeError, match="numpy") as excinfo:
            require_numpy()
        # The message must tell the operator what to do, not just what broke.
        for alternative in ("pip install numpy", "kernel", "REPRO_FRAGMENT_ENGINE"):
            assert alternative in str(excinfo.value)

    def test_vector_prewarm_raises_before_any_query_runs(self, no_numpy):
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        with pytest.raises(RuntimeError, match="numpy"):
            prewarm_fragments(fragmentation, engine=VECTOR)

    def test_vector_query_raises_actionable_error(self, no_numpy):
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        engine = DistributedQueryEngine(fragmentation, engine=VECTOR)
        with pytest.raises(RuntimeError, match="numpy"):
            engine.run('client[country/text() = "us"]/name')

    def test_kernel_and_reference_still_work(self, no_numpy):
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        query = 'client[country/text() = "us"]/name'
        answers = {
            engine: DistributedQueryEngine(fragmentation, engine=engine)
            .execute(query).answer_ids
            for engine in (KERNEL, REFERENCE)
        }
        assert answers[KERNEL]
        assert answers[KERNEL] == answers[REFERENCE]


class TestInPlaceEdits:
    def test_engine_refresh_rebuilds_the_columnar_encodings(self):
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        for engine_name in available_engines():
            fragmentation.invalidate_flat()
            engine = DistributedQueryEngine(fragmentation, engine=engine_name)
            query = 'client[country/text() = "us"]/name'
            before = engine.execute(query).answer_ids
            assert before
            # In-place edit: flip every us client to uk, then refresh.
            edited = []
            for node in fragmentation.tree.iter_elements():
                if node.tag == "country" and node.text().strip().lower() == "us":
                    text_child = next(c for c in node.children if c.is_text)
                    edited.append(text_child)
                    text_child.value = "uk"
            engine.refresh()
            assert engine.execute(query).answer_ids == []
            for text_child in edited:
                text_child.value = "us"
            engine.refresh()
            assert engine.execute(query).answer_ids == before
