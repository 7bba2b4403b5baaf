"""What a never-seen query costs, as exact counts (no wall clock).

Fragmentation degree is the paper's independent variable (Experiment 1):
at a fixed fragment size the work per query may grow with the number of
fragments F, but not faster.  Two things used to: every fragment compiled
(and cached, 256 deep) its own ``PlanTables``, and the root fragment folded
its F - 1 virtual children pairwise, constructing O(F^2) throw-away formula
objects.  These tests count constructor calls on FT1 at 16 / 64 / 256
fragments of ~80 nodes, and what stays alive after a long never-seen stream.

Past the passes, the coordinator's share must not grow with the answer
count either: candidate answers are decided once per distinct residual
formula, and answers are counted from the flat columns without touching
the object tree — on every engine and runner.  PaX3's stage 2 (and ParBoX,
at the root) resolves only the qualifier values that can mention a
sub-fragment variable: those at the ancestors-or-self of virtual nodes.

On the vector engine a selection step's work follows the rows it can
select: a ``//`` step under a symbolic init folds once per mark, not one
whole-column connective per tree level, every row set it reads is a view
of the fragment's tag index, and the walk's columns are sparse: at their
peak, all of a fragment's take less memory than two dense int64 columns
of its rows (tracemalloc sees numpy's buffers).  A never-seen stream
leaves nothing behind on the encodings.
"""

import asyncio
import gc
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.booleans import formula as formula_module
from repro.booleans.env import Environment
from repro.booleans.formula import And, Not, Or, Var
from repro.core.engine import DistributedQueryEngine
from repro.core.common import ensure_plan
from repro.core import parbox
from repro.core.kernel import qualifier as kernel_qualifier
from repro.core.kernel.dispatch import ENGINES, KERNEL, REFERENCE, VECTOR, combined_pass
from repro.core.kernel.tables import PlanTables
from repro.core.pax2 import run_pax2
from repro.core.parbox import run_parbox
from repro.core.pax3 import run_pax3
from repro.core.pruning import stage1_init_vector
from repro.core.vector import selection as vector_selection
from repro.core.vector import numpy_available, vector_fragment
from repro.core.vector.algebra import CodeSpace
from repro.core.vector.encode import VectorFragment
from repro.distributed.site import Site
from repro.service.server import ServiceHost
from repro.workloads.scenarios import build_ft1, build_ft2
from repro.xmltree.nodes import XMLNode
from repro.xpath.plan import SELFQUAL

from tests.conftest import available_engines

COLUMNAR = (KERNEL, VECTOR) if numpy_available() else (KERNEL,)

#: every fragment has open auctions, so no annotation prunes any of them and
#: the root folds one head/desc variable per virtual child
COVER = "//open_auction/current"
QUERY = "//open_auction[bidder/increase > {:.2f}]/current"


def ft1_engine(fragments: int, engine: str, bytes_per_fragment: int = 2031):
    """FT1 behind the sync PaX2 engine; the default size gives ~80-node sites."""
    scenario = build_ft1(fragments, fragments * bytes_per_fragment, seed=5)
    served = DistributedQueryEngine(
        scenario.fragmentation, scenario.placement, algorithm="pax2",
        use_annotations=True, engine=engine,
    )
    served.execute(COVER)  # encodings built: what follows is per-query cost
    return served


@pytest.fixture()
def constructions(monkeypatch):
    """Calls to ``PlanTables.__init__`` and to the formula constructors."""
    calls = {"tables": 0, "formulas": 0}

    def counting(original, key):
        def construct(*args):
            calls[key] += 1
            return original(*args)

        return construct

    monkeypatch.setattr(PlanTables, "__init__", counting(PlanTables.__init__, "tables"))
    monkeypatch.setattr(Not, "__new__", counting(Not.__new__, "formulas"))
    monkeypatch.setattr(
        formula_module._NaryOp, "__new__",
        counting(formula_module._NaryOp.__new__, "formulas"),
    )
    return calls


@pytest.mark.parametrize("engine", COLUMNAR)
def test_a_never_seen_query_is_compiled_once_and_folds_linearly(constructions, engine):
    formulas = {}
    for fragments in (16, 64, 256):
        served = ft1_engine(fragments, engine)
        assert len(served.fragmentation) == fragments
        constructions.update(tables=0, formulas=0)
        stats = served.execute(QUERY.format(12.34)).stats
        assert len(stats.fragments_evaluated) == fragments
        assert constructions["tables"] == 1, (fragments, constructions)
        formulas[fragments] = constructions["formulas"]
    # 16x the fragments: at most linearly more formula objects (pairwise
    # folding made it ~200x)
    assert 0 < formulas[256] <= 20 * formulas[16], formulas


def live_plan_tables() -> int:
    return sum(isinstance(candidate, PlanTables) for candidate in gc.get_objects())


def intern_table_sizes() -> dict:
    return {cls.__name__: len(cls._interned) for cls in (Var, And, Or, Not)}


#: the vector tier shares the plan-table cache; a stream just past the cap
#: is enough to show its own per-fragment caches hold no formulas either
STREAMS = [(KERNEL, 1000)] + ([(VECTOR, 300)] if numpy_available() else [])


@pytest.mark.parametrize("engine, requests", STREAMS)
def test_a_never_seen_stream_holds_bounded_tables_and_no_formulas(engine, requests):
    gc.collect()
    tables_before = live_plan_tables()
    interned_before = intern_table_sizes()

    # the smallest sites there are (18 nodes): what is held afterwards does
    # not depend on fragment size, the time the stream takes does
    served = ft1_engine(64, engine, bytes_per_fragment=300)
    for request in range(requests):
        served.execute(QUERY.format(request + 0.25))
    assert live_plan_tables() - tables_before <= 256

    fragmentation = served.fragmentation
    del served  # its sites keep the last query's candidate formulas
    gc.collect()
    assert intern_table_sizes() == interned_before
    assert len(fragmentation) == 64  # the document (and its caches) is still here


@pytest.mark.skipif(not numpy_available(), reason="the vector engine needs numpy")
def test_a_never_seen_stream_retains_nothing_per_query_on_the_vector_tier():
    # PaX2's stage-1 passes alone, on the smallest FT1 sites: what the
    # coordinator keeps is pinned by the stream tests above
    fragmentation = build_ft1(64, 64 * 300, seed=5).fragmentation
    root_id = fragmentation.root_fragment.fragment_id

    def passes(request):
        plan = ensure_plan(QUERY.format(request + 0.25))
        for fragment_id in fragmentation.fragment_ids():
            init = stage1_init_vector(fragmentation, plan, fragment_id, True)
            combined_pass(
                fragmentation, fragment_id, plan, init, fragment_id == root_id, engine=VECTOR
            )

    for request in range(300):  # past the plan-table cap
        passes(request)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for request in range(300, 1000):
            passes(request)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # a per-fragment cache of plan-derived columns grows by ~30 KB a query here
    assert retained < 1_000_000, retained


def test_a_never_seen_service_stream_keeps_the_intern_tables_bounded():
    # A host keeps a prepared entry per query text: its plan and its PaX2
    # schedule, whose init vectors are the fragments' own sv: variables —
    # the same for every query of a template, never a per-query formula.
    scenario = build_ft1(64, 64 * 300, seed=5)
    host = ServiceHost(engine=KERNEL, cache_capacity=0, coalesce=False)
    host.register("doc", scenario.fragmentation, scenario.placement)

    def serve(requests):
        for request in requests:
            host.execute("doc", QUERY.format(request + 0.25))
        gc.collect()
        return intern_table_sizes()

    warm = serve(range(40))
    assert serve(range(40, 200)) == warm
    assert len(host.session("doc").prepared) == 200


#: 25 candidate answers sharing 3 distinct residual formulas on this document
RESIDUAL_QUERY = "//open_auction[bidder]/current"


def run_service_read(scenario, query, engine):
    """One read through a host, pinned to a snapshot (columnar engines only)."""
    host = ServiceHost(engine=engine, cache_capacity=0, coalesce=False)
    host.register("doc", scenario.fragmentation, scenario.placement)
    return host.execute("doc", query).stats


def run_service_wave(scenario, query, engine):
    """Three concurrent reads of *query* through a host, sharing their
    stage-1 passes in the batcher; the first read's stats."""
    host = ServiceHost(engine=engine, cache_capacity=0, coalesce=False)
    host.register("doc", scenario.fragmentation, scenario.placement)

    async def wave():
        return await asyncio.gather(*(host.submit("doc", query) for _ in range(3)))

    results = asyncio.run(wave())
    assert host.session("doc").batcher.stats.dedup_hits > 0
    assert len({tuple(r.stats.answer_ids) for r in results}) == 1
    return results[0].stats


RUNNERS = {
    "pax2": lambda s, q, e: run_pax2(s.fragmentation, q, s.placement, True, engine=e),
    "pax3": lambda s, q, e: run_pax3(s.fragmentation, q, s.placement, True, engine=e),
    "service": run_service_read,
    "service_wave": run_service_wave,
}


@pytest.fixture()
def coordinator_work(monkeypatch):
    """``Environment.resolve`` calls inside answer-retrieval site visits,
    per (environment, formula), and ``XMLNode.iter_subtree`` calls."""
    resolves = Counter()
    walks = Counter()
    answering = []
    visit, resolve, iter_subtree = Site.visit, Environment.resolve, XMLNode.iter_subtree

    @contextmanager
    def counting_visit(self, stage):
        with visit(self, stage):
            answering.append(stage.endswith(":answers"))
            try:
                yield self
            finally:
                answering.pop()

    def counting_resolve(self, value, *rest):
        if answering and answering[-1]:
            resolves[(self, value)] += 1
        return resolve(self, value, *rest)

    def counting_iter_subtree(self):
        walks["iter_subtree"] += 1
        return iter_subtree(self)

    monkeypatch.setattr(Site, "visit", counting_visit)
    monkeypatch.setattr(Environment, "resolve", counting_resolve)
    monkeypatch.setattr(XMLNode, "iter_subtree", counting_iter_subtree)
    return resolves, walks


@pytest.mark.parametrize("engine, runner", [
    (engine, runner)
    for engine in available_engines()
    for runner in sorted(RUNNERS)
    if not (runner.startswith("service") and engine == REFERENCE)
])
def test_candidates_resolve_per_distinct_formula_and_accounting_walks_no_tree(
    coordinator_work, engine, runner
):
    scenario = build_ft2(total_bytes=40_000, seed=5)
    run = RUNNERS[runner]
    warm = run(scenario, RESIDUAL_QUERY, engine)  # version and encodings built
    resolves, walks = coordinator_work
    resolves.clear()
    walks.clear()

    stats = run(scenario, RESIDUAL_QUERY, engine)
    assert stats.answer_ids == warm.answer_ids and stats.answer_ids
    assert stats.answer_nodes_shipped == warm.answer_nodes_shipped
    # candidates were decided at the sites, and each (fragment environment,
    # formula) pair was resolved once — not once per candidate (25 here)
    assert sum(resolves.values()) >= 3
    assert max(resolves.values()) == 1, sorted(resolves.values())
    # answer_nodes_shipped came from the flats, not from subtree walks
    assert walks["iter_subtree"] == 0


def symbolic_rows(flat) -> int:
    """How many rows are ancestors-or-self of a row with virtual children."""
    rows = set()
    for row in flat.virtual_indices:
        while row >= 0:
            rows.add(row)
            row = flat.parent[row]
    return len(rows)


#: the qualifier of QUERY at the document root, as a Boolean query
BOOLEAN = ".[//open_auction[bidder/increase > 20]]"


@pytest.mark.parametrize("engine", COLUMNAR)
def test_stage_two_resolves_only_the_values_at_symbolic_rows(monkeypatch, engine):
    scenario = build_ft2(total_bytes=120_000, seed=5)
    fragmentation = scenario.fragmentation
    calls = Counter()
    inside = []
    resolve = Environment.resolve

    def counting_resolve(self, value, *rest):
        if inside:
            calls[inside[-1]] += 1
        return resolve(self, value, *rest)

    def within(key, run):
        def call(first, *rest):
            inside.append(key(first))
            try:
                return run(first, *rest)
            finally:
                inside.pop()

        return call

    record = ENGINES[engine]
    tier = replace(
        record,
        qualifiers=within(lambda fragment: fragment.fragment_id, record.qualifiers),
        selection=within(lambda fragment: fragment.fragment_id, record.selection),
    )
    monkeypatch.setattr(Environment, "resolve", counting_resolve)
    monkeypatch.setattr(parbox, "_boolean_result_at_root", within(
        lambda fragmentation: fragmentation.root_fragment_id, parbox._boolean_result_at_root
    ))
    runs = {
        "pax3": lambda: run_pax3(fragmentation, QUERY.format(20), scenario.placement, engine=tier),
        "parbox": lambda: run_parbox(fragmentation, BOOLEAN, scenario.placement, engine=tier),
    }
    expected = {
        "pax3": run_pax3(fragmentation, QUERY.format(20), scenario.placement, engine=REFERENCE),
        "parbox": run_parbox(fragmentation, BOOLEAN, scenario.placement, engine=REFERENCE),
    }
    for name, run in runs.items():
        calls.clear()
        stats = run()
        assert stats.answer_ids == expected[name].answer_ids and stats.answer_ids, name
        slots = sum(step.kind == SELFQUAL for step in ensure_plan(stats.query).selection)
        # one resolve per value that mentions a variable, not one per element
        # per slot (that was ~21k resolves per PaX3 query on FT2 at 600 KB)
        assert sum(calls.values()) > 0, name
        for fid, count in calls.items():
            assert count <= symbolic_rows(fragmentation.flat(fid)) * slots, (name, fid, count)


def test_kernel_parbox_evaluates_the_selection_qualifiers_at_root_rows_only(monkeypatch):
    # ParBoX reads only the root's values; no selection pass follows, so the
    # walk evaluates no other row's (that was one call per element).
    scenario = build_ft2(total_bytes=120_000, seed=5)
    fragmentation = scenario.fragmentation
    plan = ensure_plan(BOOLEAN)
    selection_quals = [step.qual for step in plan.selection if step.kind == SELFQUAL]
    calls = []
    evaluate = kernel_qualifier.evaluate_qual_expr

    def counting(qual, ex):
        if qual in selection_quals:
            calls.append(qual)
        return evaluate(qual, ex)

    expected = run_parbox(fragmentation, BOOLEAN, scenario.placement, engine=REFERENCE)
    monkeypatch.setattr(kernel_qualifier, "evaluate_qual_expr", counting)
    stats = run_parbox(fragmentation, plan, scenario.placement, engine=KERNEL)
    assert stats.answer_ids == expected.answer_ids and stats.answer_ids
    assert len(calls) == len(fragmentation) * len(selection_quals)


#: qualifier-free, so no SELFQUAL step runs a column conjunction; without
#: annotations every non-root fragment starts from a symbolic init vector
SYMBOLIC_DESC = "//open_auction//annotation//text"


@pytest.mark.skipif(not numpy_available(), reason="the vector engine needs numpy")
def test_vector_selection_steps_touch_the_rows_they_can_select(monkeypatch):
    scenario = build_ft2(total_bytes=120_000, seed=5)
    served = DistributedQueryEngine(
        scenario.fragmentation, scenario.placement, algorithm="pax2",
        use_annotations=False, engine=VECTOR,
    )
    served.execute(SYMBOLIC_DESC)  # encodings and programs built

    calls = Counter()

    def counting(name, original):
        def call(self, *args):
            calls[name] += 1
            return original(self, *args)

        return call

    for name in ("disj_code", *(name for name in dir(CodeSpace) if name.endswith("_cols"))):
        monkeypatch.setattr(CodeSpace, name, counting(name, getattr(CodeSpace, name)))
    stats = served.execute(SYMBOLIC_DESC).stats
    assert len(stats.fragments_evaluated) > 1 and stats.answer_ids
    # symbolic // steps ran, folding per mark — with no whole-column
    # connective per tree level
    assert calls.pop("disj_code") > 0
    assert sum(calls.values()) == 0, calls

    # every row set a pass reads, a CHILD step's or a CHILD item's, is a
    # view of the fragment's tag index: nothing is gathered or kept per query
    read = []

    def recording(self, tag):
        rows = rows_with_tag(self, tag)
        read.append((self, tag, rows))
        return rows

    rows_with_tag = VectorFragment.rows_with_tag
    monkeypatch.setattr(VectorFragment, "rows_with_tag", recording)
    served.execute(SYMBOLIC_DESC)
    served.execute("//open_auction[bidder/increase > 12.5]/current")
    assert {tag for _, tag, rows in read if rows.size} >= {"open_auction", "increase"}
    np = read[0][0].np
    for vf, tag, rows in read:
        assert rows.size == 0 or any(
            np.shares_memory(rows, column) for column in (vf.tag_rows, vf.elem_idx)
        ), (tag, rows.size)


#: a CHILD chain under a qualifier, symbolic // steps, and an absolute path
#: with a numeric qualifier: between them every kind of selection step
BOUNDED_QUERIES = (
    "//open_auction[bidder/increase > 12.5]/current",
    SYMBOLIC_DESC,
    "/sites/site/people/person[profile/age > 30]/name",
)


@pytest.mark.skipif(not numpy_available(), reason="the vector engine needs numpy")
@pytest.mark.parametrize("query", BOUNDED_QUERIES)
def test_vector_selection_columns_stay_below_two_dense_columns(monkeypatch, query):
    scenario = build_ft2(total_bytes=300_000, seed=5)
    served = DistributedQueryEngine(
        scenario.fragmentation, scenario.placement, algorithm="pax2",
        use_annotations=False, engine=VECTOR,
    )
    served.execute(query)  # encodings, programs and qualifier masks built

    peaks = []
    walk = vector_selection.selection_code_columns

    def traced(vf, *args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        cols = walk(vf, *args)
        peaks.append((vf.n, tracemalloc.get_traced_memory()[1] - before))
        return cols

    monkeypatch.setattr(vector_selection, "selection_code_columns", traced)
    tracemalloc.start()
    try:
        stats = served.execute(query).stats
    finally:
        tracemalloc.stop()
    assert len(peaks) == len(stats.fragments_evaluated) > 1
    # all of a fragment's selection columns together, at their peak, hold
    # less than two dense int64 columns of its n rows
    for n, peak in peaks:
        assert peak < 16 * n, (query, n, peak)
